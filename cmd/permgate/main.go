// Command permgate is the CI perf gate: it compares a fresh
// `permbench -compare -json` report against the committed trajectory
// point (BENCH_backends.json) and fails — exit status 1 — if any backend
// regressed beyond the tolerance, so a hot-path regression breaks the
// build instead of silently bending the perf trajectory.
//
// Usage:
//
//	permbench -compare -json > fresh.json
//	permgate -baseline BENCH_backends.json -current fresh.json
//	permgate -current fresh.json -tolerance 0.30   # noisier boxes
//
// The verdict is one line per measurement plus a PASS/FAIL summary,
// suitable for a CI artifact. Rules:
//
//   - every backend in the baseline must be present in the current
//     report (a disappearing measurement is a coverage regression);
//   - a backend fails when current ns/item > baseline ns/item *
//     (1 + tolerance). The default tolerance is 0.25: CI runners are
//     shared and noisy, and the committed numbers are best-of-trials
//     from one box, so the gate is meant to catch step regressions
//     (an accidental O(n log n), a dropped batch path), not 5% jitter;
//   - the serving measurement is gated the same way when both reports
//     carry one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// report is the subset of permbench's -compare -json output the gate
// reads; unknown fields are ignored so the two tools can evolve apart.
type report struct {
	Results []struct {
		Backend   string  `json:"backend"`
		NsPerItem float64 `json:"ns_per_item"`
	} `json:"results"`
	Serving *struct {
		NsPerItem float64 `json:"ns_per_item"`
	} `json:"serving,omitempty"`
}

func loadReport(path string) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r report
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// run executes the gate and writes the verdict to w. It returns an error
// only for operational failures (unreadable files, bad flags); a perf
// regression is reported through the boolean so main can exit 1 with the
// verdict already printed.
func run(args []string, w io.Writer) (pass bool, err error) {
	fs := flag.NewFlagSet("permgate", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		baseline  = fs.String("baseline", "BENCH_backends.json", "committed trajectory point to gate against")
		current   = fs.String("current", "", "fresh permbench -compare -json report (required)")
		tolerance = fs.Float64("tolerance", 0.25, "allowed fractional ns/item regression per measurement")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *current == "" {
		return false, fmt.Errorf("permgate: -current is required (a fresh permbench -compare -json report)")
	}
	if *tolerance < 0 {
		return false, fmt.Errorf("permgate: tolerance must be non-negative, got %g", *tolerance)
	}
	base, err := loadReport(*baseline)
	if err != nil {
		return false, err
	}
	cur, err := loadReport(*current)
	if err != nil {
		return false, err
	}

	curBy := map[string]float64{}
	for _, r := range cur.Results {
		curBy[r.Backend] = r.NsPerItem
	}
	pass = true
	verdict := func(name string, baseNs, curNs float64) {
		limit := baseNs * (1 + *tolerance)
		status := "ok"
		if curNs > limit {
			status = "REGRESSED"
			pass = false
		} else if curNs < baseNs {
			status = "improved"
		}
		fmt.Fprintf(w, "%-10s %10.2f -> %10.2f ns/item  (limit %.2f)  %s\n",
			name, baseNs, curNs, limit, status)
	}
	for _, b := range base.Results {
		curNs, ok := curBy[b.Backend]
		if !ok {
			fmt.Fprintf(w, "%-10s %10.2f -> %10s            MISSING from current report\n",
				b.Backend, b.NsPerItem, "?")
			pass = false
			continue
		}
		verdict(b.Backend, b.NsPerItem, curNs)
	}
	if base.Serving != nil && cur.Serving != nil {
		verdict("serving", base.Serving.NsPerItem, cur.Serving.NsPerItem)
	}
	if pass {
		fmt.Fprintf(w, "PASS: no backend regressed more than %.0f%% against %s\n",
			*tolerance*100, *baseline)
	} else {
		fmt.Fprintf(w, "FAIL: regression beyond %.0f%% tolerance against %s\n",
			*tolerance*100, *baseline)
	}
	return pass, nil
}

func main() {
	pass, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !pass {
		os.Exit(1)
	}
}
