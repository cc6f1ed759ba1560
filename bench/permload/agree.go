package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// runRecord is one child run as -json stores it.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
}

func writeRuns(path string, runs []runRecord) error {
	b, err := json.MarshalIndent(struct {
		Runs []runRecord `json:"runs"`
	}{runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readRuns loads and concatenates the runs of a comma-separated list of
// -json files, so a set can be gathered over alternated invocations.
func readRuns(list string) ([]runRecord, error) {
	var out []runRecord
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f struct {
			Runs []runRecord `json:"runs"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, f.Runs...)
	}
	return out, nil
}

// spread is one metric's distribution over runs.
type spread struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

type workloadSummary struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]spread `json:"metrics"`
}

// summarize groups runs by workload and takes each metric's quartiles.
func summarize(runs []runRecord) map[string]workloadSummary {
	values := map[string]map[string][]float64{}
	out := map[string]workloadSummary{}
	for _, r := range runs {
		ws := out[r.Workload]
		ws.Attempted += r.Result.Attempted
		ws.Failed += r.Result.Failed
		if ws.Metrics == nil {
			ws.Metrics = map[string]spread{}
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			ws.Metrics[name] = spread{Unit: m.Unit}
		}
		out[r.Workload] = ws
	}
	for w, ms := range values {
		for name, vs := range ms {
			q1, med, q3 := quartiles(vs)
			s := out[w].Metrics[name]
			s.Median, s.Q1, s.Q3, s.Runs = med, q1, q3, len(vs)
			out[w].Metrics[name] = s
		}
	}
	return out
}

func printSummary(out io.Writer, sum map[string]workloadSummary) {
	for _, w := range sortedKeys(sum) {
		ws := sum[w]
		fmt.Fprintf(out, "%s: ops %d, failed %d\n", w, ws.Attempted, ws.Failed)
		for _, name := range sortedKeys(ws.Metrics) {
			s := ws.Metrics[name]
			fmt.Fprintf(out, "  %-34s %14.6g %-8s [q1 %.6g, q3 %.6g; spread %.1f%% of %d runs]\n",
				name, s.Median, s.Unit, s.Q1, s.Q3, relSpread(s), s.Runs)
		}
	}
}

// relSpread is the interquartile distance as a percentage of the median.
func relSpread(s spread) float64 {
	if s.Median == 0 {
		return 0
	}
	return 100 * (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// benchSpec is the part of BENCHMARK.json agree needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agreeMain compares the end-to-end medians of two sets of runs of each
// workload and fails if any pair differs by more than the metric's
// bound, relative to set A.
func agreeMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("agree", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: permload agree [-bench BENCHMARK.json] A.json[,A2.json...] B.json[,B2.json...]")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permload agree:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "permload agree:", *benchPath, err)
		return 2
	}
	sums := make([]map[string]workloadSummary, 2)
	for i := range sums {
		runs, err := readRuns(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "permload agree:", err)
			return 2
		}
		var e2e []runRecord
		for _, r := range runs {
			if r.Trace == 0 {
				e2e = append(e2e, r)
			}
		}
		sums[i] = summarize(e2e)
	}
	a, bb := sums[0], sums[1]
	code := 0
	fmt.Fprintf(out, "%-14s %-18s %14s %14s %8s %7s\n", "workload", "metric", "A median", "B median", "diff", "bound")
	for _, w := range sortedKeys(a) {
		for _, m := range spec.EndToEnd {
			sa, okA := a[w].Metrics[m.Name]
			sb, okB := bb[w].Metrics[m.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-14s %-18s missing from one set\n", w, m.Name)
				code = 1
				continue
			}
			diff := (sb.Median - sa.Median) / sa.Median
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-18s %14.6g %14.6g %+7.1f%% %6.0f%% %s\n", w, m.Name, sa.Median, sb.Median, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
