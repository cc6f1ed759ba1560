// Command permload is randperm's end-to-end benchmark. It boots permd
// services on loopback listeners inside its own process, drives one of
// four closed-loop workloads against them, checks every response
// against the in-process library, and prints each metric by name with
// its unit, then one JSON line.
//
//	permload -workload chunk-warm -seed 1 -seconds 20 -trace 0   one run, in this process
//	permload -seed 1                                           every workload, each in a child process
//	permload -runs 10 -json runs.json                          ten seeds per workload, with quartiles
//	permload -trace 1 -workload cluster-cold -spans spans.json per-layer run, spans saved
//	permload agree A.json B.json                               do two sets of runs agree within the bounds?
//
// See bench/README.md for the workloads and the metric glossary.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "workload to run (default: all of "+fmt.Sprint(workloadNames)+", each in a child process)")
	seed := flag.Uint64("seed", 1, "input seed; run k of -runs uses seed+k")
	seconds := flag.Float64("seconds", 20, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "1: per-layer traced run instead of the end-to-end run")
	runs := flag.Int("runs", 1, "runs per workload, each in a child process")
	jsonOut := flag.String("json", "", "write every run's result to this file, for permload agree")
	spans := flag.String("spans", "", "with -trace 1 and one run: write the traced spans to this file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "permload: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "permload: -runs and -seconds must be positive")
		os.Exit(2)
	}

	if *name != "" && *runs == 1 && *jsonOut == "" {
		res, err := runWorkload(runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "permload:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "permload:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	names := workloadNames
	if *name != "" {
		if _, err := newWorkload(*name, 0); err != nil {
			fmt.Fprintln(os.Stderr, "permload:", err)
			os.Exit(2)
		}
		names = []string{*name}
	}
	var all []runRecord
	ok := true
	// Workloads alternate within each round, so a slow spell of a shared
	// machine spreads over all of them instead of one.
	for k := 0; k < *runs; k++ {
		for _, n := range names {
			rec := runRecord{Workload: n, Seed: *seed + uint64(k), Seconds: *seconds, Trace: *trace}
			res, err := runChild(rec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "permload: %s seed %d: %v\n", n, rec.Seed, err)
				ok = false
				continue
			}
			rec.Result = res
			ok = ok && res.Correct
			all = append(all, rec)
		}
	}
	sum := summarize(all)
	printSummary(os.Stdout, sum)
	if *jsonOut != "" {
		if err := writeRuns(*jsonOut, all); err != nil {
			fmt.Fprintln(os.Stderr, "permload:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permload:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

// runChild runs one workload in a fresh process of this binary, so peak
// RSS and GC state belong to that workload alone. The child's report
// goes to standard error as progress; its last line is the result.
func runChild(rec runRecord) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", rec.Workload,
		"-seed", strconv.FormatUint(rec.Seed, 10),
		"-seconds", strconv.FormatFloat(rec.Seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(rec.Trace))
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, os.Stderr)
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "== %s seed %d\n", rec.Workload, rec.Seed)
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return res, nil
}
