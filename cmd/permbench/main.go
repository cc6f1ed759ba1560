// Command permbench regenerates the paper's evaluation: every experiment
// in the internal/harness catalogue (E1..E10, see -list) prints a table
// mirroring the measurement the paper reports, with the paper's numbers
// quoted alongside where it gives any.
//
// Usage:
//
//	permbench -exp all            # run the full evaluation
//	permbench -exp E3,E4 -quick   # selected experiments, CI-sized
//	permbench -exp E3 -n 480000000  # the paper's original size
//	permbench -list               # catalogue with the claims reproduced
//	permbench -exp E5 -csv        # machine-readable output
//
// Beyond the paper's experiments, -compare races the execution backends
// (the simulated PRO machine, the shared-memory scatter engine, the
// MergeShuffle-style in-place engine, the keyed-bijection streaming
// engine, and the blocked cluster decomposition) on one workload:
//
//	permbench -compare -n 1000000 -p 8          # five-way table
//	permbench -compare -json > BENCH_backends.json  # ns/item per backend
//	permbench -compare -backend inplace -workers 4  # one backend only
//	permbench -compare -cluster                 # + loopback 2/4/8/16-node clusters
//	permbench -compare -profile /tmp/prof       # + pprof CPU profile per backend
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"randperm/internal/core"
	"randperm/internal/harness"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		n      = flag.Int64("n", 0, "item count for timing experiments (0 = default)")
		trials = flag.Int("trials", 0, "trial count for statistical experiments (0 = default)")
		seed   = flag.Uint64("seed", 0, "random seed (0 = default)")
		quick  = flag.Bool("quick", false, "shrink workloads for a fast pass")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list   = flag.Bool("list", false, "list experiments and exit")
		ghz    = flag.Float64("ghz", 0, "CPU clock in GHz for cycle estimates (0 = default 3.0)")
		prof   = flag.Bool("bsp-profile", false, "print the BSP superstep profile of one Algorithm 1 run and exit")
		profP  = flag.Int("profile-p", 8, "machine size for -bsp-profile")

		cmp      = flag.Bool("compare", false, "time the execution backends side by side and exit")
		profDir  = flag.String("profile", "", "with -compare, write a pprof CPU profile per backend into this directory (cpu-<backend>.pprof)")
		cmpP     = flag.Int("p", 8, "decomposition width for -compare")
		workers  = flag.Int("workers", 0, "worker-pool cap for -compare (0 = GOMAXPROCS)")
		backends = flag.String("backend", "all", "backends for -compare: sim, shmem, inplace, bijective, cluster or all")
		serve    = flag.Bool("serve", false, "with -compare, also measure permd's HTTP chunk path (req/s, ns/item)")
		clusterB = flag.Bool("cluster", false, "with -compare, also measure loopback 2/4/8/16-node permd clusters end to end")
		jsonOut  = flag.Bool("json", false, "with -compare, emit machine-readable JSON")
	)
	flag.Parse()

	if *cmp {
		if err := runCompare(*n, *cmpP, *workers, *trials, *backends, *seed+1, *serve, *clusterB, *jsonOut, *profDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range harness.Experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return
	}

	if *prof {
		pn := *n
		if pn == 0 {
			pn = 1 << 20
		}
		sizes := core.EvenBlocks(pn, *profP)
		blocks, err := core.Split(core.Iota(pn), sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		_, m, err := core.Permute(blocks, sizes, core.Config{Seed: *seed + 1, Matrix: core.MatrixOpt})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("Algorithm 1 (matrix=opt), n=%d:\n%s", pn, m.Report().ProfileString())
		return
	}

	cfg := harness.Config{
		N:      *n,
		Trials: *trials,
		Seed:   *seed,
		Quick:  *quick,
		CPUGHz: *ghz,
	}

	var ids []string
	if *exp == "all" {
		for _, e := range harness.Experiments {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	for _, id := range ids {
		e, err := harness.Find(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Println(table.Render())
		}
	}
}
