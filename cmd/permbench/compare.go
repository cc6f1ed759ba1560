package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"randperm"
	"randperm/internal/service"
)

// backendResult is one row of the backend comparison, shaped for the
// -json output so successive PRs can track the perf trajectory in
// BENCH_*.json files.
type backendResult struct {
	Backend   string  `json:"backend"`
	N         int64   `json:"n"`
	Procs     int     `json:"procs"`
	Workers   int     `json:"workers"`
	Trials    int     `json:"trials"`
	BestNs    int64   `json:"best_ns"`
	NsPerItem float64 `json:"ns_per_item"`
	ItemsPerS float64 `json:"items_per_sec"`
}

type compareReport struct {
	N          int64           `json:"n"`
	Procs      int             `json:"procs"`
	Workers    int             `json:"workers"`
	Trials     int             `json:"trials"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Results    []backendResult `json:"results"`
	// Speedups maps "<a>_vs_<b>" to best_ns(b)/best_ns(a) for every
	// ordered pair of measured backends, so BENCH_*.json trajectory
	// points stay comparable as backends are added.
	Speedups map[string]float64 `json:"speedups,omitempty"`
	Speedup  float64            `json:"speedup_shmem_vs_sim,omitempty"`
	// Serving is the HTTP-path measurement (-serve): permd's chunk
	// endpoint driven over a real loopback connection, the number
	// BENCHMARKS.md's "serving" section tracks.
	Serving *servingResult `json:"serving,omitempty"`
}

// servingResult is one measurement of the permd chunk endpoint: req/s
// and ns/item through the full HTTP path (routing, handle cache, pooled
// buffers, text encoding, loopback TCP) at a domain size only the
// bijective backend can serve.
type servingResult struct {
	Backend   string  `json:"backend"`
	N         int64   `json:"n"`
	ChunkLen  int     `json:"chunk_len"`
	Requests  int     `json:"requests"`
	BestNs    int64   `json:"best_req_ns"`
	NsPerItem float64 `json:"ns_per_item"`
	ReqPerS   float64 `json:"req_per_sec"`
}

// runServe measures the served-chunk path: a permd handler on a loopback
// listener, one warm-up request (handle construction), then `reqs`
// timed requests for distinct 64Ki-index chunks of an n = 2^40
// permutation on the bijective backend. Best-of like the table above.
func runServe(reqs int) (*servingResult, error) {
	const (
		servedN  = int64(1) << 40
		chunkLen = 1 << 16
	)
	if reqs <= 0 {
		reqs = 32
	}
	handler, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	base := fmt.Sprintf("http://%s/v1/perm/42/chunk?n=%d&len=%d&start=", ln.Addr(), servedN, chunkLen)

	fetch := func(start int64) error {
		resp, err := http.Get(fmt.Sprintf("%s%d", base, start))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("serving bench: status %s", resp.Status)
		}
		return nil
	}
	if err := fetch(0); err != nil { // warm-up: handle construction, TCP setup
		return nil, err
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reqs; r++ {
		start := time.Now()
		if err := fetch(int64(r+1) * chunkLen); err != nil {
			return nil, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return &servingResult{
		Backend:   "bijective",
		N:         servedN,
		ChunkLen:  chunkLen,
		Requests:  reqs,
		BestNs:    best.Nanoseconds(),
		NsPerItem: float64(best.Nanoseconds()) / float64(chunkLen),
		ReqPerS:   1e9 / float64(best.Nanoseconds()),
	}, nil
}

// profileBackend wraps one backend's timing loop in a pprof CPU profile
// written to dir/cpu-<backend>.pprof, so a perf PR can start from data
// (`go tool pprof cpu-shmem.pprof`) instead of guesses. Profiling adds a
// sampling interrupt (~100 Hz), so profiled numbers are for attribution,
// not for BENCH_backends.json.
func profileBackend(dir, backend string, run func() error) error {
	f, err := os.Create(filepath.Join(dir, "cpu-"+backend+".pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	return run()
}

// runCompare times the execution backends side by side on the same
// workload and prints a table (or JSON with -json). The per-backend
// figure is the best of `trials` runs, the conventional way to strip
// scheduler noise from a throughput measurement. With a non-empty
// profDir each backend's loop additionally writes a CPU profile there.
func runCompare(n int64, p, workers, trials int, which string, seed uint64, serve, asJSON bool, profDir string) error {
	if n <= 0 {
		n = 1 << 20
	}
	if trials <= 0 {
		trials = 5
	}
	var backends []randperm.Backend
	switch which {
	case "", "both", "all":
		backends = []randperm.Backend{
			randperm.BackendSim, randperm.BackendSharedMem,
			randperm.BackendInPlace, randperm.BackendBijective,
			randperm.BackendCluster,
		}
	default:
		b, err := randperm.ParseBackend(which)
		if err != nil {
			return err
		}
		backends = []randperm.Backend{b}
	}

	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}

	rep := compareReport{
		N: n, Procs: p, Workers: workers, Trials: trials,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if profDir != "" {
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			return err
		}
	}
	byName := map[string]backendResult{}
	for _, b := range backends {
		best := time.Duration(1<<63 - 1)
		timeTrials := func() error {
			for t := 0; t < trials; t++ {
				start := time.Now()
				_, _, err := randperm.ParallelShuffle(data, randperm.Options{
					Procs:       p,
					Seed:        seed + uint64(t),
					Backend:     b,
					Parallelism: workers,
				})
				if err != nil {
					return fmt.Errorf("%s: %w", b, err)
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			return nil
		}
		var err error
		if profDir != "" {
			err = profileBackend(profDir, b.String(), timeTrials)
		} else {
			err = timeTrials()
		}
		if err != nil {
			return err
		}
		r := backendResult{
			Backend:   b.String(),
			N:         n,
			Procs:     p,
			Workers:   workers,
			Trials:    trials,
			BestNs:    best.Nanoseconds(),
			NsPerItem: float64(best.Nanoseconds()) / float64(n),
			ItemsPerS: float64(n) / best.Seconds(),
		}
		rep.Results = append(rep.Results, r)
		byName[r.Backend] = r
	}
	rep.Speedups = map[string]float64{}
	for an, a := range byName {
		for bn, b := range byName {
			if an != bn && a.BestNs > 0 {
				rep.Speedups[an+"_vs_"+bn] = float64(b.BestNs) / float64(a.BestNs)
			}
		}
	}
	rep.Speedup = rep.Speedups["shmem_vs_sim"]
	if serve {
		sr, err := runServe(trials * 8)
		if err != nil {
			return err
		}
		rep.Serving = sr
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fmt.Printf("Backend comparison: n=%d p=%d workers=%d trials=%d (best of)\n",
		n, p, workers, trials)
	fmt.Printf("%-10s %12s %12s %14s\n", "backend", "ms/run", "ns/item", "items/s")
	for _, r := range rep.Results {
		fmt.Printf("%-10s %12.2f %12.2f %14.3e\n",
			r.Backend, float64(r.BestNs)/1e6, r.NsPerItem, r.ItemsPerS)
	}
	for _, pair := range []struct{ a, b string }{
		{"shmem", "sim"}, {"inplace", "sim"}, {"inplace", "shmem"},
		{"bijective", "sim"}, {"bijective", "shmem"}, {"cluster", "shmem"},
	} {
		if s, ok := rep.Speedups[pair.a+"_vs_"+pair.b]; ok {
			fmt.Printf("%s speedup over %s: %.2fx\n", pair.a, pair.b, s)
		}
	}
	if rep.Serving != nil {
		s := rep.Serving
		fmt.Printf("served chunk (HTTP, %s, n=2^40, %d values/req): %.0f req/s, %.2f ns/item\n",
			s.Backend, s.ChunkLen, s.ReqPerS, s.NsPerItem)
	}
	return nil
}
