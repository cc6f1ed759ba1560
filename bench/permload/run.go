package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"randperm"
	"randperm/internal/events"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // where to write the traced spans; "" for nowhere
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupBoots is how many fresh boots setup_s is the median of; a boot
// takes milliseconds, so one in five would land in a slow spell of the
// host and move a median of five, and a sub-millisecond assign-lookup
// boot varies threefold within one run.
const setupBoots = 31

// runWorkload measures one workload: set-up and the untraced window
// (end-to-end metrics), or an untraced and a traced half (per-layer
// metrics), each after a warm-up. Every response is checked against the
// oracle. Human-readable lines go to out.
func runWorkload(cfg runConfig, out io.Writer) (result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return result{}, err
	}
	var setup float64
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	} else if setup, err = setupSeconds(w); err != nil {
		return result{}, err
	}
	s, err := startRig(w, tr)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	window := time.Duration(cfg.seconds * float64(time.Second))
	s.drive(min(time.Second, window/5)) // warm-up: checked, not measured
	if cfg.trace {
		return tracedRun(cfg, s, window, out)
	}
	return endToEndRun(s, window, setup, out)
}

// setupSeconds is the median over fresh boots of the time from building
// the services to the first correct response.
func setupSeconds(w workload) (float64, error) {
	req := w.next(0)
	want, err := w.oracle()(req.seed, req.arg)
	if err != nil {
		return 0, err
	}
	times := make([]float64, setupBoots)
	for i := range times {
		d, err := bootTime(w, req, want)
		if err != nil {
			return 0, err
		}
		times[i] = d.Seconds()
	}
	_, med, _ := quartiles(times)
	return med, nil
}

func endToEndRun(s *rig, window time.Duration, setup float64, out io.Writer) (result, error) {
	main := s.drive(window)
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	s.close()
	ws := measure(main)
	res, err := check(s)
	if err != nil {
		return result{}, err
	}
	res.Metrics = map[string]metric{
		"items_per_s":      {ws.itemsPerS, "items/s"},
		"req_p50_us":       {float64(ws.p50) / 1e3, "us"},
		"fresh_req_p50_us": {float64(ws.freshP50) / 1e3, "us"},
		"setup_s":          {setup, "s"},
		"peak_rss_mb":      {rss, "MiB"},
	}
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "  (p50s from %d samples, %d fresh, in the fastest parts; %d requests, sampled tail p%g %.3f us)\n",
		ws.n, ws.nFresh, ws.requests, ws.tailQ, float64(ws.tail)/1e3)
	fmt.Fprintf(out, "  ops %d, failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

// check runs the oracle over every answer: a non-200, a body cut short
// or a CRC that differs from the in-process recomputation fails. The
// distinct requests are sorted by (seed, arg) and cut at seed boundaries
// into one part per CPU, each checked by its own oracle.
func check(s *rig) (result, error) {
	var res result
	var keys []keyTally
	for _, c := range s.conns {
		res.Failed += c.failed
		res.Attempted += c.failed
		for k, t := range c.tallies {
			keys = append(keys, keyTally{k, t})
			res.Attempted += t.n + int64(len(t.others))
		}
	}
	slices.SortFunc(keys, func(a, b keyTally) int {
		if c := cmp.Compare(a.k.seed, b.k.seed); c != 0 {
			return c
		}
		return cmp.Compare(a.k.arg, b.k.arg)
	})
	parts := runtime.GOMAXPROCS(0)
	failed := make([]int64, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for i, lo := 0, 0; i < parts; i++ {
		hi := max(lo, len(keys)*(i+1)/parts)
		for hi > lo && hi < len(keys) && keys[hi].k.seed == keys[hi-1].k.seed {
			hi++
		}
		wg.Add(1)
		go func(i int, part []keyTally) {
			defer wg.Done()
			failed[i], errs[i] = checkPart(s.w.oracle(), part)
		}(i, keys[lo:hi])
		lo = hi
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return result{}, fmt.Errorf("oracle: %w", err)
	}
	for _, f := range failed {
		res.Failed += f
	}
	res.Correct = res.Failed == 0
	return res, nil
}

type keyTally struct {
	k reqKey
	t tally
}

func checkPart(oracle func(uint64, int64) (uint32, error), keys []keyTally) (failed int64, err error) {
	var want uint32
	var last *reqKey
	for i := range keys {
		k, t := &keys[i].k, &keys[i].t
		if !k.verify {
			continue
		}
		if last == nil || k.seed != last.seed || k.arg != last.arg {
			if want, err = oracle(k.seed, k.arg); err != nil {
				return 0, err
			}
			last = k
		}
		if t.crc != want {
			failed += t.n
		}
		for _, crc := range t.others {
			if crc != want {
				failed++
			}
		}
	}
	return failed, nil
}

// counters is a /metrics scrape: unlabelled samples by name, summed over
// the nodes.
type counters map[string]float64

func (s *rig) scrape() (counters, error) {
	c := counters{}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, u := range s.st.urls {
		resp, err := client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				c[name] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c counters) sub(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// tracedWindow drives one traced phase and returns its log, the counter
// deltas across it and the round events dropped.
func (s *rig) tracedWindow(d time.Duration) (phase, counters, int64, error) {
	before, err := s.scrape()
	if err != nil {
		return nil, nil, 0, err
	}
	buses := make([]*events.Bus, len(s.st.services))
	for i, svc := range s.st.services {
		buses[i] = svc.EventBus()
	}
	stop, err := s.tr.watchRounds(buses)
	if err != nil {
		return nil, nil, 0, err
	}
	s.tr.enabled.Store(true)
	ph := s.drive(d)
	s.tr.enabled.Store(false)
	dropped := stop()
	after, err := s.scrape()
	if err != nil {
		return nil, nil, 0, err
	}
	return ph, after.sub(before), dropped, nil
}

func tracedRun(cfg runConfig, s *rig, window time.Duration, out io.Writer) (result, error) {
	c0, err := s.scrape()
	if err != nil {
		return result{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	quiet := s.drive(window / 2)
	runtime.ReadMemStats(&m1)
	c1, err := s.scrape()
	if err != nil {
		return result{}, err
	}
	traced, ct, dropped, err := s.tracedWindow(window / 2)
	if err != nil {
		return result{}, err
	}
	s.close()

	qs, ts := measure(quiet), measure(traced)
	reqs := qs.requests + ts.requests
	res, err := check(s)
	if err != nil {
		return result{}, err
	}
	pr, err := runProbes(cfg.seed)
	if err != nil {
		return result{}, err
	}
	lt := sumLayers(s.tr.spans)
	if lt.reqs == 0 {
		return result{}, fmt.Errorf("no traced requests")
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, s.tr.spans); err != nil {
			return result{}, err
		}
	}

	// The cluster layer: this workload's own pulls, or a short probe.
	cl, clItems := lt, ct["permd_cluster_exchange_items_total"]
	_, ownPulls := s.w.(*clusterCold)
	if !ownPulls {
		p, err := clusterProbe(cfg.seed)
		if err != nil {
			return result{}, err
		}
		cl, clItems = p.lt, p.exchangeItems
		dropped += p.dropped
		res.Attempted += p.res.Attempted
		res.Failed += p.res.Failed
		res.Correct = res.Correct && p.res.Correct
	}

	all := c1.sub(c0) // counter deltas over both halves
	for k, v := range ct {
		all[k] += v
	}
	hits, misses := all["permd_handle_cache_hits_total"], all["permd_handle_cache_misses_total"]
	perK := func(name string) float64 { return all[name] * 1000 / float64(reqs) }
	n := float64(lt.reqs)
	replay := engineReplayNs(s.w, pr, ct["permd_materializations_total"]/n)
	ms := func(ns int64, pulls int64) float64 { return float64(ns) / float64(pulls) / 1e6 }
	us := func(ns float64) float64 { return ns / n / 1e3 }

	res.Metrics = map[string]metric{
		"engine.chunk_ns_per_item":          {pr.chunkNsPerItem, "ns/item"},
		"engine.materialize_ms":             {pr.materializeMs, "ms"},
		"engine.cgm_ms":                     {pr.cgmMs, "ms"},
		"workload.assign_ns":                {pr.assignNs, "ns"},
		"service.handler_us":                {us(float64(lt.dur[kindHandler])), "us"},
		"service.write_us":                  {us(float64(lt.writes[kindHandler])), "us"},
		"service.self_us":                   {us(float64(lt.self[kindHandler]) - replay*n), "us"},
		"service.served_ns_per_item":        {float64(lt.dur[kindHandler]) / n / float64(s.info.items), "ns/item"},
		"service.cache_hit_ratio":           {hits / max(hits+misses, 1), "ratio"},
		"service.cache_lookups":             {hits + misses, "count"},
		"service.materializations_per_kreq": {perK("permd_materializations_total"), "1/kreq"},
		"service.evictions_per_kreq":        {perK("permd_handle_cache_evictions_total"), "1/kreq"},
		"service.admission_queue_waits":     {all["permd_admission_queue_waits_total"], "count"},
		"service.quota_throttled":           {all["permd_quota_throttled_total"], "count"},
		"cluster.round1_ms":                 {ms(cl.dur[kindRound1], cl.reqs), "ms"},
		"cluster.round2_ms":                 {ms(cl.dur[kindRound2], cl.reqs), "ms"},
		"cluster.round3_ms":                 {ms(cl.dur[kindRound3], cl.reqs), "ms"},
		"cluster.exchange_serve_ms":         {ms(cl.dur[kindExchange], cl.reqs), "ms"},
		"cluster.proxy_serve_ms":            {ms(cl.dur[kindProxy], cl.reqs), "ms"},
		"cluster.exchange_items_per_pull":   {clItems / float64(cl.reqs), "items"},
		"transport.us_per_req":              {us(float64(lt.self[kindClient])), "us"},
		"runtime.alloc_bytes_per_item":      {float64(m1.TotalAlloc-m0.TotalAlloc) / float64(max(qs.values, 1)), "B/item"},
		"runtime.gc_cycles_per_s":           {float64(m1.NumGC-m0.NumGC) / (window / 2).Seconds(), "1/s"},
		"client.req_tail_us":                {float64(qs.tail) / 1e3, "us"},
		"client.req_tail_pctl":              {qs.tailQ, "pctl"},
		"client.requests":                   {float64(qs.requests), "count"},
		"trace.overhead_pct":                {(qs.itemsPerS - ts.itemsPerS) / qs.itemsPerS * 100, "%"},
		"events.dropped":                    {float64(dropped), "count"},
	}
	fmt.Fprintf(out, "self time per request, traced half (%d requests):\n", lt.reqs)
	printSelfTimes(out, lt, replay)
	if !ownPulls {
		fmt.Fprintf(out, "self time per pull, cluster probe (%d pulls):\n", cl.reqs)
		printSelfTimes(out, cl, 0)
	}
	printMetrics(out, res.Metrics)
	fmt.Fprintf(out, "  ops %d, failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

// engineReplayNs is the in-process engine (and workload-layer) time of
// one request, from the probes: what service.self_us takes out of the
// handler's self time. Cluster pulls have their engine work in the span
// tree already.
func engineReplayNs(w workload, pr probes, materializationsPerReq float64) float64 {
	switch w.(type) {
	case *chunkWarm:
		return pr.chunkNsPerItem * page
	case *assignLookup:
		return pr.assignNs
	case *buildChurn:
		return pr.copyNsPerItem*page + pr.materializeMs*1e6*materializationsPerReq
	}
	return 0
}

// probeResult is a cluster probe's traced pulls and their checks.
type probeResult struct {
	lt            layerTimes
	exchangeItems float64 // exchange items shipped across the traced pulls
	dropped       int64
	res           result
}

// clusterProbe measures the cluster layer for workloads that do not
// reach it: a short traced run of cluster-cold pulls on its own stack.
func clusterProbe(seed uint64) (probeResult, error) {
	tr := newTracer()
	s, err := startRig(newClusterCold(seed), tr)
	if err != nil {
		return probeResult{}, err
	}
	defer s.close()
	s.drive(0) // one warm-up pull
	_, ct, dropped, err := s.tracedWindow(500 * time.Millisecond)
	if err != nil {
		return probeResult{}, err
	}
	s.close()
	res, err := check(s)
	if err != nil {
		return probeResult{}, err
	}
	return probeResult{sumLayers(tr.spans), ct["permd_cluster_exchange_items_total"], dropped, res}, nil
}

// probes are the in-process layer measurements of a traced run.
type probes struct {
	chunkNsPerItem float64 // Permuter.Chunk, bijective, chunk-warm's pages
	materializeMs  float64 // Permuter.Materialize, shmem n=2^20, build-churn's first seeds
	copyNsPerItem  float64 // Permuter.Chunk on those materialized handles
	cgmMs          float64 // ParallelShuffle, BackendCluster n=10^6, cluster-cold's first seeds
	assignNs       float64 // length-1 Chunk + Spec.Find, assign-lookup's ids
}

// runProbes times each in-process layer call several times and keeps
// the mean of the fastest eighth, for the reason measure does: the host
// only ever slows a call down.
func runProbes(seed uint64) (probes, error) {
	var pr probes
	buf := make([]int64, page)
	timed := func(fn func() error) (int64, error) {
		began := time.Now()
		err := fn()
		return time.Since(began).Nanoseconds(), err
	}

	cw := newChunkWarm(seed)
	pm, err := randperm.NewPermuter(chunkWarmN, randperm.Options{Procs: procs, Seed: cw.seed, Backend: randperm.BackendBijective})
	if err != nil {
		return pr, err
	}
	var chunkNs []int64
	for _, start := range cw.starts[:64] {
		ns, err := timed(func() error { _, err := pm.Chunk(buf, start); return err })
		if err != nil {
			return pr, err
		}
		chunkNs = append(chunkNs, ns)
	}
	pr.chunkNsPerItem = fastMean(chunkNs) / page

	const builds = 8
	bc := newBuildChurn(seed)
	var matNs, copyNs []int64
	for range builds {
		pm, err := randperm.NewPermuter(churnN, randperm.Options{Procs: procs, Seed: bc.seeds.Uint64(), Backend: randperm.BackendSharedMem})
		if err != nil {
			return pr, err
		}
		mat, err := timed(pm.Materialize)
		if err != nil {
			return pr, err
		}
		cp, err := timed(func() error {
			for start := int64(0); start < churnN; start += page {
				if _, err := pm.Chunk(buf, start); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return pr, err
		}
		matNs, copyNs = append(matNs, mat), append(copyNs, cp)
	}
	pr.materializeMs = fastMean(matNs) / 1e6
	pr.copyNsPerItem = fastMean(copyNs) / churnN

	cc := newClusterCold(seed)
	var shuffle clusterShuffle
	var cgmNs []int64
	for range builds {
		seed := cc.seeds.Uint64()
		ns, err := timed(func() error { _, err := shuffle.run(seed); return err })
		if err != nil {
			return pr, err
		}
		cgmNs = append(cgmNs, ns)
	}
	pr.cgmMs = fastMean(cgmNs) / 1e6

	al := newAssignLookup(seed)
	pm, err = randperm.NewPermuter(assignN, randperm.Options{Procs: procs, Seed: al.seed, Backend: randperm.BackendBijective})
	if err != nil {
		return pr, err
	}
	const batch = 256
	var assignNs []int64
	for i := 0; i < 1<<14; i += batch {
		ns, err := timed(func() error {
			for _, id := range al.ids[i : i+batch] {
				if _, err := al.bucket(pm, id); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return pr, err
		}
		assignNs = append(assignNs, ns)
	}
	pr.assignNs = fastMean(assignNs) / batch
	return pr, nil
}

// printSelfTimes prints where a request's time went, layer by layer; the
// rows add up to the client's time.
func printSelfTimes(out io.Writer, lt layerTimes, replayNs float64) {
	n := float64(lt.reqs)
	rows := []struct {
		name string
		ns   float64
	}{
		{"transport", float64(lt.self[kindClient])},
		{"service.self", float64(lt.self[kindHandler]) - replayNs*n},
		{"engine (replayed in-process)", replayNs * n},
		{"service.write", float64(lt.writes[kindHandler])},
		{"cluster.round1", float64(lt.self[kindRound1])},
		{"cluster.round2", float64(lt.self[kindRound2])},
		{"cluster.round3", float64(lt.self[kindRound3])},
		{"cluster.exchange", float64(lt.self[kindExchange])},
		{"cluster.exchange.write", float64(lt.writes[kindExchange])},
		{"cluster.proxy", float64(lt.self[kindProxy])},
		{"cluster.proxy.write", float64(lt.writes[kindProxy])},
	}
	var sum float64
	for _, r := range rows {
		if r.ns == 0 {
			continue
		}
		sum += r.ns
		fmt.Fprintf(out, "  %-30s %12.3f us %6.1f%%\n", r.name, r.ns/n/1e3, 100*r.ns/float64(lt.client))
	}
	fmt.Fprintf(out, "  %-30s %12.3f us (client %.3f us)\n", "sum", sum/n/1e3, float64(lt.client)/n/1e3)
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
