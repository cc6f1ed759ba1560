package main

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"strconv"

	"randperm"
	"randperm/internal/service"
	assign "randperm/internal/workload"
)

// procs is the decomposition width every server and every in-process
// oracle uses; the determinism contract needs both sides to agree on it.
const procs = 8

const page = 1 << 16 // values per chunk request

// request is one generated operation. seed and arg identify it to the
// oracle: arg is the chunk start for the chunk paths and the user id for
// /v1/assign, and unused for cluster pulls.
type request struct {
	path   string
	seed   uint64
	arg    int64
	fresh  bool // names a seed the server has never been asked for
	verify bool // checked by the oracle; only cluster-cold skips some
}

// workloadInfo is the fixed shape of a workload.
type workloadInfo struct {
	conns int   // closed-loop client connections
	items int64 // values one request returns
	// clientHeader: each connection names itself in X-Permd-Client,
	// the identity the per-client quota meters.
	clientHeader bool
}

// A workload is one traffic mix. Its inputs come only from the seed it
// was built with, so the same seed gives the same requests.
type workload interface {
	info() workloadInfo
	// configs returns one service.Config per node; the peer list of a
	// cluster is filled in at boot.
	configs() []service.Config
	// next returns connection c's next request. Each connection calls
	// next from one goroutine.
	next(c int) request
	// oracle returns a function that recomputes in-process the CRC-32C
	// of the correct body for (seed, arg). Each function has its own
	// state, so several can run at once; each is called in (seed, arg)
	// order, so caching the last seed's handle is enough.
	oracle() func(seed uint64, arg int64) (uint32, error)
}

var workloadNames = []string{"chunk-warm", "assign-lookup", "build-churn", "cluster-cold"}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "chunk-warm":
		return newChunkWarm(seed), nil
	case "assign-lookup":
		return newAssignLookup(seed), nil
	case "build-churn":
		return newBuildChurn(seed), nil
	case "cluster-cold":
		return newClusterCold(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// rngs returns k generators derived from seed and a per-workload stream
// tag, so workloads never share a sequence.
func rngs(seed uint64, tag uint64, k int) []*rand.Rand {
	out := make([]*rand.Rand, k)
	for i := range out {
		out[i] = rand.New(rand.NewPCG(seed, tag<<8|uint64(i)))
	}
	return out
}

// freshShare: one request in freshShare names a never-seen seed on the
// workloads built around one warm handle, so fresh_req_p50_us has
// samples there too without turning the mix cold.
const freshShare = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// valuesCRC is the CRC-32C of vals written the way permd writes a chunk:
// one decimal per line.
func valuesCRC(vals []int64) uint32 {
	var crc uint32
	buf := make([]byte, 0, 1<<16)
	for _, v := range vals {
		buf = strconv.AppendInt(buf, v, 10)
		buf = append(buf, '\n')
		if len(buf) > 1<<16-32 {
			crc = crc32.Update(crc, castagnoli, buf)
			buf = buf[:0]
		}
	}
	return crc32.Update(crc, castagnoli, buf)
}

// handleCache keeps the oracle's last Permuter, keyed by seed.
type handleCache struct {
	n       int64
	backend randperm.Backend
	seed    uint64
	pm      *randperm.Permuter
}

func (h *handleCache) get(seed uint64) (*randperm.Permuter, error) {
	if h.pm == nil || h.seed != seed {
		pm, err := randperm.NewPermuter(h.n, randperm.Options{Procs: procs, Seed: seed, Backend: h.backend})
		if err != nil {
			return nil, err
		}
		h.pm, h.seed = pm, seed
	}
	return h.pm, nil
}

// chunkOracle recomputes a chunk request's page through Permuter.Chunk.
func chunkOracle(n int64, backend randperm.Backend) func(seed uint64, start int64) (uint32, error) {
	h := handleCache{n: n, backend: backend}
	buf := make([]int64, page)
	return func(seed uint64, start int64) (uint32, error) {
		pm, err := h.get(seed)
		if err != nil {
			return 0, err
		}
		m, err := pm.Chunk(buf, start)
		if err != nil {
			return 0, err
		}
		return valuesCRC(buf[:m]), nil
	}
}

// chunkWarm: GET /v1/perm/{seed}/chunk on one bijective handle over
// n = 2^40, page-aligned starts drawn from a fixed pool, so the handle is
// cached and a request is engine + encode + write; one in freshShare
// names a fresh seed instead.
type chunkWarm struct {
	seed   uint64
	starts []int64 // the page pool
	rng    []*rand.Rand
}

const chunkWarmN = 1 << 40

func newChunkWarm(seed uint64) *chunkWarm {
	r := rngs(seed, 1, 3)
	w := &chunkWarm{seed: r[0].Uint64(), rng: r[1:]}
	w.starts = make([]int64, 256)
	for i := range w.starts {
		w.starts[i] = r[0].Int64N(chunkWarmN/page) * page
	}
	return w
}

func (w *chunkWarm) info() workloadInfo {
	return workloadInfo{conns: 2, items: page}
}

func (w *chunkWarm) configs() []service.Config { return []service.Config{{}} }

func (w *chunkWarm) next(c int) request {
	seed := w.seed
	fresh := w.rng[c].IntN(freshShare) == 0
	if fresh {
		seed = w.rng[c].Uint64()
	}
	start := w.starts[w.rng[c].IntN(len(w.starts))]
	return request{
		path:   fmt.Sprintf("/v1/perm/%d/chunk?n=%d&start=%d&len=%d", seed, int64(chunkWarmN), start, page),
		seed:   seed,
		arg:    start,
		fresh:  fresh,
		verify: true,
	}
}

func (w *chunkWarm) oracle() func(uint64, int64) (uint32, error) {
	return chunkOracle(chunkWarmN, randperm.BackendBijective)
}

// assignLookup: GET /v1/assign over n = 2^40 with a two-arm spec, ids
// drawn from a fixed pool, one experiment seed but one lookup in
// freshShare on a fresh one, quota metering on with a budget no run can
// exhaust. Nearly all of the cost is per-request overhead.
type assignLookup struct {
	seed uint64
	ids  []int64
	rng  []*rand.Rand
	spec *assign.Spec
}

const (
	assignN    = 1 << 40
	assignSpec = "control:9,treat:1"
)

func newAssignLookup(seed uint64) *assignLookup {
	r := rngs(seed, 2, 3)
	spec, err := assign.ParseAssignSpec(assignSpec)
	if err != nil {
		panic(err) // a constant spec
	}
	w := &assignLookup{seed: r[0].Uint64(), rng: r[1:], spec: spec}
	w.ids = make([]int64, 1<<16)
	for i := range w.ids {
		w.ids[i] = r[0].Int64N(assignN)
	}
	return w
}

func (w *assignLookup) info() workloadInfo {
	return workloadInfo{conns: 2, items: 1, clientHeader: true}
}

func (w *assignLookup) configs() []service.Config {
	return []service.Config{{Quota: service.QuotaConfig{Default: service.QuotaSpec{Rate: 1e12, Burst: 1 << 60}}}}
}

func (w *assignLookup) next(c int) request {
	seed := w.seed
	fresh := w.rng[c].IntN(freshShare) == 0
	if fresh {
		seed = w.rng[c].Uint64()
	}
	id := w.ids[w.rng[c].IntN(len(w.ids))]
	return request{
		path:   fmt.Sprintf("/v1/assign?seed=%d&n=%d&id=%d&spec=%s", seed, int64(assignN), id, assignSpec),
		seed:   seed,
		arg:    id,
		fresh:  fresh,
		verify: true,
	}
}

// bucket is the library's answer for one lookup: the parsed spec's Find
// on the bijection's image of id.
func (w *assignLookup) bucket(pm *randperm.Permuter, id int64) (string, error) {
	var one [1]int64
	if _, err := pm.Chunk(one[:], id); err != nil {
		return "", err
	}
	_, name := w.spec.Find(assignN, one[0])
	return name, nil
}

func (w *assignLookup) oracle() func(uint64, int64) (uint32, error) {
	h := handleCache{n: assignN, backend: randperm.BackendBijective}
	return func(seed uint64, id int64) (uint32, error) {
		pm, err := h.get(seed)
		if err != nil {
			return 0, err
		}
		name, err := w.bucket(pm, id)
		if err != nil {
			return 0, err
		}
		return crc32.Checksum([]byte(name+"\n"), castagnoli), nil
	}
}

// buildChurn: shmem chunks over n = 2^20 where one request in eight
// names a fresh seed and the rest revisit one of the last churnWindow
// seeds, against a handle cache of churnHandles. About a quarter of the
// requests miss and pay a materialization through the admission gate:
// the fresh eighth, and revisits of a seed the fresh ones pushed out.
//
// The cache is a quarter of the default 64 handles: at 8 MiB per
// materialized handle the default would hold half a GiB. At this miss
// share the median is the hits' 65th percentile; with a third missing
// it was their 77th, near the top of the hit mode. One connection: a
// build takes both CPUs, so with two a hit ran at full or half speed
// depending on whether the other connection was building, and the
// median flipped between those two modes from run to run.
type buildChurn struct {
	seeds  *rand.Rand // fresh seeds, in order
	pick   *rand.Rand
	recent []uint64
}

const (
	churnN       = 1 << 20
	churnHandles = 16
	churnWindow  = 16
)

func newBuildChurn(seed uint64) *buildChurn {
	r := rngs(seed, 3, 2)
	return &buildChurn{seeds: r[0], pick: r[1]}
}

func (w *buildChurn) info() workloadInfo { return workloadInfo{conns: 1, items: page} }

func (w *buildChurn) configs() []service.Config {
	return []service.Config{{MaxHandles: churnHandles}}
}

func (w *buildChurn) next(int) request {
	fresh := len(w.recent) == 0 || w.pick.IntN(8) == 0
	var seed uint64
	if fresh {
		seed = w.seeds.Uint64()
		w.recent = append(w.recent, seed)
		if len(w.recent) > churnWindow {
			w.recent = w.recent[1:]
		}
	} else {
		seed = w.recent[w.pick.IntN(len(w.recent))]
	}
	start := w.pick.Int64N(churnN/page) * page
	return request{
		path:   fmt.Sprintf("/v1/perm/%d/chunk?n=%d&start=%d&len=%d&backend=shmem", seed, churnN, start, page),
		seed:   seed,
		arg:    start,
		fresh:  fresh,
		verify: true,
	}
}

func (w *buildChurn) oracle() func(uint64, int64) (uint32, error) {
	return chunkOracle(churnN, randperm.BackendSharedMem)
}

// clusterCold: one client pulls all n = 10^6 values of a fresh seed
// from node 0 of a two-node cluster: the paper's three rounds over
// HTTP, the proxy hop to node 1, and atomic assembly, on every pull.
type clusterCold struct {
	seeds *rand.Rand
	pulls int
}

const clusterN = 1_000_000

func newClusterCold(seed uint64) *clusterCold {
	return &clusterCold{seeds: rngs(seed, 4, 1)[0]}
}

func (w *clusterCold) info() workloadInfo { return workloadInfo{conns: 1, items: clusterN} }

// configs: MaxHandles 8 also caps each node's shard cache; every pull
// names a new seed, so a larger cache would only hold dead shards.
func (w *clusterCold) configs() []service.Config {
	cfg := service.Config{Procs: procs, ClusterReplicas: 1, MaxHandles: 8}
	return []service.Config{cfg, cfg}
}

// next verifies every fourth pull, fixed by the pull's position in the
// sequence and so chosen before the run.
func (w *clusterCold) next(int) request {
	seed := w.seeds.Uint64()
	verify := w.pulls%4 == 0
	w.pulls++
	return request{
		path:   fmt.Sprintf("/v1/perm/%d/chunk?n=%d&len=%d&backend=cluster", seed, clusterN, clusterN),
		seed:   seed,
		fresh:  true,
		verify: verify,
	}
}

// oracle runs the single-process BackendCluster permutation, which the
// cluster serves byte for byte.
func (w *clusterCold) oracle() func(uint64, int64) (uint32, error) {
	var shuffle clusterShuffle
	return func(seed uint64, _ int64) (uint32, error) {
		out, err := shuffle.run(seed)
		if err != nil {
			return 0, err
		}
		return valuesCRC(out), nil
	}
}

// clusterShuffle permutes the identity of [0, clusterN) on
// BackendCluster, reusing the identity between calls.
type clusterShuffle struct{ ident []int64 }

func (c *clusterShuffle) run(seed uint64) ([]int64, error) {
	if c.ident == nil {
		c.ident = make([]int64, clusterN)
		for i := range c.ident {
			c.ident[i] = int64(i)
		}
	}
	out, _, err := randperm.ParallelShuffle(c.ident, randperm.Options{Procs: procs, Seed: seed, Backend: randperm.BackendCluster})
	return out, err
}
