package service

import (
	"net/http"
	"strconv"

	"randperm"
	"randperm/internal/query"
	"randperm/internal/workload"
)

// The first-class workload endpoints: deterministic experiment
// assignment and ML-style epoch shuffling, both riding the bijective
// backend's O(1) Index through the same handle cache, quota metering
// and metrics as the core /v1/perm API.
//
//	GET /v1/assign?seed=&n=&id=&spec=      the bucket of (experiment-seed, user-id)
//	GET /v1/epochs?seed=&n=&epoch=&mode=&start=&len=   a chunk of epoch e's permutation
//
// Determinism contracts (ARCHITECTURE.md): the bucket is a pure
// function of (seed, spec, id, n); epoch bytes are a pure function of
// (seed, n, epoch, mode). Neither depends on Procs, node, worker
// count, chunk boundaries, or request order.

// maxEpochers bounds the per-(seed, mode) key-derivation memos the
// server keeps, least recently used evicted first. Eviction only
// forgets derivations: keys are pure functions of (seed, epoch, mode)
// and are re-derived on next touch.
const maxEpochers = 64

type epocherKey struct {
	seed uint64
	mode workload.EpochMode
}

// epocher returns the (cached) key deriver for (seed, mode).
func (s *Server) epocher(seed uint64, mode workload.EpochMode) *workload.Epocher {
	e, _, _ := s.epochers.Get(epocherKey{seed: seed, mode: mode}, func() (*workload.Epocher, error) {
		return workload.NewEpocher(seed, mode), nil
	})
	return e
}

// bijectiveOnly is the workload endpoints' refusal of a backend other
// than bijective, given the endpoint and the backend: they are defined
// on the keyed bijection (the O(1) Index is what makes an assignment a
// point lookup and an epoch a pure function of its key), so such a
// request is refused rather than silently served from a different law.
const bijectiveOnly = "%s requires the bijective backend (got %s): it is defined on the keyed bijection's O(1) Index"

// handleAssign serves GET /v1/assign?seed=&n=&id=&spec= — the
// experiment bucket of user id under experiment seed. The spec
// ("control:9,treat:1") partitions [0, n) into contiguous ranges with
// exact integer apportionment; the id's image under the keyed
// bijection picks the range. Exactness by construction: the bijection
// maps [0, n) onto itself, so bucket b receives exactly its range's
// worth of ids — and the lookup is O(1) in n (one Feistel evaluation,
// nothing materialized, served through the same handle cache as
// /v1/perm). The response body is the bucket name; the Permd-Bucket
// header carries its index in the spec.
func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	rd := query.New(r.URL.Query())
	seed := rd.Seed("seed")
	n := rd.Int("n", -1)
	rd.Check(n > 0, "missing or non-positive n: the id-domain size n is required")
	spec, err := workload.ParseAssignSpec(rd.Get("spec"))
	rd.Check(err == nil, "bad spec: %v", err)
	backend := backendQuery(rd, randperm.BackendBijective)
	rd.Check(backend == randperm.BackendBijective, bijectiveOnly, "/v1/assign", backend)
	id := rd.Index("id", n)
	if s.refused(w, rd) || !s.admitItems(w, r, 1) {
		return
	}
	e, ok := s.resolve(w, r, handleKey{n: n, seed: seed, backend: randperm.BackendBijective})
	if !ok {
		return
	}
	var one [1]int64
	if _, err := e.pm.Chunk(one[:], id); err != nil {
		s.httpError(w, http.StatusInternalServerError, "evaluating bijection: %v", err)
		return
	}
	idx, name := spec.Find(n, one[0])
	w.Header().Set("Permd-Bucket", strconv.Itoa(idx))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := w.Write([]byte(name + "\n")); err != nil {
		return // client went away: nothing was delivered, nothing counted
	}
	s.met.assignLookups.Add(1)
	recordOf(r).Items = 1
}

// handleEpochs serves GET /v1/epochs?seed=&n=&epoch=&mode=&start=&len= —
// the values π_e(start) .. π_e(start+len-1) of epoch e's permutation of
// dataset (seed, n), one decimal per line, paged exactly like
// /v1/perm/{seed}/chunk. The per-epoch bijection key is derived from
// the dataset seed by the selected mode: "fresh" (default) separates
// epochs by 2^192-step LongJumps, "recycled" evolves one stream so
// epoch e+1's key comes from epoch e's stream state (Ito & Kikuchi).
// The derived key is echoed in the Permd-Epoch-Key header, which is
// how CI cross-checks the served bytes against the library.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	rd := query.New(r.URL.Query())
	seed := rd.Seed("seed")
	n := rd.Int("n", -1)
	rd.Check(n >= 0, "missing or negative n: the dataset size n is required")
	epoch := rd.Offset("epoch", s.cfg.MaxEpoch)
	mode, err := workload.ParseEpochMode(rd.Get("mode"))
	rd.Check(err == nil, "%v", err)
	backend := backendQuery(rd, randperm.BackendBijective)
	rd.Check(backend == randperm.BackendBijective, bijectiveOnly, "/v1/epochs", backend)
	start, length := s.rangeQuery(rd, n)
	if s.refused(w, rd) || !s.admitItems(w, r, max(length, 1)) {
		return
	}
	key := s.epocher(seed, mode).Key(epoch)
	e, ok := s.resolve(w, r, handleKey{n: n, seed: key, backend: randperm.BackendBijective})
	if !ok {
		return
	}
	w.Header().Set("Permd-Epoch-Key", strconv.FormatUint(key, 10))
	w.Header().Set("Permd-Epoch-Mode", mode.String())
	if s.serveRange(w, r, e.pm, start, length, s.met.epochs) && mode == workload.EpochRecycled {
		s.met.epochRecycled.Add(1)
	}
}
