package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"randperm"
	"randperm/internal/events"
	"randperm/internal/metrics"
)

// The materialization admission gate: at most Config.MaxBuilds n-word
// handle builds run concurrently, excess requests queue up to
// Config.BuildWait (then 503 with a Retry-After), and a build whose
// every interested client has disconnected is canceled mid-flight
// through Permuter.MaterializeContext and the engine worker pools —
// the engine's goroutines stop claiming tasks, the half-built
// permutation is dropped, and the handle re-arms for the next request.
//
// The gate exists because a materializing build is one of the two
// costs a request can trigger that grow with n: chunk serving streams
// through O(MaxChunk) buffers and the quota layer bounds items served,
// but a cold handle on sim/shmem/inplace/cluster costs O(n) work and 4n
// to 16n bytes the moment it is touched. Without the gate, a burst of
// cold keys turns into an unbounded number of concurrent n-word builds
// racing for the same cores. The other is /v1/sample, whose draw holds
// an 8n-byte identity: it takes a slot straight from acquireBuildSlot
// for as long as it runs, and is refused 503 like a queued build.

// errBuildQueueFull is the admission refusal: the build-queue deadline
// passed with every build slot still occupied. Served as 503 with a
// Retry-After so well-behaved clients (permclient) back off.
var errBuildQueueFull = errors.New("materialization queue full: every build slot stayed busy past the queue deadline")

// buildAttempt is one shared run of a handle's lazy build. Waiters join
// it instead of racing Permuter's own sync.Once directly so the attempt
// can be abandoned: each waiter that disconnects decrements the count,
// and the last one out cancels the engine work.
type buildAttempt struct {
	admitted chan struct{} // closed once the attempt holds a build slot
	done     chan struct{} // closed when the attempt completes
	err      error         // valid after done is closed
	waiters  int
	cancel   context.CancelFunc
}

// buildGate is the per-cache-entry controller. The zero value is ready;
// cur is nil whenever no attempt is in flight.
type buildGate struct {
	mu  sync.Mutex
	cur *buildAttempt
}

// ensureMaterialized forces e's handle through its lazy build under the
// admission gate, returning once the permutation is resident (nil), the
// client gave up (its ctx.Err()), or the build could not be admitted
// (errBuildQueueFull) or failed. Bijective handles short-circuit: they
// never materialize and never occupy a build slot. Safe for concurrent
// use; racing requests for one handle share one build and one queue
// slot, and a request that arrives just as the previous waiters
// abandoned their build simply starts (and governs) a fresh one.
//
// onAdmit, when non-nil, runs on the calling goroutine once the build
// this request waits on holds a build slot — the moment the gate has
// committed to the build — so a caller can start work that must not
// begin while the request is merely queued, such as a cluster read's
// peer fetches. It may run once per build attempt joined, or not at
// all (the handle was resident, or the attempt finished before the
// admission was observed), so callers must make it idempotent and
// start the same work themselves after a nil return.
func (s *Server) ensureMaterialized(ctx context.Context, e *handleEntry, onAdmit func()) error {
	if e.key.backend == randperm.BackendBijective {
		return nil
	}
	for {
		if e.pm.Materialized() {
			return nil
		}
		err := s.joinBuild(ctx, e, onAdmit)
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			// The client itself is gone; nothing left to serve.
			return ctx.Err()
		case errors.Is(err, context.Canceled):
			// The attempt this request was waiting on was abandoned by
			// the clients that started it (all waiters left before we
			// joined, or the cache raced). The handle re-armed itself,
			// so retry with this request as the new owner.
			continue
		default:
			return err
		}
	}
}

// joinBuild waits on (starting if necessary) the entry's in-flight
// build attempt, calling onAdmit (if non-nil) when the attempt is
// admitted.
func (s *Server) joinBuild(ctx context.Context, e *handleEntry, onAdmit func()) error {
	g := &e.gate
	g.mu.Lock()
	a := g.cur
	if a == nil {
		bctx, cancel := context.WithCancel(context.Background())
		a = &buildAttempt{admitted: make(chan struct{}), done: make(chan struct{}), cancel: cancel}
		g.cur = a
		go s.runBuild(a, e, bctx)
	}
	a.waiters++
	g.mu.Unlock()

	var admitted <-chan struct{} // nil (never ready) once observed
	if onAdmit != nil {
		admitted = a.admitted
	}
	for {
		select {
		case <-admitted:
			admitted = nil
			onAdmit()
		case <-a.done:
			return a.err
		case <-ctx.Done():
			g.mu.Lock()
			a.waiters--
			if a.waiters == 0 {
				// Last interested client gone: abort the engine work.
				a.cancel()
			}
			g.mu.Unlock()
			return ctx.Err()
		}
	}
}

// runBuild is the attempt body: acquire a build slot (queueing up to
// BuildWait), record the admission and announce it to the waiters, run
// the handle's materialization under the attempt context, release, and
// publish the result. It runs in its own goroutine so that no single
// request's lifetime governs the build — only the waiter refcount does.
func (s *Server) runBuild(a *buildAttempt, e *handleEntry, bctx context.Context) {
	defer a.cancel()
	queued, err := s.acquireBuildSlot(bctx)
	s.admission(e.key, queued, err)
	if err == nil {
		close(a.admitted)
		s.met.admissionInflight.Add(1)
		err = e.pm.MaterializeContext(bctx)
		s.met.admissionInflight.Add(-1)
		<-s.buildSem
		if err != nil && bctx.Err() != nil {
			s.met.admissionCancels.Add(1)
		}
	}
	g := &e.gate
	g.mu.Lock()
	a.err = err
	g.cur = nil
	close(a.done)
	g.mu.Unlock()
}

// acquireBuildSlot takes one slot of the bounded build semaphore,
// queueing up to Config.BuildWait when all slots are busy. queued
// reports whether the caller had to wait for a busy slot (whatever the
// outcome).
func (s *Server) acquireBuildSlot(ctx context.Context) (queued bool, err error) {
	select {
	case s.buildSem <- struct{}{}:
		return false, nil
	default:
	}
	s.met.admissionQueued.Add(1)
	t := time.NewTimer(s.cfg.BuildWait)
	defer t.Stop()
	select {
	case s.buildSem <- struct{}{}:
		return true, nil
	case <-t.C:
		return true, errBuildQueueFull
	case <-ctx.Done():
		return true, ctx.Err()
	}
}

// admission records a build's gate resolution: one counter and one
// admission_queue event, whose Detail is "admitted" (free slot),
// "queued" (waited, then got one), "refused" (queue deadline, the 503
// path) or "abandoned" (every waiting client disconnected first).
func (s *Server) admission(key handleKey, queued bool, err error) {
	ev := keyEvent(events.TypeAdmissionQueue, key)
	var c *metrics.Value
	switch {
	case err == nil && !queued:
		c, ev.Detail = s.met.admissionBuilds, "admitted"
	case err == nil:
		c, ev.Detail = s.met.admissionBuilds, "queued"
	case errors.Is(err, errBuildQueueFull):
		c, ev.Detail = s.met.admissionTimeouts, "refused"
	default:
		ev.Detail = "abandoned"
	}
	s.publishCounted(c, ev)
}

// retryAfter is a Retry-After in whole seconds, rounded up and at
// least 1. A 503 queue refusal answers the queue deadline itself: by
// then at least one slot has turned over, or the daemon is genuinely
// saturated and the operator-facing metrics say so. A 429 answers the
// time the client's quota bucket needs to refill.
func retryAfter(wait time.Duration) int {
	return max(int((wait+time.Second-1)/time.Second), 1)
}
