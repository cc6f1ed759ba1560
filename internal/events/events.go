// Package events is permd's internal event bus: a typed, lock-light
// publish/subscribe fabric that every layer of the daemon feeds —
// handle materializations and cache evictions from the service layer,
// quota refusals and build admissions from the multi-tenant gates,
// round transitions and peer-health changes from the cluster — and that
// the live-operations surface (GET /v1/events, permtop) drains.
//
// The design constraint is the serving hot path: publishing must cost
// one short critical section and N non-blocking channel sends, no
// matter how slow the slowest subscriber is. Every subscriber owns a
// bounded buffered channel; a publish that finds a subscriber's buffer
// full drops the event for that subscriber and counts the drop — it
// never blocks, never allocates per subscriber, and never perturbs a
// byte served. Events are therefore best-effort by contract: the
// delivery guarantee is "at most once per subscriber, in publish
// order, with drops counted", and anything that needs exactness
// (billing, determinism) must come from the metrics counters or the
// responses themselves, never from this bus.
//
// For reconnecting consumers the bus keeps a bounded replay ring of
// the most recent events: a subscriber that presents the last sequence
// number it saw gets the missed suffix (up to the ring bound) replayed
// into its buffer before live delivery begins, with no duplicates and
// no gaps — the seam under the SSE endpoint's Last-Event-ID resume.
package events

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Type enumerates the event vocabulary. The wire names (see String)
// are part of the /v1/events contract: they appear in JSON payloads,
// in the ?types= filter grammar, and in permtop's timeline.
type Type uint8

const (
	// TypeRequest is one completed HTTP request: endpoint, duration,
	// items served, and the handle-cache outcome when one was touched.
	TypeRequest Type = iota
	// TypeMaterialization is one lazy full-permutation build completing
	// (the stream layer's OnMaterialize hook).
	TypeMaterialization
	// TypeCacheEvict is the handle LRU dropping its least-recently-used
	// entry past capacity.
	TypeCacheEvict
	// TypeSlowRequest is a request whose wall time exceeded the
	// server's slow threshold.
	TypeSlowRequest
	// TypeQuotaRefusal is a request refused with 429 by the per-client
	// quota.
	TypeQuotaRefusal
	// TypeAdmissionQueue is a materializing build resolving against the
	// admission gate: admitted straight in, admitted after queueing, or
	// refused at the queue deadline (see Event.Detail).
	TypeAdmissionQueue
	// TypeClusterRound is a cluster shard build completing one of the
	// paper's rounds (1 matrix, 2 exchange, 3 arrange), or a serving-
	// time replica read hedging or failing over (Detail says which).
	TypeClusterRound
	// TypePeerHealthChange is this node's view of a peer moving between
	// healthy, suspect and down.
	TypePeerHealthChange
	// TypeJoinResult is a geometry handshake resolving, served or
	// dialed (Detail "in"/"out", State "ok"/"mismatch"/"error").
	TypeJoinResult

	typeCount // sentinel; keep last
)

var typeNames = [typeCount]string{
	"request",
	"materialization",
	"cache_evict",
	"slow_request",
	"quota_refusal",
	"admission_queue",
	"cluster_round",
	"peer_health_change",
	"join_result",
}

// String returns the wire name of the type ("materialization",
// "cluster_round", ...).
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ParseType resolves a wire name back to its Type.
func ParseType(s string) (Type, error) {
	for i, name := range typeNames {
		if s == name {
			return Type(i), nil
		}
	}
	return 0, fmt.Errorf("events: unknown event type %q", s)
}

// MarshalJSON encodes the type as its wire name, which is what the SSE
// payloads and permtop consume.
func (t Type) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON decodes a wire name.
func (t *Type) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseType(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// Event is one bus occurrence. The struct is deliberately flat — one
// shape for every type, with fields unused by a type left at their
// zero (omitted from JSON) or sentinel (-1 for Peer/Round/Slot, which
// legitimately take the value 0) — so subscribers, the SSE stream and
// permtop handle every event with one decoder.
type Event struct {
	// Seq is the bus-assigned sequence number, strictly increasing from
	// 1, the Last-Event-ID currency of the SSE resume protocol.
	Seq uint64 `json:"seq"`
	// TimeNs is the publish wall time in Unix nanoseconds. Publishers
	// may pre-set it (fixtures do); zero is stamped by the bus.
	TimeNs int64 `json:"time_ns"`
	// Type selects which of the fields below are meaningful.
	Type Type `json:"type"`

	Endpoint string `json:"endpoint,omitempty"` // request path, e.g. "/v1/perm/42/chunk"
	Backend  string `json:"backend,omitempty"`  // backend name, when one was resolved
	Client   string `json:"client,omitempty"`   // quota identity (X-Permd-Client or host)
	N        int64  `json:"n,omitempty"`        // domain size
	Seed     uint64 `json:"seed,omitempty"`     // permutation seed
	Items    int64  `json:"items,omitempty"`    // items served / refused cost
	Ns       int64  `json:"ns,omitempty"`       // duration in nanoseconds
	Cache    string `json:"cache,omitempty"`    // "hit" or "miss" when a handle was resolved

	// Peer, Round and Slot use -1 (not 0) as "not applicable": peer 0,
	// round 0 (RoundServe) and slot 0 are all meaningful values. New
	// initializes them; they are always serialized.
	Peer  int `json:"peer"`  // subject peer index
	Round int `json:"round"` // cluster round (1 matrix, 2 exchange, 3 arrange; 0 serve-time)
	Slot  int `json:"slot"`  // shard slot under construction

	State  string `json:"state,omitempty"`  // new state (peer health, join outcome)
	Detail string `json:"detail,omitempty"` // free-form qualifier ("queued", "hedge_win", ...)
}

// New returns an Event of type t with the -1 sentinels applied. Always
// construct events through New so an unset Peer/Round/Slot reads as
// "not applicable" rather than as index 0.
func New(t Type) Event {
	return Event{Type: t, Peer: -1, Round: -1, Slot: -1}
}

// TypeSet is a bitmask filter over event types. The zero TypeSet
// matches nothing; All() matches everything.
type TypeSet uint16

// All returns the set matching every event type.
func All() TypeSet { return TypeSet(1<<typeCount) - 1 }

// With returns ts with t added.
func (ts TypeSet) With(t Type) TypeSet { return ts | 1<<t }

// Has reports whether t is in the set.
func (ts TypeSet) Has(t Type) bool { return ts&(1<<t) != 0 }

// String renders the set in the ?types= grammar: the wire names of its
// members, comma-separated, in declaration order. All() renders as ""
// (the grammar's "everything" spelling), so ParseFilter(ts.String())
// always reproduces ts.
func (ts TypeSet) String() string {
	if ts == All() {
		return ""
	}
	out := ""
	for t := Type(0); t < typeCount; t++ {
		if !ts.Has(t) {
			continue
		}
		if out != "" {
			out += ","
		}
		out += t.String()
	}
	return out
}

// ParseFilter parses the ?types= grammar: a comma-separated list of
// wire names (duplicates tolerated, empty elements rejected, no
// surrounding spaces). The empty string means every type. The accepted
// set round-trips through String.
func ParseFilter(s string) (TypeSet, error) {
	if s == "" {
		return All(), nil
	}
	var ts TypeSet
	for {
		name, rest, more := strings.Cut(s, ",")
		t, err := ParseType(name) // rejects "", so ",", "a,", ",a" all fail
		if err != nil {
			return 0, err
		}
		ts = ts.With(t)
		if !more {
			return ts, nil
		}
		s = rest
	}
}

// ErrSubscriberLimit is returned by Subscribe when the bus already has
// its configured maximum of live subscriptions. The SSE endpoint maps
// it onto 503.
var ErrSubscriberLimit = errors.New("events: subscriber limit reached")

// Options sizes a Bus. The zero value is usable; every field has a
// default applied by NewBus.
type Options struct {
	// Buffer is each subscription's channel capacity (default 256): the
	// backpressure bound. A subscriber that falls further behind than
	// this loses events (counted), never slows a publisher.
	Buffer int
	// Replay is the replay ring capacity (default 1024): how far back a
	// Last-Event-ID resume can reach.
	Replay int
	// MaxSubscribers caps live subscriptions (default 64).
	MaxSubscribers int
}

func (o Options) withDefaults() Options {
	if o.Buffer <= 0 {
		o.Buffer = 256
	}
	if o.Replay <= 0 {
		o.Replay = 1024
	}
	if o.MaxSubscribers <= 0 {
		o.MaxSubscribers = 64
	}
	return o
}

// Bus is the event fabric. Create one with NewBus; all methods are
// safe for concurrent use. A Bus with no subscribers costs a publisher
// one mutex acquisition and one ring write — cheap enough to leave
// permanently attached to the serving path (the non-perturbation
// benchmark in internal/service holds it to that).
type Bus struct {
	opt Options
	now func() time.Time // injectable for fixture-stable tests

	dropped atomic.Int64

	mu   sync.Mutex
	seq  uint64
	ring []Event // circular, indexed by (seq-1) % len
	subs map[*Subscription]struct{}
}

// NewBus builds a bus from opts (zero value fine).
func NewBus(opts Options) *Bus {
	opts = opts.withDefaults()
	return &Bus{
		opt:  opts,
		now:  time.Now,
		ring: make([]Event, opts.Replay),
		subs: make(map[*Subscription]struct{}),
	}
}

// SetClock replaces the bus's wall clock (tests and fixtures only).
// Must be called before the bus is shared.
func (b *Bus) SetClock(now func() time.Time) { b.now = now }

// Publish assigns ev the next sequence number (and a timestamp, when
// ev.TimeNs is zero), appends it to the replay ring, and offers it to
// every subscription whose filter matches. It never blocks: a full
// subscriber buffer drops the event for that subscriber and counts the
// drop. Returns the assigned sequence number.
func (b *Bus) Publish(ev Event) uint64 {
	if ev.TimeNs == 0 {
		ev.TimeNs = b.now().UnixNano()
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	b.ring[int((b.seq-1)%uint64(len(b.ring)))] = ev
	for sub := range b.subs {
		sub.offer(b, ev)
	}
	b.mu.Unlock()
	return ev.Seq
}

// Subscribe registers a new subscription filtered to types, replaying
// the events with sequence numbers in (afterSeq, head] that survive in
// the ring before live delivery begins — atomically, so no event
// published concurrently with the Subscribe is missed or duplicated.
// Pass LastSeq() for a live-only subscription, or the last sequence
// number previously seen to resume. Events older than the ring bound
// are gone; the replay then starts at the ring floor (the SSE consumer
// can detect the gap by comparing the first Seq it receives against
// its Last-Event-ID + 1). Returns ErrSubscriberLimit at capacity.
func (b *Bus) Subscribe(types TypeSet, afterSeq uint64) (*Subscription, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) >= b.opt.MaxSubscribers {
		return nil, ErrSubscriberLimit
	}
	sub := &Subscription{bus: b, types: types, ch: make(chan Event, b.opt.Buffer)}
	if afterSeq < b.seq {
		lo := afterSeq + 1
		if floor := b.ringFloor(); lo < floor {
			lo = floor
		}
		for s := lo; s <= b.seq; s++ {
			sub.offer(b, b.ring[int((s-1)%uint64(len(b.ring)))])
		}
	}
	b.subs[sub] = struct{}{}
	return sub, nil
}

// ringFloor returns the smallest sequence number still in the ring
// (callers hold b.mu). With no events published it returns 1 — an
// empty replay range.
func (b *Bus) ringFloor() uint64 {
	if b.seq <= uint64(len(b.ring)) {
		return 1
	}
	return b.seq - uint64(len(b.ring)) + 1
}

// LastSeq returns the most recently assigned sequence number (0 before
// the first publish) — the afterSeq for a live-only subscription.
func (b *Bus) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Published returns how many events have been published: the sequence
// number of the latest.
func (b *Bus) Published() int64 { return int64(b.LastSeq()) }

// Dropped returns how many event deliveries were dropped across all
// subscriptions since the bus was created (the permd_events_dropped_total
// figure). Deliveries, not events: one event dropped by two slow
// subscribers counts twice.
func (b *Bus) Dropped() int64 { return b.dropped.Load() }

// Subscribers returns the number of live subscriptions.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscription is one subscriber's bounded view of the bus. Receive
// from Events() until it closes; Close releases the slot.
type Subscription struct {
	bus     *Bus
	types   TypeSet
	ch      chan Event
	dropped atomic.Uint64
	closed  bool // guarded by bus.mu
}

// offer delivers ev to the subscription without blocking (callers hold
// bus.mu, which also orders offers against Close's channel close).
func (s *Subscription) offer(b *Bus, ev Event) {
	if !s.types.Has(ev.Type) {
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
		b.dropped.Add(1)
	}
}

// Events returns the delivery channel: events in publish order, with
// drops (counted by Dropped) where this subscriber fell behind. The
// channel closes after Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped returns how many events this subscription has lost to
// backpressure.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close unregisters the subscription and closes its channel. Safe to
// call more than once, and safe concurrently with Publish: delivery
// and close are ordered by the bus lock, so a publisher never sends on
// a closed channel.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(b.subs, s)
		close(s.ch)
	}
	b.mu.Unlock()
}
