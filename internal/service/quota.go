package service

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"randperm/internal/lru"
)

// The multi-tenant admission layer: per-client token buckets metered in
// items served. Every data-bearing endpoint pays — a chunk page costs
// its length, a point read costs 1, a shuffle costs its item count, a
// sample costs k — so one budget bounds a client's total work on the
// daemon no matter which endpoint mix it uses. An exhausted bucket
// answers 429 with a Retry-After computed from the bucket's own refill
// rate; the client SDK (permclient) honors it.
//
// Clients are identified by the X-Permd-Client request header when
// present, else by the remote address's host part. The header is
// cooperative, not authenticating: quotas here are capacity protection
// (one hot client must not starve the engine pool for everyone else),
// not a security boundary — see the "Quotas and admission control"
// runbook section of OPERATIONS.md.

// QuotaSpec is one client budget: a token bucket holding Burst items
// that refills at Rate items per second. Rate 0 with a positive Burst
// is a fixed, non-refilling budget (useful in drills and batch
// accounting); Burst <= 0 means unlimited.
type QuotaSpec struct {
	// Rate is the refill rate in items per second (>= 0).
	Rate float64
	// Burst is the bucket capacity in items; a request costing more
	// than Burst can never be admitted. Burst <= 0 disables metering
	// for the clients the spec applies to.
	Burst int64
}

// Unlimited reports whether the spec disables metering entirely.
func (q QuotaSpec) Unlimited() bool { return q.Burst <= 0 }

// String renders the spec in the flag syntax ParseQuotaSpec accepts.
func (q QuotaSpec) String() string {
	if q.Unlimited() {
		return "off"
	}
	return fmt.Sprintf("%g/s:%d", q.Rate, q.Burst)
}

// ParseQuotaSpec parses the -quota flag syntax:
//
//	off                  no metering ("", "off", "unlimited")
//	RATE/UNIT            e.g. "5000/s", "300000/m" — burst defaults to
//	                     one UNIT's worth of refill
//	RATE/UNIT:BURST      e.g. "5000/s:20000", "0/s:1280" (fixed budget)
//
// RATE is a non-negative decimal (floats allowed), UNIT is s, m or h,
// BURST a positive integer count of items. A zero RATE needs an
// explicit BURST: "0/s" would be a bucket that never holds a token.
func ParseQuotaSpec(s string) (QuotaSpec, error) {
	s = strings.TrimSpace(s)
	switch strings.ToLower(s) {
	case "", "off", "unlimited":
		return QuotaSpec{}, nil
	}
	rateStr, burstStr, hasBurst := strings.Cut(s, ":")
	rateStr, unit, hasUnit := strings.Cut(rateStr, "/")
	if !hasUnit {
		return QuotaSpec{}, fmt.Errorf("quota %q: want RATE/UNIT[:BURST], e.g. 5000/s:20000", s)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return QuotaSpec{}, fmt.Errorf("quota %q: bad rate %q: want a non-negative decimal", s, rateStr)
	}
	perSecond := rate
	switch unit {
	case "s":
	case "m":
		perSecond = rate / 60
	case "h":
		perSecond = rate / 3600
	default:
		return QuotaSpec{}, fmt.Errorf("quota %q: bad unit %q: want s, m or h", s, unit)
	}
	spec := QuotaSpec{Rate: perSecond}
	if hasBurst {
		b, err := strconv.ParseInt(burstStr, 10, 64)
		if err != nil || b <= 0 {
			return QuotaSpec{}, fmt.Errorf("quota %q: bad burst %q: want a positive integer", s, burstStr)
		}
		spec.Burst = b
	} else {
		// One unit's worth of refill, rounded up so "1/s" is usable.
		spec.Burst = int64(rate)
		if float64(spec.Burst) < rate {
			spec.Burst++
		}
	}
	if spec.Burst <= 0 {
		return QuotaSpec{}, fmt.Errorf("quota %q: zero rate needs an explicit burst (e.g. 0/s:1000)", s)
	}
	return spec, nil
}

// ParseQuotaOverrides parses the -quota-overrides flag syntax: a
// comma-separated list of CLIENT=SPEC pairs, each SPEC in the
// ParseQuotaSpec syntax, e.g. "etl=50000/s:200000,canary=off".
func ParseQuotaOverrides(s string) (map[string]QuotaSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	out := make(map[string]QuotaSpec)
	for _, pair := range strings.Split(s, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("quota override %q: want CLIENT=SPEC", pair)
		}
		q, err := ParseQuotaSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("quota override %q: %v", pair, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("quota override %q: client %q listed twice", s, name)
		}
		out[name] = q
	}
	return out, nil
}

// QuotaConfig is the admission layer's configuration: the default
// per-client budget, per-client overrides, and the bound on how many
// client buckets the daemon tracks.
type QuotaConfig struct {
	// Default is every unlisted client's budget. The zero value
	// (unlimited) together with empty Overrides disables the quota
	// layer entirely — the pre-quota permd behavior.
	Default QuotaSpec
	// Overrides maps client identities (X-Permd-Client values) to
	// budgets replacing Default, including "off" exemptions.
	Overrides map[string]QuotaSpec
	// MaxClients bounds the tracked-bucket LRU (default 4096). A
	// client evicted past the bound starts over with a full bucket, so
	// the bound is a memory cap, not a correctness boundary — size it
	// above the expected concurrent client count.
	MaxClients int
}

// Enabled reports whether any metering is configured.
func (c QuotaConfig) Enabled() bool { return !c.Default.Unlimited() || len(c.Overrides) > 0 }

// maxRetryAfter caps the Retry-After answered on exhaustion: a fixed
// budget (rate 0) or a request costing more than the burst can never be
// admitted by waiting, and an unbounded hint would just park clients
// forever. One hour is "come back after the operator intervened".
const maxRetryAfter = time.Hour

// quotas is the runtime state: one token bucket per active client, in
// an LRU bounded by MaxClients. All methods are safe for concurrent
// use; the lock is held only for the O(1) bucket update, never across
// any serving work.
type quotas struct {
	cfg QuotaConfig
	now func() time.Time // injectable clock for tests

	mu      sync.Mutex // makes each refill and debit one step
	buckets *lru.Cache[string, *bucket]
}

type bucket struct {
	spec   QuotaSpec
	tokens float64
	last   time.Time
}

func newQuotas(cfg QuotaConfig) *quotas {
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = 4096
	}
	return &quotas{
		cfg:     cfg,
		now:     time.Now,
		buckets: lru.New[string, *bucket](cfg.MaxClients, nil),
	}
}

// specFor resolves the budget a client identity is subject to.
func (q *quotas) specFor(key string) QuotaSpec {
	if s, ok := q.cfg.Overrides[key]; ok {
		return s
	}
	return q.cfg.Default
}

// take debits cost items from key's bucket. When the bucket cannot
// cover the cost it reports ok == false and how long the client should
// wait before the bucket's refill would cover it (capped at
// maxRetryAfter; nothing is debited on refusal).
func (q *quotas) take(key string, cost int64) (ok bool, retryAfter time.Duration) {
	spec := q.specFor(key)
	if spec.Unlimited() {
		return true, 0
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, _, _ := q.buckets.Get(key, func() (*bucket, error) {
		return &bucket{spec: spec, tokens: float64(spec.Burst), last: now}, nil
	})
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(float64(b.spec.Burst), b.tokens+dt*b.spec.Rate)
	}
	b.last = now
	if float64(cost) <= b.tokens {
		b.tokens -= float64(cost)
		return true, 0
	}
	missing := float64(cost) - b.tokens
	if b.spec.Rate <= 0 || cost > b.spec.Burst {
		return false, maxRetryAfter
	}
	wait := time.Duration(missing / b.spec.Rate * float64(time.Second))
	return false, min(max(wait, time.Second), maxRetryAfter)
}

// len reports how many client buckets are resident (the
// permd_quota_clients gauge).
func (q *quotas) len() int { return q.buckets.Len() }

// clientKey identifies the requesting client for quota accounting: the
// cooperative X-Permd-Client header when present, else the remote
// host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Permd-Client"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
