package main

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100, in
// steps of 0.1) of sorted and how many samples lie beyond it. It returns
// (0, 0) on an empty slice.
func percentile(sorted []int64, q float64) (value int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The rank ceil(q/100 * n) in integers: in floating point 99.9/100 *
	// 10000 rounds up past 9990.
	perMille := int(math.Round(q * 10))
	rank := (perMille*n + 999) / 1000
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tail returns the highest of tailPercentiles that still has at least ten
// samples beyond it, with its value. With fewer than eleven samples no
// candidate qualifies and it falls back to the median.
func tail(sorted []int64) (q float64, value int64) {
	for _, q := range tailPercentiles {
		if v, beyond := percentile(sorted, q); beyond >= 10 {
			return q, v
		}
	}
	v, _ := percentile(sorted, 50)
	return 50, v
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) and statistics.median
// compute them, so spreads printed here match an external check. One
// sample gives that sample three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	// The "exclusive" method: positions i*(n+1)/4, interpolated.
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), med, at(3)
}

// fastMean is the mean of the fastest eighth of ns (at least one).
func fastMean(ns []int64) float64 {
	s := slices.Clone(ns)
	slices.Sort(s)
	k := max(len(s)/fastShare, 1)
	var sum int64
	for _, v := range s[:k] {
		sum += v
	}
	return float64(sum) / float64(k)
}

// subWindows is how many equal parts a driven phase is cut into; the
// fastest fastShare of them are measured.
const (
	subWindows = 32
	fastShare  = 8
)

// reservoirCap bounds the latencies a part keeps per connection.
const reservoirCap = 1024

type latency struct {
	ns    int64 // math.MaxInt64 for a failed request: slower than any answer
	fresh bool
}

// reservoir keeps a uniform sample of at most reservoirCap of the
// latencies offered to it (Vitter's algorithm R), so its memory does not
// grow with the request count.
type reservoir []latency

func (r *reservoir) add(seen int, x latency, rng *rand.Rand) {
	if len(*r) < reservoirCap {
		*r = append(*r, x)
	} else if j := rng.IntN(seen); j < reservoirCap {
		(*r)[j] = x
	}
}

// partLog is one connection's log of a driven phase, cut into subWindows
// parts of equal length from the phase's start to its deadline. A request
// still in flight at the deadline keeps its latency in the last part; its
// values after the deadline are not counted.
type partLog struct {
	from, width float64 // µs since the rig started
	items       [subWindows]float64
	n, nFresh   [subWindows]int
	kept        [subWindows]reservoir
	values      int64 // values answered in the whole phase
}

// phase is what each connection logged while a phase was driven.
type phase []*partLog

func newPartLog(from float64, d time.Duration) *partLog {
	return &partLog{from: from, width: max(float64(d.Microseconds())/subWindows, 1)}
}

func (l *partLog) part(us float64) int {
	return min(max(int((us-l.from)/l.width), 0), subWindows-1)
}

// observe logs one request that ran from began to end, in µs since the
// rig started. Its values count toward the parts its lifetime overlaps,
// in proportion; its latency belongs to the part holding its midpoint.
// A failed request brings no values.
func (l *partLog) observe(began, end float64, ok, fresh bool, items int64, rng *rand.Rand) {
	x := latency{ns: math.MaxInt64, fresh: fresh}
	if ok {
		x.ns = int64((end - began) * 1e3)
		l.values += items
		for p := l.part(began); p < subWindows && end > began; p++ {
			lo := max(l.from+float64(p)*l.width, began)
			hi := min(l.from+float64(p+1)*l.width, end)
			if hi <= lo {
				break
			}
			l.items[p] += float64(items) * (hi - lo) / (end - began)
		}
	}
	p := l.part((began + end) / 2)
	l.n[p]++
	if fresh {
		l.nFresh[p]++
	}
	l.kept[p].add(l.n[p], x, rng)
}

// windowStats are the end-to-end numbers of one driven phase.
type windowStats struct {
	itemsPerS     float64 // over the fast parts
	p50, freshP50 int64   // ns, over the latencies kept in the fast parts
	n, nFresh     int     // the samples behind p50 and freshP50
	values        int64   // values answered in the whole phase
	requests      int     // requests in the whole phase
	tailQ         float64 // the tail percentile over the whole phase's samples
	tail          int64   // and its value, ns
}

// measure summarizes a phase. Other tenants of a shared host slow this
// one down for seconds at a time and never speed it up, so throughput
// and median latency are taken over the fastest eighth of the parts: the
// program's speed when the host let it run. Parts are added, fastest
// first, until they hold at least ten requests, and ten fresh ones where
// the phase has them.
func measure(ph phase) windowStats {
	var st windowStats
	var items [subWindows]float64
	var n, nFresh [subWindows]int
	totalFresh := 0
	var all []int64
	for _, l := range ph {
		st.values += l.values
		for p := range subWindows {
			items[p] += l.items[p]
			n[p] += l.n[p]
			nFresh[p] += l.nFresh[p]
			totalFresh += l.nFresh[p]
			st.requests += l.n[p]
			for _, x := range l.kept[p] {
				all = append(all, x.ns)
			}
		}
	}
	slices.Sort(all)
	st.tailQ, st.tail = tail(all)

	order := make([]int, subWindows)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(items[b], items[a]) })
	var fast []int
	var fastItems float64
	inFast, inFresh := 0, 0
	for _, p := range order {
		if len(fast) >= subWindows/fastShare && inFast >= 10 && inFresh >= min(10, totalFresh) {
			break
		}
		fast = append(fast, p)
		fastItems += items[p]
		inFast, inFresh = inFast+n[p], inFresh+nFresh[p]
	}
	st.itemsPerS = fastItems / (float64(len(fast)) * ph[0].width / 1e6)
	var lat, freshLat []int64
	for _, l := range ph {
		for _, p := range fast {
			for _, x := range l.kept[p] {
				lat = append(lat, x.ns)
				if x.fresh {
					freshLat = append(freshLat, x.ns)
				}
			}
		}
	}
	slices.Sort(lat)
	slices.Sort(freshLat)
	st.p50, _ = percentile(lat, 50)
	st.freshP50, _ = percentile(freshLat, 50)
	st.n, st.nFresh = len(lat), len(freshLat)
	return st
}
