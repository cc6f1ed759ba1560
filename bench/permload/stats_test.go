package main

import (
	"math/rand/v2"
	"testing"
	"time"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		q          float64
		want       int64
		wantBeyond int
	}{
		{100, 50, 50, 50},
		{100, 90, 90, 10},
		{100, 99, 99, 1},
		{100, 99.9, 100, 0},
		{1000, 99, 990, 10},
		{1000, 99.9, 999, 1},
		{7, 50, 4, 3},
		{1, 99, 1, 0},
	} {
		v, beyond := percentile(seq(c.n), c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g of 1..%d = %d (%d beyond), want %d (%d beyond)", c.q, c.n, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("empty: %d, %d", v, beyond)
	}
}

// TestTailKeepsTenBeyond: the reported tail is the highest candidate
// percentile with at least ten samples beyond it.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV int64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 90, 900}, // p99 is rank 990, 9 beyond
		{100, 90, 90},
		{40, 75, 30},
		{5, 50, 3},
	} {
		q, v := tail(seq(c.n))
		if q != c.wantQ || v != c.wantV {
			t.Errorf("tail of 1..%d = p%g %d, want p%g %d", c.n, q, v, c.wantQ, c.wantV)
		}
	}
}

// TestQuartilesMatchPython: the values Python's statistics.quantiles
// (n=4) and statistics.median give for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestMeasureFastParts: on a phase whose first half runs at half speed,
// throughput and median come from the fast half.
func TestMeasureFastParts(t *testing.T) {
	l := newPartLog(0, 2*time.Second)
	rng := rand.New(rand.NewPCG(1, 2))
	// One connection, back to back: 2 ms requests for 1 s, then 1 ms
	// requests for 1 s; every fourth request is fresh.
	requests := 0
	for at := 0.0; at < 2e6; requests++ {
		dur := 2000.0
		if at >= 1e6 {
			dur = 1000
		}
		l.observe(at, at+dur, true, requests%4 == 0, 10, rng)
		at += dur
	}
	st := measure(phase{l})
	if st.itemsPerS < 9_999 || st.itemsPerS > 10_001 {
		t.Errorf("items/s %g, want the fast half's 10000", st.itemsPerS)
	}
	if st.p50 != 1_000_000 || st.freshP50 != 1_000_000 {
		t.Errorf("p50 %d, fresh p50 %d, want 1000000", st.p50, st.freshP50)
	}
	if st.requests != requests || st.values != int64(10*requests) {
		t.Errorf("phase holds %d requests, %d values; want %d, %d", st.requests, st.values, requests, 10*requests)
	}
}

// TestReservoirBoundsMemory: a part keeps at most reservoirCap
// latencies, a uniform sample of all it saw.
func TestReservoirBoundsMemory(t *testing.T) {
	l := newPartLog(0, time.Second)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range 100 * reservoirCap {
		at := float64(i) / (100 * reservoirCap) * 1e6 / subWindows // all in part 0
		l.observe(at, at+float64(i%2+1), true, false, 1, rng)
	}
	if got := len(l.kept[0]); got != reservoirCap {
		t.Fatalf("kept %d latencies, want %d", got, reservoirCap)
	}
	slow := 0
	for _, x := range l.kept[0] {
		if x.ns == 2000 {
			slow++
		}
	}
	if slow < reservoirCap*4/10 || slow > reservoirCap*6/10 {
		t.Errorf("%d of %d kept latencies are the slow half's, want about half", slow, reservoirCap)
	}
}
