package metrics

import (
	"maps"
	"strings"
	"testing"
)

func exposition(r *Registry) string {
	var b strings.Builder
	r.Write(&b)
	return b.String()
}

// TestWriteExposition pins the exact text of every family kind, and
// that families print in declaration order, not by name or kind.
func TestWriteExposition(t *testing.T) {
	var r Registry
	c := r.Counter("z_requests_total", "Requests served.")
	g := r.Gauge("a_inflight", "Requests in flight.")
	r.Func("m_items_total", "Items kept elsewhere.", "counter", func() int64 { return 7 })
	r.RatioFunc("b_hit_ratio", "Cache hits over lookups.", func() float64 { return 2.0 / 3 })
	r.RatioFunc("c_empty_ratio", "A ratio with no lookups yet.", func() float64 { return 0 })
	lc := r.LabeledCounter("d_errors_total", "Errors by code.", "code")
	r.LabeledGaugeFunc("e_peer_up", "Peer health.", "peer", func(emit func(string, int64)) {
		emit("http://b", 0)
		emit("http://a", 1)
	})
	c.Add(3)
	g.Add(5)
	g.Add(-2)
	lc.With("500").Add(1)
	lc.With("429").Add(2)
	lc.With("500").Add(4)

	want := `# HELP z_requests_total Requests served.
# TYPE z_requests_total counter
z_requests_total 3
# HELP a_inflight Requests in flight.
# TYPE a_inflight gauge
a_inflight 3
# HELP m_items_total Items kept elsewhere.
# TYPE m_items_total counter
m_items_total 7
# HELP b_hit_ratio Cache hits over lookups.
# TYPE b_hit_ratio gauge
b_hit_ratio 0.6666666666666666
# HELP c_empty_ratio A ratio with no lookups yet.
# TYPE c_empty_ratio gauge
c_empty_ratio 0
# HELP d_errors_total Errors by code.
# TYPE d_errors_total counter
d_errors_total{code="429"} 2
d_errors_total{code="500"} 5
# HELP e_peer_up Peer health.
# TYPE e_peer_up gauge
e_peer_up{peer="http://b"} 0
e_peer_up{peer="http://a"} 1
`
	if got := exposition(&r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestFuncReadsAtScrape: Func and RatioFunc samples are computed on
// every Write, not captured at declaration.
func TestFuncReadsAtScrape(t *testing.T) {
	var r Registry
	n := int64(1)
	r.Func("g", "A gauge kept elsewhere.", "gauge", func() int64 { return n })
	r.RatioFunc("q", "A quotient.", func() float64 { return float64(n) / 4 })
	n = 3
	want := "# HELP g A gauge kept elsewhere.\n# TYPE g gauge\ng 3\n" +
		"# HELP q A quotient.\n# TYPE q gauge\nq 0.75\n"
	if got := exposition(&r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabeledCounterWith: With returns the same sample for the same
// label value, so repeated declarations share one count.
func TestLabeledCounterWith(t *testing.T) {
	var r Registry
	lc := r.LabeledCounter("x_total", "X.", "kind")
	a, b := lc.With("a"), lc.With("a")
	if a != b {
		t.Fatal("With returned two samples for one label value")
	}
	a.Add(1)
	b.Add(1)
	if len(lc) != 1 || lc.With("a").Load() != 2 {
		t.Fatalf("samples %v, want one label with count 2", lc)
	}
	want := "# HELP x_total X.\n# TYPE x_total counter\nx_total{kind=\"a\"} 2\n"
	if got := exposition(&r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestEmptyLabeledFamilies: a labeled family with no samples still
// prints its HELP and TYPE lines.
func TestEmptyLabeledFamilies(t *testing.T) {
	var r Registry
	r.LabeledCounter("c_total", "C.", "k")
	r.LabeledGaugeFunc("g", "G.", "k", func(func(string, int64)) {})
	want := "# HELP c_total C.\n# TYPE c_total counter\n# HELP g G.\n# TYPE g gauge\n"
	if got := exposition(&r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestValues: Values holds exactly the Counter and Gauge families,
// never a Func, RatioFunc or labeled family.
func TestValues(t *testing.T) {
	var r Registry
	r.Counter("c_total", "C.").Add(4)
	r.Gauge("g", "G.").Add(-1)
	r.Func("f_total", "F.", "counter", func() int64 { return 9 })
	r.RatioFunc("r", "R.", func() float64 { return 1 })
	r.LabeledCounter("l_total", "L.", "k").With("a").Add(1)
	r.LabeledGaugeFunc("lg", "LG.", "k", func(emit func(string, int64)) { emit("a", 1) })
	want := map[string]int64{"c_total": 4, "g": -1}
	if got := r.Values(); !maps.Equal(got, want) {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
}
