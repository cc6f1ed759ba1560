package hyper

import (
	"math"
	"testing"
	"testing/quick"

	"randperm/internal/xrand"
)

func TestDistValid(t *testing.T) {
	valid := []Dist{{0, 0, 0}, {1, 1, 0}, {5, 3, 2}, {10, 100, 100}}
	for _, d := range valid {
		if !d.Valid() {
			t.Fatalf("%+v should be valid", d)
		}
	}
	invalid := []Dist{{-1, 1, 1}, {1, -1, 1}, {1, 1, -1}, {6, 3, 2}}
	for _, d := range invalid {
		if d.Valid() {
			t.Fatalf("%+v should be invalid", d)
		}
	}
}

func TestSupportBounds(t *testing.T) {
	d := Dist{T: 7, W: 4, B: 5}
	if d.SupportMin() != 2 { // t-b = 2
		t.Fatalf("SupportMin = %d, want 2", d.SupportMin())
	}
	if d.SupportMax() != 4 { // min(t,w) = 4
		t.Fatalf("SupportMax = %d, want 4", d.SupportMax())
	}
	d2 := Dist{T: 2, W: 4, B: 5}
	if d2.SupportMin() != 0 || d2.SupportMax() != 2 {
		t.Fatalf("support of %+v wrong", d2)
	}
}

func TestMeanVarianceAgainstPMF(t *testing.T) {
	grid := []Dist{
		{3, 5, 5}, {10, 20, 5}, {7, 3, 30}, {20, 20, 20}, {13, 50, 11},
	}
	for _, d := range grid {
		var mean, m2, sum float64
		for k := d.SupportMin(); k <= d.SupportMax(); k++ {
			p := d.PMF(k)
			sum += p
			mean += float64(k) * p
			m2 += float64(k) * float64(k) * p
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Fatalf("%+v: PMF sums to %g", d, sum)
		}
		if math.Abs(mean-d.Mean()) > 1e-8*(1+math.Abs(mean)) {
			t.Fatalf("%+v: mean %g vs closed form %g", d, mean, d.Mean())
		}
		va := m2 - mean*mean
		if math.Abs(va-d.Variance()) > 1e-6*(1+va) {
			t.Fatalf("%+v: var %g vs closed form %g", d, va, d.Variance())
		}
	}
}

func TestModeIsArgmax(t *testing.T) {
	grid := []Dist{{3, 5, 5}, {10, 20, 5}, {7, 3, 30}, {20, 20, 20}, {1, 1, 1}}
	for _, d := range grid {
		mode := d.Mode()
		pm := d.PMF(mode)
		for k := d.SupportMin(); k <= d.SupportMax(); k++ {
			if d.PMF(k) > pm+1e-12 {
				t.Fatalf("%+v: PMF(%d)=%g beats PMF(mode=%d)=%g",
					d, k, d.PMF(k), mode, pm)
			}
		}
	}
}

func TestCDF(t *testing.T) {
	d := Dist{T: 10, W: 15, B: 25}
	acc := 0.0
	for k := d.SupportMin(); k <= d.SupportMax(); k++ {
		acc += d.PMF(k)
		if got := d.CDF(k); math.Abs(got-acc) > 1e-9 {
			t.Fatalf("CDF(%d) = %g, want %g", k, got, acc)
		}
	}
	if d.CDF(d.SupportMin()-1) != 0 {
		t.Fatal("CDF below support must be 0")
	}
	if d.CDF(d.SupportMax()) != 1 {
		t.Fatal("CDF at support max must be 1")
	}
	if d.CDF(d.SupportMax()+5) != 1 {
		t.Fatal("CDF above support must be 1")
	}
}

func TestLogPMFOutsideSupport(t *testing.T) {
	d := Dist{T: 5, W: 3, B: 4}
	for _, k := range []int64{-1, 4, 6} {
		if !math.IsInf(d.LogPMF(k), -1) {
			t.Fatalf("LogPMF(%d) should be -inf", k)
		}
	}
}

// chiSquareSampler draws `trials` samples and computes the Pearson
// statistic against the exact PMF, merging tail cells below a minimum
// expectation.
func chiSquareSampler(t *testing.T, name string, d Dist, trials int,
	sample func(src xrand.Source) int64, src xrand.Source) float64 {
	t.Helper()
	lo, hi := d.SupportMin(), d.SupportMax()
	counts := make([]int64, hi-lo+1)
	for i := 0; i < trials; i++ {
		k := sample(src)
		if k < lo || k > hi {
			t.Fatalf("%s: sample %d outside support [%d,%d] for %+v", name, k, lo, hi, d)
		}
		counts[k-lo]++
	}
	// Merge cells with expectation < 5.
	var stat float64
	var accObs int64
	var accExp float64
	cells := 0
	flush := func() {
		if accExp > 0 {
			diff := float64(accObs) - accExp
			stat += diff * diff / accExp
			cells++
		}
		accObs, accExp = 0, 0
	}
	for k := lo; k <= hi; k++ {
		accObs += counts[k-lo]
		accExp += d.PMF(k) * float64(trials)
		if accExp >= 5 {
			flush()
		}
	}
	flush()
	if cells < 2 {
		return 0 // distribution is (nearly) deterministic: nothing to test
	}
	// Compare against the 99.9th percentile of chi2 with cells-1 df
	// (approximated via the Wilson-Hilferty transform).
	df := float64(cells - 1)
	z := 3.09 // 99.9%
	limit := df * math.Pow(1-2/(9*df)+z*math.Sqrt(2/(9*df)), 3)
	if stat > limit {
		t.Errorf("%s on %+v: chi2 = %.1f > %.1f (df %d)", name, d, stat, limit, cells-1)
	}
	return stat
}

var samplerGrid = []Dist{
	{3, 5, 5},
	{10, 30, 20},
	{25, 40, 60},
	{100, 300, 500},
	{50, 1000, 10},
	{500, 2000, 2000},
	{5000, 20000, 20000},   // HRUA territory
	{40000, 60000, 100000}, // HRUA, asymmetric
	{9, 100000, 11},        // tiny support, huge population
}

func TestSampleUrnExact(t *testing.T) {
	src := xrand.NewXoshiro256(101)
	for _, d := range samplerGrid[:4] { // urn is O(t): small cases only
		chiSquareSampler(t, "urn", d, 20000, func(s xrand.Source) int64 {
			return SampleUrn(s, d.T, d.W, d.B)
		}, src)
	}
}

func TestSampleChopExact(t *testing.T) {
	src := xrand.NewXoshiro256(103)
	for _, d := range samplerGrid {
		chiSquareSampler(t, "chop", d, 20000, func(s xrand.Source) int64 {
			return SampleChop(s, d.T, d.W, d.B)
		}, src)
	}
}

func TestSampleHRUAExact(t *testing.T) {
	src := xrand.NewXoshiro256(107)
	for _, d := range samplerGrid {
		if d.SupportMax()-d.SupportMin() < 2 {
			continue // degenerate: HRUA requires real spread
		}
		chiSquareSampler(t, "hrua", d, 20000, func(s xrand.Source) int64 {
			return SampleHRUA(s, d.T, d.W, d.B)
		}, src)
	}
}

func TestSampleAutoExact(t *testing.T) {
	src := xrand.NewXoshiro256(109)
	for _, d := range samplerGrid {
		chiSquareSampler(t, "auto", d, 20000, func(s xrand.Source) int64 {
			return Sample(s, d.T, d.W, d.B)
		}, src)
	}
}

func TestSamplersAgreeOnSymmetries(t *testing.T) {
	// The four symmetry reductions of HRUA must all produce the right
	// marginal mean; exercised with parameters forcing each branch.
	src := xrand.NewXoshiro256(113)
	cases := []Dist{
		{2000, 30000, 10000}, // good > bad
		{2000, 10000, 30000}, // good < bad
		{35000, 10000, 30000},
		{35000, 30000, 10000},
	}
	const trials = 30000
	for _, d := range cases {
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(SampleHRUA(src, d.T, d.W, d.B))
		}
		got := sum / trials
		sd := math.Sqrt(d.Variance() / trials)
		if math.Abs(got-d.Mean()) > 6*sd {
			t.Fatalf("%+v: sample mean %.2f, expect %.2f +- %.2f", d, got, d.Mean(), 6*sd)
		}
	}
}

func TestSampleDegenerate(t *testing.T) {
	src := xrand.NewXoshiro256(127)
	cases := []struct {
		t, w, b, want int64
	}{
		{0, 10, 10, 0},
		{5, 0, 10, 0},
		{5, 10, 0, 5},
		{20, 10, 10, 10},
		{3, 3, 0, 3},
	}
	for _, c := range cases {
		for i := 0; i < 10; i++ {
			if got := Sample(src, c.t, c.w, c.b); got != c.want {
				t.Fatalf("Sample(%d,%d,%d) = %d, want %d", c.t, c.w, c.b, got, c.want)
			}
		}
	}
}

func TestSamplePanicsOnInvalid(t *testing.T) {
	src := xrand.NewXoshiro256(1)
	for _, c := range []struct{ t, w, b int64 }{
		{-1, 5, 5}, {5, -1, 5}, {5, 5, -1}, {11, 5, 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Sample(%d,%d,%d) did not panic", c.t, c.w, c.b)
				}
			}()
			Sample(src, c.t, c.w, c.b)
		}()
	}
}

func TestSampleSupportProperty(t *testing.T) {
	src := xrand.NewXoshiro256(131)
	f := func(t8, w8, b8 uint16) bool {
		w := int64(w8 % 2000)
		b := int64(b8 % 2000)
		if w+b == 0 {
			return true
		}
		tt := int64(t8) % (w + b + 1)
		d := Dist{T: tt, W: w, B: b}
		k := Sample(src, tt, w, b)
		return k >= d.SupportMin() && k <= d.SupportMax()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDrawBudget(t *testing.T) {
	// The resource contract of E2: chop uses exactly 1 draw; the auto
	// sampler never exceeds 9 draws per call.
	cnt := xrand.NewCounting(xrand.NewXoshiro256(137))
	for _, d := range samplerGrid {
		for i := 0; i < 3000; i++ {
			before := cnt.Count()
			Sample(cnt, d.T, d.W, d.B)
			used := cnt.Count() - before
			if used > 9 {
				t.Fatalf("Sample(%+v) used %d draws (max 9)", d, used)
			}
		}
	}
	cnt.Reset()
	d := Dist{T: 100, W: 300, B: 500} // sd ~ 5: chop territory
	for i := 0; i < 1000; i++ {
		before := cnt.Count()
		SampleChop(cnt, d.T, d.W, d.B)
		if used := cnt.Count() - before; used != 1 {
			t.Fatalf("SampleChop used %d draws, want exactly 1", used)
		}
	}
}

func TestChopEqualsDistributionOfUrn(t *testing.T) {
	// Two exact samplers must agree in distribution: compare empirical
	// CDFs coarsely.
	src := xrand.NewXoshiro256(139)
	d := Dist{T: 30, W: 40, B: 50}
	const trials = 40000
	var urnCounts, chopCounts [31]int64
	for i := 0; i < trials; i++ {
		urnCounts[SampleUrn(src, d.T, d.W, d.B)]++
		chopCounts[SampleChop(src, d.T, d.W, d.B)]++
	}
	var urnCum, chopCum, maxDiff float64
	for k := 0; k <= 30; k++ {
		urnCum += float64(urnCounts[k]) / trials
		chopCum += float64(chopCounts[k]) / trials
		if diff := math.Abs(urnCum - chopCum); diff > maxDiff {
			maxDiff = diff
		}
	}
	// Two-sample KS bound at alpha=0.001: 1.95*sqrt(2/n).
	if limit := 1.95 * math.Sqrt(2.0/trials); maxDiff > limit {
		t.Fatalf("urn vs chop KS distance %.4f > %.4f", maxDiff, limit)
	}
}

// TestHypergeometricConvergesToBinomial checks the classical limit: for
// a huge urn with white fraction q, h(t, w, b) ~ B(t, q). The sampler's
// empirical CDF must be KS-close to the exact binomial CDF.
func TestHypergeometricConvergesToBinomial(t *testing.T) {
	src := xrand.NewXoshiro256(6)
	const trials = 30000
	const tDraws = 40
	const q = 0.3
	const pop = 4000000 // population >> t^2: distributions near-identical
	w := int64(q * pop)
	b := int64(pop) - w

	var counts [tDraws + 1]float64
	for i := 0; i < trials; i++ {
		counts[Sample(src, tDraws, w, b)]++
	}
	// log B(t, q) PMF at k: log C(t, k) + k log q + (t-k) log(1-q).
	logPMF := func(k int) float64 {
		lt, _ := math.Lgamma(tDraws + 1)
		lk, _ := math.Lgamma(float64(k) + 1)
		lr, _ := math.Lgamma(float64(tDraws-k) + 1)
		return lt - lk - lr + float64(k)*math.Log(q) + float64(tDraws-k)*math.Log1p(-q)
	}
	var empCDF, binCDF, maxDiff float64
	for k := 0; k <= tDraws; k++ {
		empCDF += counts[k] / trials
		binCDF += math.Exp(logPMF(k))
		if d := math.Abs(empCDF - binCDF); d > maxDiff {
			maxDiff = d
		}
	}
	// One-sample KS at alpha=0.001 plus the O(t/pop) model distance.
	limit := 1.95/math.Sqrt(trials) + float64(tDraws)/float64(pop)
	if maxDiff > limit {
		t.Fatalf("hyper vs exact binomial KS distance %.4f > %.4f", maxDiff, limit)
	}
}

func BenchmarkSampleChop(b *testing.B) {
	src := xrand.NewXoshiro256(1)
	for i := 0; i < b.N; i++ {
		SampleChop(src, 100, 300, 500)
	}
}

func BenchmarkSampleHRUA(b *testing.B) {
	src := xrand.NewXoshiro256(1)
	for i := 0; i < b.N; i++ {
		SampleHRUA(src, 100000, 1000000, 1000000)
	}
}

func BenchmarkSampleAuto(b *testing.B) {
	src := xrand.NewXoshiro256(1)
	for i := 0; i < b.N; i++ {
		Sample(src, 100000, 1000000, 1000000)
	}
}
