package stats

import (
	"math"
	"testing"
	"testing/quick"

	"randperm/internal/xrand"
)

func TestChiSquareAcceptsUniform(t *testing.T) {
	src := xrand.NewXoshiro256(1)
	counts := make([]int64, 20)
	for i := 0; i < 40000; i++ {
		counts[xrand.Intn(src, 20)]++
	}
	res, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.001) {
		t.Fatalf("uniform data rejected: %s", res)
	}
	if res.Total != 40000 {
		t.Fatalf("total = %d", res.Total)
	}
}

func TestChiSquareRejectsSkewed(t *testing.T) {
	counts := []int64{900, 100, 100, 100} // heavily skewed vs uniform
	res, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.001) {
		t.Fatalf("gross skew accepted: %s", res)
	}
}

func TestChiSquareAgainstProbs(t *testing.T) {
	probs := []float64{0.5, 0.3, 0.2}
	counts := []int64{5000, 3000, 2000} // exactly on the model
	res, err := ChiSquare(counts, probs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stat != 0 {
		t.Fatalf("perfect fit has stat %g", res.Stat)
	}
	if res.P < 0.999 {
		t.Fatalf("perfect fit p-value %g", res.P)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, err := ChiSquare([]int64{1}, []float64{1}); err == nil {
		t.Fatal("single cell accepted")
	}
	if _, err := ChiSquare([]int64{1, 2}, []float64{0.5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ChiSquare([]int64{-1, 2}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := ChiSquare([]int64{1, 2}, []float64{0.9, 0.9}); err == nil {
		t.Fatal("non-normalized probs accepted")
	}
	if _, err := ChiSquare([]int64{0, 0}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("zero observations accepted")
	}
}

func TestChiSquareImpossibleCell(t *testing.T) {
	// Observations in a zero-probability cell must reject outright.
	res, err := ChiSquare([]int64{10, 10, 5}, []float64{0.5, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Fatalf("impossible cell got p=%g", res.P)
	}
	// Zero observations in a zero-probability cell are fine.
	res, err = ChiSquare([]int64{10, 10, 0}, []float64{0.5, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.01) {
		t.Fatalf("valid data rejected: %s", res)
	}
	if res.DF != 1 {
		t.Fatalf("df = %d, want 1 (impossible cell dropped)", res.DF)
	}
}

func TestFactorial(t *testing.T) {
	want := map[int]int64{0: 1, 1: 1, 5: 120, 10: 3628800, 20: 2432902008176640000}
	for n, w := range want {
		if got := Factorial(n); got != w {
			t.Fatalf("Factorial(%d) = %d", n, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Factorial(21) did not panic")
		}
	}()
	Factorial(21)
}

func TestRankUnrankRoundtrip(t *testing.T) {
	for n := 1; n <= 7; n++ {
		nf := Factorial(n)
		seen := make(map[int64]bool)
		for r := int64(0); r < nf; r++ {
			perm := UnrankPerm(r, n)
			got := RankPerm(perm)
			if got != r {
				t.Fatalf("n=%d: rank(unrank(%d)) = %d", n, r, got)
			}
			if seen[got] {
				t.Fatalf("n=%d: rank %d duplicated", n, got)
			}
			seen[got] = true
		}
	}
}

func TestRankPermLexOrder(t *testing.T) {
	// Identity has rank 0; the reversal has rank n!-1.
	if RankPerm([]int{0, 1, 2, 3}) != 0 {
		t.Fatal("identity rank wrong")
	}
	if RankPerm([]int{3, 2, 1, 0}) != 23 {
		t.Fatal("reversal rank wrong")
	}
	if RankPerm([]int{0, 1, 3, 2}) != 1 {
		t.Fatal("first transposition rank wrong")
	}
}

func TestRankPermRejectsGarbage(t *testing.T) {
	for _, bad := range [][]int{{0, 0}, {0, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RankPerm(%v) did not panic", bad)
				}
			}()
			RankPerm(bad)
		}()
	}
}

func TestRankPermInt64Property(t *testing.T) {
	src := xrand.NewXoshiro256(5)
	f := func(seed uint8) bool {
		n := int(seed%7) + 1
		p := xrand.Perm(src, n)
		p64 := make([]int64, n)
		for i, v := range p {
			p64[i] = int64(v)
		}
		r := RankPermInt64(p64)
		return r >= 0 && r < Factorial(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTotalVariation(t *testing.T) {
	probs := []float64{0.5, 0.5}
	if d := TotalVariation([]int64{50, 50}, probs); d != 0 {
		t.Fatalf("perfect match TVD = %g", d)
	}
	if d := TotalVariation([]int64{100, 0}, probs); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("one-sided TVD = %g, want 0.5", d)
	}
	if d := TotalVariation([]int64{0, 0}, probs); d != 0 {
		t.Fatalf("empty TVD = %g", d)
	}
}

func TestBinCells(t *testing.T) {
	obs := []int64{1, 1, 50, 50, 1, 1}
	probs := []float64{0.01, 0.01, 0.48, 0.48, 0.01, 0.01}
	bObs, bProbs := BinCells(obs, probs, 5, 104)
	var total int64
	var psum float64
	for i := range bObs {
		total += bObs[i]
		psum += bProbs[i]
		if i < len(bObs)-1 && bProbs[i]*104 < 5 {
			t.Fatalf("bin %d below minimum expectation", i)
		}
	}
	if total != 104 {
		t.Fatalf("binning lost observations: %d", total)
	}
	if math.Abs(psum-1) > 1e-12 {
		t.Fatalf("binning lost probability: %g", psum)
	}
}

func TestBinCellsAllTiny(t *testing.T) {
	obs := []int64{1, 1, 1}
	probs := []float64{0.33, 0.33, 0.34}
	bObs, _ := BinCells(obs, probs, 1000, 3)
	if len(bObs) != 1 || bObs[0] != 3 {
		t.Fatalf("all-tiny binning = %v", bObs)
	}
}

func TestChiSquareBinned(t *testing.T) {
	src := xrand.NewXoshiro256(9)
	// Geometric-ish law with a long tail of tiny cells.
	probs := make([]float64, 30)
	mass := 1.0
	for i := range probs {
		if i == len(probs)-1 {
			probs[i] = mass
			break
		}
		probs[i] = mass / 2
		mass /= 2
	}
	counts := make([]int64, 30)
	for i := 0; i < 20000; i++ {
		u := xrand.Float64(src)
		acc := 0.0
		for j, p := range probs {
			acc += p
			if u < acc {
				counts[j]++
				break
			}
		}
	}
	res, err := ChiSquareBinned(counts, probs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.001) {
		t.Fatalf("well-modelled data rejected: %s", res)
	}
	if res.DF >= 29 {
		t.Fatalf("binning did not reduce df: %d", res.DF)
	}
}
