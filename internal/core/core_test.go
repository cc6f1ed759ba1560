package core

import (
	"testing"
	"testing/quick"
)

func TestEvenBlocks(t *testing.T) {
	cases := []struct {
		n    int64
		p    int
		want []int64
	}{
		{10, 2, []int64{5, 5}},
		{10, 3, []int64{4, 3, 3}},
		{2, 4, []int64{1, 1, 0, 0}},
		{0, 3, []int64{0, 0, 0}},
	}
	for _, c := range cases {
		got := EvenBlocks(c.n, c.p)
		if len(got) != len(c.want) {
			t.Fatalf("EvenBlocks(%d,%d) = %v", c.n, c.p, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("EvenBlocks(%d,%d) = %v, want %v", c.n, c.p, got, c.want)
			}
		}
	}
}

func TestEvenBlocksProperty(t *testing.T) {
	f := func(n16 uint16, p8 uint8) bool {
		n := int64(n16)
		p := int(p8%64) + 1
		sizes := EvenBlocks(n, p)
		var total int64
		for i, s := range sizes {
			total += s
			// Sizes differ by at most one, non-increasing.
			if i > 0 && (sizes[i-1]-s > 1 || sizes[i-1] < s) {
				return false
			}
		}
		return total == n && len(sizes) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvenBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p=0 did not panic")
		}
	}()
	EvenBlocks(10, 0)
}

func TestSplitFlattenRoundtrip(t *testing.T) {
	f := func(n16 uint16, p8 uint8) bool {
		n := int64(n16 % 5000)
		p := int(p8%16) + 1
		data := Iota(n)
		blocks, err := Split(data, EvenBlocks(n, p))
		if err != nil {
			return false
		}
		flat := Flatten(blocks)
		if int64(len(flat)) != n {
			return false
		}
		for i, v := range flat {
			if v != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split(Iota(5), []int64{2, 2}); err == nil {
		t.Fatal("mismatched split accepted")
	}
	if _, err := Split(Iota(5), []int64{-1, 6}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestBlockSizes(t *testing.T) {
	blocks := [][]int64{{1, 2}, {}, {3, 4, 5}}
	got := BlockSizes(blocks)
	want := []int64{2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BlockSizes = %v", got)
		}
	}
}

func TestCheckPermutation(t *testing.T) {
	in := [][]int64{{1, 2, 3}, {4, 5}}
	good := [][]int64{{5, 1}, {3, 2, 4}}
	if err := CheckPermutation(in, good, []int64{2, 3}); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	if err := CheckPermutation(in, good, []int64{3, 2}); err == nil {
		t.Fatal("wrong sizes accepted")
	}
	dup := [][]int64{{1, 1}, {3, 2, 4}}
	if err := CheckPermutation(in, dup, []int64{2, 3}); err == nil {
		t.Fatal("duplicate accepted")
	}
	short := [][]int64{{5, 1}, {3, 2}}
	if err := CheckPermutation(in, short, []int64{2, 2}); err == nil {
		t.Fatal("missing item accepted")
	}
}

func TestPermuteProducesPermutation(t *testing.T) {
	for _, alg := range []MatrixAlg{MatrixSeq, MatrixLog, MatrixOpt} {
		for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16} {
			n := int64(997) // prime: exercises ragged even blocks
			data := Iota(n)
			sizes := EvenBlocks(n, p)
			blocks, err := Split(data, sizes)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := Permute(blocks, sizes, Config{Seed: 42, Matrix: alg})
			if err != nil {
				t.Fatalf("alg=%v p=%d: %v", alg, p, err)
			}
			if err := CheckPermutation(blocks, out, sizes); err != nil {
				t.Fatalf("alg=%v p=%d: %v", alg, p, err)
			}
		}
	}
}

func TestPermuteRaggedAndReshaping(t *testing.T) {
	// Problem 1 in full generality: unequal input blocks redistributed
	// into *different* unequal output blocks.
	in := [][]int64{Iota(7), {100, 101}, {200, 201, 202, 203, 204}, {}}
	outSizes := []int64{1, 6, 3, 4}
	for _, alg := range []MatrixAlg{MatrixSeq, MatrixLog, MatrixOpt} {
		out, _, err := Permute(in, outSizes, Config{Seed: 7, Matrix: alg})
		if err != nil {
			t.Fatalf("alg=%v: %v", alg, err)
		}
		if err := CheckPermutation(in, out, outSizes); err != nil {
			t.Fatalf("alg=%v: %v", alg, err)
		}
	}
}

func TestPermuteRandomShapesProperty(t *testing.T) {
	// Fully random ragged input AND output layouts through every
	// matrix algorithm: output must always be a permutation with the
	// requested shape.
	f := func(rawIn, rawOut []uint8, algPick uint8) bool {
		if len(rawIn) == 0 || len(rawIn) > 6 || len(rawOut) == 0 {
			return true
		}
		inSizes := make([]int64, len(rawIn))
		var total int64
		for i, r := range rawIn {
			inSizes[i] = int64(r % 40)
			total += inSizes[i]
		}
		// Output layout: same processor count (Problem 1 with p'=p),
		// same total, sizes driven by rawOut.
		outSizes := make([]int64, len(rawIn))
		rem := total
		for i := range outSizes {
			if i == len(outSizes)-1 {
				outSizes[i] = rem
				break
			}
			pick := int64(0)
			if len(rawOut) > 0 {
				pick = int64(rawOut[i%len(rawOut)]) % (rem + 1)
			}
			outSizes[i] = pick
			rem -= pick
		}
		alg := []MatrixAlg{MatrixSeq, MatrixLog, MatrixOpt}[algPick%3]
		blocks, err := Split(Iota(total), inSizes)
		if err != nil {
			return false
		}
		out, _, err := Permute(blocks, outSizes, Config{
			Seed:   uint64(total)*31 + uint64(algPick),
			Matrix: alg,
		})
		if err != nil {
			return false
		}
		return CheckPermutation(blocks, out, outSizes) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteErrors(t *testing.T) {
	if _, _, err := Permute([][]int64{{1}, {2}}, []int64{1}, Config{}); err == nil {
		t.Fatal("wrong target count accepted")
	}
	if _, _, err := Permute([][]int64{{1}, {2}}, []int64{1, 2}, Config{}); err == nil {
		t.Fatal("mismatched totals accepted")
	}
	if _, _, err := Permute([][]int64{{1}, {2}}, []int64{-1, 3}, Config{}); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestPermuteDeterministic(t *testing.T) {
	data := Iota(1000)
	for _, alg := range []MatrixAlg{MatrixSeq, MatrixLog, MatrixOpt} {
		a, _, err := PermuteSlice(data, 4, Config{Seed: 99, Matrix: alg})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := PermuteSlice(data, 4, Config{Seed: 99, Matrix: alg})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("alg=%v: same seed diverged at %d", alg, i)
			}
		}
	}
}

func TestPermuteSeedsDiffer(t *testing.T) {
	data := Iota(1000)
	a, _, _ := PermuteSlice(data, 4, Config{Seed: 1})
	b, _, _ := PermuteSlice(data, 4, Config{Seed: 2})
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	// Two independent uniform permutations of 1000 items agree in ~1
	// position on average; 50 would be absurd.
	if same > 50 {
		t.Fatalf("different seeds produced nearly identical output (%d matches)", same)
	}
}

func TestPermuteDoesNotMutateInput(t *testing.T) {
	data := Iota(100)
	blocks, _ := Split(data, EvenBlocks(100, 4))
	snapshot := append([]int64(nil), data...)
	if _, _, err := Permute(blocks, EvenBlocks(100, 4), Config{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != snapshot[i] {
			t.Fatal("Permute mutated its input")
		}
	}
}

func TestPermuteStringPayload(t *testing.T) {
	// Generic payloads: strings.
	in := [][]string{{"a", "b"}, {"c", "d", "e"}}
	sizes := []int64{2, 3}
	out, _, err := Permute(in, sizes, Config{Seed: 3, Matrix: MatrixOpt})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPermutation(in, out, sizes); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteBalanceExact(t *testing.T) {
	// The balance criterion: output block sizes are exactly the target
	// sizes, and per-processor ops stay within a constant factor of
	// the block size.
	n := int64(1 << 16)
	p := 8
	sizes := EvenBlocks(n, p)
	blocks, _ := Split(Iota(n), sizes)
	out, m, err := Permute(blocks, sizes, Config{Seed: 11, Matrix: MatrixOpt})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		if int64(len(b)) != sizes[i] {
			t.Fatalf("block %d has %d items, want %d", i, len(b), sizes[i])
		}
	}
	rep := m.Report()
	blockM := n / int64(p)
	if rep.MaxOps() > 8*blockM {
		t.Fatalf("max ops/proc %d exceeds 8x block size %d", rep.MaxOps(), blockM)
	}
	if rep.MaxDraws() > 4*blockM {
		t.Fatalf("max draws/proc %d exceeds 4x block size %d", rep.MaxDraws(), blockM)
	}
}

func TestAlg1CommunicationBalanced(t *testing.T) {
	// Proposition 1: with the margins under control, the communication
	// phase stays balanced - no processor sends or receives more than
	// O(m) bytes.
	n := int64(1 << 16)
	p := 8
	sizes := EvenBlocks(n, p)
	blocks, _ := Split(Iota(n), sizes)
	_, m, err := Permute(blocks, sizes, Config{Seed: 23, Matrix: MatrixOpt})
	if err != nil {
		t.Fatal(err)
	}
	blockBytes := (n / int64(p)) * 8
	for rank := 0; rank < p; rank++ {
		tot := m.Cost(rank).Totals()
		if tot.BytesOut > 2*blockBytes {
			t.Fatalf("rank %d sent %d bytes for a %d-byte block", rank, tot.BytesOut, blockBytes)
		}
		if tot.BytesIn > 2*blockBytes {
			t.Fatalf("rank %d received %d bytes for a %d-byte block", rank, tot.BytesIn, blockBytes)
		}
	}
}

func TestPermuteWorkOptimalScaling(t *testing.T) {
	// Work-optimality: doubling n roughly doubles total ops (constant
	// factor stays bounded); growing p at fixed n does not grow total
	// ops by more than the p^2 matrix term.
	totalOps := func(n int64, p int) int64 {
		sizes := EvenBlocks(n, p)
		blocks, _ := Split(Iota(n), sizes)
		_, m, err := Permute(blocks, sizes, Config{Seed: 17, Matrix: MatrixOpt})
		if err != nil {
			t.Fatal(err)
		}
		return m.Report().TotalOps()
	}
	o1 := totalOps(1<<14, 4)
	o2 := totalOps(1<<15, 4)
	ratio := float64(o2) / float64(o1)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("doubling n scaled ops by %.2f, want ~2", ratio)
	}
}
