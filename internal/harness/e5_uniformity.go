package harness

import (
	"fmt"

	"randperm/internal/baseline"
	"randperm/internal/core"
	"randperm/internal/seqperm"
	"randperm/internal/stats"
	"randperm/internal/xrand"
)

// E5 is the uniformity experiment behind Theorem 1 and the criteria table
// of Section 1: with n small enough to enumerate all n! permutations,
// every shuffler is run many times, outcomes are ranked with the Lehmer
// code and chi-squared against the uniform law. The paper's Algorithm 1
// must pass for every matrix algorithm and block layout; Fisher-Yates,
// the block shuffle and the sort shuffle pass as positive controls;
// Sattolo's algorithm and a single merge-split round (the
// balanced-but-non-uniform methods the introduction rules out) must fail.
func E5(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	const n = 6 // 720 permutations
	trials := cfg.Trials
	t := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("exact uniformity over all %d! = %d permutations, %d trials", n, stats.Factorial(n), trials),
		Columns: []string{
			"method", "expect", "chi2", "df", "p-value", "verdict",
		},
	}
	alpha := 0.001

	addResult := func(name string, expectUniform bool, counts []int64) error {
		res, err := stats.ChiSquareUniform(counts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		verdict := "uniform"
		if res.Reject(alpha) {
			verdict = "NON-UNIFORM"
		}
		want := "uniform"
		if !expectUniform {
			want = "non-uniform"
		}
		t.AddRow(name, want, res.Stat, res.DF, res.P, verdict)
		return nil
	}

	runSeq := func(name string, expectUniform bool, shuffle func(src xrand.Source, x []int64)) error {
		src := xrand.NewXoshiro256(cfg.Seed ^ hashName(name))
		counts := make([]int64, stats.Factorial(n))
		buf := make([]int64, n)
		for tr := 0; tr < trials; tr++ {
			for i := range buf {
				buf[i] = int64(i)
			}
			shuffle(src, buf)
			counts[stats.RankPermInt64(buf)]++
		}
		return addResult(name, expectUniform, counts)
	}

	if err := runSeq("fisher-yates", true, func(src xrand.Source, x []int64) {
		seqperm.FisherYates(src, x)
	}); err != nil {
		return nil, err
	}
	if err := runSeq("block-shuffle", true, func(src xrand.Source, x []int64) {
		seqperm.BlockShuffle(src, x, seqperm.BlockShuffleOptions{Fanout: 3, Threshold: 2})
	}); err != nil {
		return nil, err
	}
	if err := runSeq("sort-shuffle", true, func(src xrand.Source, x []int64) {
		seqperm.SortShuffle(src, x)
	}); err != nil {
		return nil, err
	}
	if err := runSeq("sattolo (control)", false, func(src xrand.Source, x []int64) {
		seqperm.Sattolo(src, x)
	}); err != nil {
		return nil, err
	}

	// The paper's Algorithm 1, every matrix algorithm, two layouts.
	layouts := []struct {
		name  string
		sizes []int64
	}{
		{"p=2 blocks 3+3", []int64{3, 3}},
		{"p=3 blocks 2+2+2", []int64{2, 2, 2}},
		{"p=3 ragged 3+2+1", []int64{3, 2, 1}},
	}
	for _, alg := range []core.MatrixAlg{core.MatrixSeq, core.MatrixLog, core.MatrixOpt} {
		for _, lay := range layouts {
			name := fmt.Sprintf("alg1/%s %s", alg, lay.name)
			counts := make([]int64, stats.Factorial(n))
			for tr := 0; tr < trials; tr++ {
				blocks, err := core.Split(core.Iota(n), lay.sizes)
				if err != nil {
					return nil, err
				}
				out, _, err := core.Permute(blocks, lay.sizes, core.Config{
					Seed:   cfg.Seed + uint64(tr)*1000003 + hashName(name),
					Matrix: alg,
				})
				if err != nil {
					return nil, err
				}
				counts[stats.RankPermInt64(core.Flatten(out))]++
			}
			if err := addResult(name, true, counts); err != nil {
				return nil, err
			}
		}
	}

	// Negative control: one merge-split round on 4 blocks cannot move
	// items arbitrarily, so whole regions of S_n have probability 0.
	{
		name := "merge-split r=1 (control)"
		counts := make([]int64, stats.Factorial(n))
		sizes := []int64{2, 2, 1, 1}
		for tr := 0; tr < trials; tr++ {
			blocks, err := core.Split(core.Iota(n), sizes)
			if err != nil {
				return nil, err
			}
			out, _, err := baseline.IterateExchange(blocks, cfg.Seed+uint64(tr)*7919, 1)
			if err != nil {
				return nil, err
			}
			counts[stats.RankPermInt64(core.Flatten(out))]++
		}
		if err := addResult(name, false, counts); err != nil {
			return nil, err
		}
	}
	t.AddNote("alpha = %.3f; alg1 rows must read uniform, the two controls must read NON-UNIFORM", alpha)
	t.AddNote("expected count per cell: %.1f", float64(trials)/float64(stats.Factorial(n)))
	return t, nil
}

// hashName derives a per-method seed offset so methods do not share
// random streams.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
