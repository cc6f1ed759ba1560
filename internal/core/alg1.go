package core

import (
	"randperm/internal/pro"
	"randperm/internal/xrand"
)

// Config bundles the knobs of Algorithm 1.
type Config struct {
	// Seed drives all randomness; every processor derives its own
	// jump-separated stream from it, so results are reproducible.
	Seed uint64
	// Matrix selects the communication-matrix sampling strategy.
	Matrix MatrixAlg
}

// Permute runs the paper's Algorithm 1 on a fresh machine with one
// processor per input block: every global permutation of the items is
// equally likely, the total work is O(n), and no processor handles more
// than O(max block) items. It returns the permuted blocks (sized
// according to outSizes) and the machine, whose cost report documents the
// resource bounds of Theorem 1.
//
// The input blocks are not modified.
func Permute[T any](in [][]T, outSizes []int64, cfg Config) ([][]T, *pro.Machine, error) {
	p := len(in)
	m := pro.NewMachine(p)
	rowM := BlockSizes(in)
	if err := checkPermuteArgs(p, rowM, outSizes); err != nil {
		return nil, m, err
	}
	streams := xrand.NewStreams(cfg.Seed, p)
	out := make([][]T, p)

	err := m.Run(func(pr *pro.Proc) {
		rank := pr.Rank()
		cnt := xrand.NewCounting(streams[rank])
		charge := func() {
			pr.AddDraws(int64(cnt.Count()))
			cnt.Reset()
		}

		// Phase 1: local random permutation of the source block.
		// Work on a copy so the caller's data survives.
		local := append([]T(nil), in[rank]...)
		xrand.Shuffle(cnt, local)
		pr.AddOps(int64(len(local)))
		charge()
		pr.Barrier()

		// Phase 2: sample this processor's row of the
		// communication matrix (equations 2 and 3 of the paper).
		row := SampleRow(pr, cnt, rowM, outSizes, cfg.Matrix)
		charge()
		pr.Barrier()

		// Phase 3: the all-to-all exchange. Because the block was
		// just permuted uniformly, sending the first row[0] items
		// to target 0, the next row[1] to target 1 and so on picks
		// uniformly random subsets, as Algorithm 1 requires.
		sendSlices := make([][]T, p)
		off := int64(0)
		for j := 0; j < p; j++ {
			sendSlices[j] = local[off : off+row[j]]
			off += row[j]
		}
		recvSlices := pro.AllToAll(pr, sendSlices)
		buf := make([]T, 0, outSizes[rank])
		for _, s := range recvSlices {
			buf = append(buf, s...)
		}
		pr.AddOps(int64(len(local) + len(buf)))
		pr.Barrier()

		// Phase 4: local random permutation of the received block,
		// mixing the contributions of all sources.
		xrand.Shuffle(cnt, buf)
		pr.AddOps(int64(len(buf)))
		charge()
		out[rank] = buf
	})
	if err != nil {
		return nil, m, err
	}
	return out, m, nil
}

// PermuteSlice is the convenience form of Permute for a single flat
// slice: the data is cut into p even blocks, permuted, and re-flattened.
// It returns a new slice; the input is not modified.
func PermuteSlice[T any](data []T, p int, cfg Config) ([]T, *pro.Machine, error) {
	sizes := EvenBlocks(int64(len(data)), p)
	blocks, err := Split(data, sizes)
	if err != nil {
		return nil, nil, err
	}
	out, m, err := Permute(blocks, sizes, cfg)
	if err != nil {
		return nil, nil, err
	}
	return Flatten(out), m, nil
}
