package core

import (
	"fmt"

	"randperm/internal/commat"
	"randperm/internal/mhyper"
	"randperm/internal/pro"
	"randperm/internal/xrand"
)

// MatrixAlg selects how Algorithm 1 obtains the communication matrix.
type MatrixAlg int

const (
	// MatrixSeq samples the whole matrix at processor 0 with the
	// sequential Algorithm 3 and scatters the rows: O(p*p') work and
	// memory concentrated at the root. Simple, but not balanced.
	MatrixSeq MatrixAlg = iota
	// MatrixLog is the paper's Algorithm 5: recursive halving where the
	// head of each processor range samples the split. Theta(p log p)
	// time, communication and samples per processor.
	MatrixLog
	// MatrixOpt is the paper's cost-optimal Algorithm 6: ranges halve
	// alternately along both matrix dimensions, each processor ends
	// with an O(p)-entry submatrix it samples locally, then rows are
	// redistributed. Theta(p) per processor, Theta(p^2) total.
	MatrixOpt
)

// String names the algorithm for tables and flags.
func (a MatrixAlg) String() string {
	switch a {
	case MatrixSeq:
		return "seq"
	case MatrixLog:
		return "log"
	case MatrixOpt:
		return "opt"
	default:
		return fmt.Sprintf("MatrixAlg(%d)", int(a))
	}
}

// SampleRow runs the selected matrix sampling algorithm on the calling
// processor and returns this processor's row of the communication matrix:
// row[j] items travel from block Rank() to target block j. Every
// processor of the machine must call SampleRow with identical arguments.
//
// rowM must have length P (one source block per processor); colM may have
// any length (the number of target blocks p').
func SampleRow(pr *pro.Proc, rng xrand.Source, rowM, colM []int64, alg MatrixAlg) []int64 {
	switch alg {
	case MatrixSeq:
		return sampleRowSeq(pr, rng, rowM, colM)
	case MatrixLog:
		return sampleRowLog(pr, rng, rowM, colM)
	case MatrixOpt:
		return sampleRowOpt(pr, rng, rowM, colM)
	default:
		panic(fmt.Sprintf("core: unknown matrix algorithm %v", alg))
	}
}

// sampleRowSeq concentrates Algorithm 3 at processor 0 and scatters rows.
func sampleRowSeq(pr *pro.Proc, rng xrand.Source, rowM, colM []int64) []int64 {
	if pr.Rank() == 0 {
		m := commat.SampleSeq(rng, rowM, colM)
		pr.AddOps(int64(len(rowM) * len(colM)))
		rows := make([][]int64, pr.P())
		for i := range rows {
			rows[i] = append([]int64(nil), m.Row(i)...)
		}
		return pro.Scatter(pr, 0, rows)
	}
	return pro.Scatter[[]int64](pr, 0, nil)
}

// sampleRowLog is the paper's Algorithm 5. The processor range [r, s) is
// halved every round; the head processor P_r of each range holds the
// column-capacity vector beta of its range, samples the multivariate
// hypergeometric split for the upper half and ships it to the upper
// half's new head P_q. After log p rounds every range is a single
// processor and beta is its matrix row.
func sampleRowLog(pr *pro.Proc, rng xrand.Source, rowM, colM []int64) []int64 {
	rank := pr.Rank()
	var beta []int64
	if rank == 0 {
		beta = append([]int64(nil), colM...)
	}
	r, s := 0, pr.P()
	for s-r > 1 {
		q := (r + s) / 2
		switch rank {
		case r:
			var t int64 // mass of the upper half's rows
			for i := q; i < s; i++ {
				t += rowM[i]
			}
			toUp := mhyper.Sample(rng, t, beta)
			for j := range beta {
				beta[j] -= toUp[j]
			}
			pr.AddOps(int64(2 * len(beta)))
			pr.Send(q, toUp) // ownership of toUp transfers to P_q
		case q:
			beta = pr.Recv(r).([]int64)
			pr.AddOps(int64(len(beta)))
		}
		if rank >= q {
			r = q
		} else {
			s = q
		}
	}
	return beta
}

// rowSeg is a fragment of one matrix row produced by the submatrix
// redistribution of Algorithm 6.
type rowSeg struct {
	colStart int
	vals     []int64
}

// SizeBytes implements pro.Sized for faithful byte accounting.
func (r rowSeg) SizeBytes() int { return 8 + 8*len(r.vals) }

// sampleRowOpt is the paper's cost-optimal Algorithm 6. Processor ranges
// halve as in Algorithm 5, but the split alternates between the row
// dimension and the column dimension (the paper's Delta/Nabla), so the
// per-head vectors shrink geometrically. After the loop each processor
// owns the margins of a disjoint submatrix with O(p) entries (equation 9
// of the paper), samples it sequentially with Algorithm 3, and the rows
// are redistributed so processor i ends with global row i.
func sampleRowOpt(pr *pro.Proc, rng xrand.Source, rowM, colM []int64) []int64 {
	rank, p := pr.Rank(), pr.P()
	pp := len(colM)

	// Margin storage for both dimensions, globally indexed; only
	// [lo[d], hi[d]) is meaningful on this processor.
	var dims [2][]int64
	if rank == 0 {
		dims[0] = append([]int64(nil), rowM...)
		dims[1] = append([]int64(nil), colM...)
	} else {
		dims[0] = make([]int64, p)
		dims[1] = make([]int64, pp)
	}
	lo := [2]int{0, 0}
	hi := [2]int{p, pp}

	r, s := 0, p
	delta, nabla := 0, 1 // dimension split this round / next round
	for s-r > 1 {
		q := (r + s) / 2
		qd := (lo[delta] + hi[delta]) / 2
		switch rank {
		case r:
			// Mass of the upper half of the delta margins: the
			// items the upper processor half is responsible for.
			var t int64
			for i := qd; i < hi[delta]; i++ {
				t += dims[delta][i]
			}
			// Ship the upper delta margins unchanged: whole
			// delta-slices belong to one side.
			upper := append([]int64(nil), dims[delta][qd:hi[delta]]...)
			pr.Send(q, upper)
			// Split the nabla margins between the halves.
			nslice := dims[nabla][lo[nabla]:hi[nabla]]
			toUp := mhyper.Sample(rng, t, nslice)
			for j := range nslice {
				nslice[j] -= toUp[j]
			}
			pr.AddOps(int64(len(upper) + 2*len(nslice)))
			pr.Send(q, toUp)
		case q:
			upper := pr.Recv(r).([]int64)
			copy(dims[delta][qd:hi[delta]], upper)
			toUp := pr.Recv(r).([]int64)
			copy(dims[nabla][lo[nabla]:hi[nabla]], toUp)
			pr.AddOps(int64(len(upper) + len(toUp)))
		}
		if rank >= q {
			r = q
			lo[delta] = qd
		} else {
			s = q
			hi[delta] = qd
		}
		delta, nabla = nabla, delta
	}

	// Step 3: sample the local submatrix sequentially.
	subRowM := dims[0][lo[0]:hi[0]]
	subColM := dims[1][lo[1]:hi[1]]
	sub := commat.SampleSeq(rng, subRowM, subColM)
	pr.AddOps(int64(len(subRowM) * len(subColM)))

	// Step 4: redistribute so processor i holds global row i. Row
	// indices coincide with processor ranks (one source block per
	// processor).
	for li := 0; li < sub.Rows(); li++ {
		gi := lo[0] + li
		pr.Send(gi, rowSeg{colStart: lo[1], vals: append([]int64(nil), sub.Row(li)...)})
	}
	row := make([]int64, pp)
	for covered := 0; covered < pp; {
		_, payload := pr.RecvAny()
		seg := payload.(rowSeg)
		copy(row[seg.colStart:seg.colStart+len(seg.vals)], seg.vals)
		covered += len(seg.vals)
	}
	pr.AddOps(int64(pp))
	return row
}

// SampleRows runs one of the parallel matrix sampling algorithms on a
// fresh machine and gathers the complete matrix, mainly for tests and the
// E4 experiment. The returned machine exposes the cost report.
func SampleRows(p int, seed uint64, rowM, colM []int64, alg MatrixAlg) (*commat.Matrix, *pro.Machine, error) {
	if len(rowM) != p {
		return nil, nil, fmt.Errorf("core: %d row margins for %d processors", len(rowM), p)
	}
	m := pro.NewMachine(p)
	streams := xrand.NewStreams(seed, p)
	out := commat.New(p, len(colM))
	err := m.Run(func(pr *pro.Proc) {
		cnt := xrand.NewCounting(streams[pr.Rank()])
		row := SampleRow(pr, cnt, rowM, colM, alg)
		pr.AddDraws(int64(cnt.Count()))
		copy(out.Row(pr.Rank()), row)
	})
	if err != nil {
		return nil, nil, err
	}
	return out, m, nil
}
