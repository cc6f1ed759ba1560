// Package commat implements the communication matrices of the paper
// (Section 2): a matrix A = (a_ij) where a_ij is the number of items that
// source block B_i sends to target block B'_j. Valid matrices have
// prescribed row sums (the source block sizes m_i, equation 2) and column
// sums (the target block sizes m'_j, equation 3).
//
// The probability a uniformly random permutation induces a given matrix is
// the classical fixed-margin contingency table distribution (a matrix
// generalization of the multivariate hypergeometric distribution, see
// Section 3 of the paper and LogProb). SampleSeq and SampleRec are the
// paper's Algorithms 3 and 4; Enumerate lists all matrices with given
// margins so tests can chi-square the samplers against the exact law.
package commat

import (
	"fmt"
	"strings"
)

// Matrix is a dense rows x cols matrix of non-negative counts backed by a
// single allocation.
type Matrix struct {
	rows, cols int
	a          []int64
}

// New returns a zero matrix with the given shape. It panics on negative
// dimensions.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("commat: negative dimension")
	}
	return &Matrix{rows: rows, cols: cols, a: make([]int64, rows*cols)}
}

// Rows returns the number of rows (source blocks).
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (target blocks).
func (m *Matrix) Cols() int { return m.cols }

// At returns a_ij.
func (m *Matrix) At(i, j int) int64 { return m.a[i*m.cols+j] }

// Set assigns a_ij = v.
func (m *Matrix) Set(i, j int, v int64) { m.a[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []int64 { return m.a[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.a, m.a)
	return c
}

// Equal reports whether two matrices have the same shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.a {
		if o.a[i] != v {
			return false
		}
	}
	return true
}

// RowSums returns the vector of row sums (equation 2's m_i).
func (m *Matrix) RowSums() []int64 {
	sums := make([]int64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s int64
		for _, v := range m.Row(i) {
			s += v
		}
		sums[i] = s
	}
	return sums
}

// ColSums returns the vector of column sums (equation 3's m'_j).
func (m *Matrix) ColSums() []int64 {
	sums := make([]int64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// Total returns the sum of all entries (the vector length n).
func (m *Matrix) Total() int64 {
	var s int64
	for _, v := range m.a {
		s += v
	}
	return s
}

// CheckMargins verifies that the matrix is a valid communication matrix
// for source sizes rowM and target sizes colM: non-negative entries,
// row sums equal to rowM and column sums equal to colM (equations 2, 3 of
// the paper). It returns a descriptive error on the first violation.
func (m *Matrix) CheckMargins(rowM, colM []int64) error {
	if len(rowM) != m.rows || len(colM) != m.cols {
		return fmt.Errorf("commat: margin shape (%d,%d) does not match matrix (%d,%d)",
			len(rowM), len(colM), m.rows, m.cols)
	}
	for _, v := range m.a {
		if v < 0 {
			return fmt.Errorf("commat: negative entry %d", v)
		}
	}
	for i, want := range rowM {
		var got int64
		for _, v := range m.Row(i) {
			got += v
		}
		if got != want {
			return fmt.Errorf("commat: row %d sums to %d, want %d", i, got, want)
		}
	}
	cols := m.ColSums()
	for j, want := range colM {
		if cols[j] != want {
			return fmt.Errorf("commat: column %d sums to %d, want %d", j, cols[j], want)
		}
	}
	return nil
}

// String renders the matrix one row per line, for debugging and as a
// map key in the exact-law tests.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SumVec returns the sum of a margin vector, panicking on negatives.
func SumVec(v []int64) int64 {
	var s int64
	for _, x := range v {
		if x < 0 {
			panic("commat: negative margin")
		}
		s += x
	}
	return s
}

// checkProblem validates a Problem 2 input: non-negative margins with
// equal totals. It returns the common total n.
func checkProblem(rowM, colM []int64) int64 {
	rn := SumVec(rowM)
	cn := SumVec(colM)
	if rn != cn {
		panic(fmt.Sprintf("commat: margin totals differ (%d vs %d)", rn, cn))
	}
	return rn
}
