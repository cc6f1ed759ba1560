package pro

// Reduce combines one value per processor with a binary operation and
// delivers the result at the root; other ranks receive the zero value of
// T. op must be associative; values are combined in rank order, so
// non-commutative operations are well defined.
func Reduce[T any](p *Proc, root int, v T, op func(a, b T) T) T {
	vals := Gather(p, root, v)
	if p.Rank() != root {
		var zero T
		return zero
	}
	acc := vals[0]
	for _, x := range vals[1:] {
		acc = op(acc, x)
	}
	p.AddOps(int64(p.P()))
	return acc
}
