package pro

import (
	"fmt"
)

// The collectives below are the standard coarse-grained building blocks
// (one superstep each in BSP terms). They are free functions rather than
// methods so they can be generic over the payload type.

// Bcast distributes v from the root processor to all processors and
// returns the broadcast value on every processor. Non-root callers pass
// the zero value.
func Bcast[T any](p *Proc, root int, v T) T {
	if p.Rank() == root {
		for dst := 0; dst < p.P(); dst++ {
			if dst != root {
				p.Send(dst, v)
			}
		}
		return v
	}
	return recvAs[T](p, root)
}

// Gather collects one value from every processor at the root. On the root
// it returns a slice indexed by rank; elsewhere it returns nil.
func Gather[T any](p *Proc, root int, v T) []T {
	if p.Rank() != root {
		p.Send(root, v)
		return nil
	}
	out := make([]T, p.P())
	out[root] = v
	for src := 0; src < p.P(); src++ {
		if src != root {
			out[src] = recvAs[T](p, src)
		}
	}
	return out
}

// Scatter distributes vals[rank] from the root to each processor and
// returns the local element. Only the root's vals is consulted; it must
// have length P.
func Scatter[T any](p *Proc, root int, vals []T) T {
	if p.Rank() == root {
		if len(vals) != p.P() {
			panic(fmt.Sprintf("pro: Scatter with %d values on machine of %d", len(vals), p.P()))
		}
		for dst := 0; dst < p.P(); dst++ {
			if dst != root {
				p.Send(dst, vals[dst])
			}
		}
		return vals[root]
	}
	return recvAs[T](p, root)
}

// AllToAll performs a personalized all-to-all exchange: out[j] is sent to
// processor j, and the returned slice holds in[i] = the value processor i
// sent here. This is exactly one h-relation of the BSP model; Algorithm
// 1's data exchange is an AllToAll of item slices.
func AllToAll[T any](p *Proc, out []T) []T {
	if len(out) != p.P() {
		panic(fmt.Sprintf("pro: AllToAll with %d values on machine of %d", len(out), p.P()))
	}
	for dst := 0; dst < p.P(); dst++ {
		p.Send(dst, out[dst])
	}
	in := make([]T, p.P())
	for src := 0; src < p.P(); src++ {
		in[src] = recvAs[T](p, src)
	}
	return in
}

// AllGather collects one value from every processor on every processor.
func AllGather[T any](p *Proc, v T) []T {
	out := make([]T, p.P())
	for i := range out {
		out[i] = v
	}
	return AllToAll(p, out)
}

// recvAs receives from src and type-asserts the payload, converting a
// protocol mismatch into a descriptive panic.
func recvAs[T any](p *Proc, src int) T {
	raw := p.Recv(src)
	v, ok := raw.(T)
	if !ok {
		panic(fmt.Sprintf("pro: rank %d received %T from %d, protocol mismatch", p.Rank(), raw, src))
	}
	return v
}
