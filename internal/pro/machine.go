// Package pro simulates the coarse grained parallel machine of the PRO
// model (Gebremedhin, Guérin Lassous, Gustedt, Telle 2002), the setting of
// the paper. A Machine consists of p homogeneous "processors", each run as
// a goroutine, connected by a complete point-to-point network:
//
//   - Send/Recv move messages between processors; each destination owns a
//     FIFO mailbox per source, so matched communication is deterministic.
//   - Barrier separates supersteps; communication cost is accounted to the
//     superstep in which the send happened, which is what the BSP cost
//     formula T = sum_s (w_s + g*h_s + L) needs.
//   - Every processor carries counters for local operations, random draws,
//     messages and bytes, so the Theta-bounds of the paper (Propositions
//     7-9, Theorems 1-2) can be measured rather than trusted.
//
// Message delivery is immediate (MPI-style) rather than delayed to the
// next superstep: Recv blocks until the matching message exists. This is
// conservative with respect to BSP semantics - any BSP-correct program is
// correct here, and the cost accounting is unchanged because costs attach
// to sends.
package pro

import (
	"fmt"
	"sync"
)

// Machine is a simulated p-processor coarse grained machine. Create one
// with NewMachine, run SPMD code with Run, then read Report for the cost
// accounting.
type Machine struct {
	p        int
	inboxes  []*mailbox
	barrier  *barrier
	costs    []*Cost
	maxSuper int // high-water mark of superstep counters
}

// NewMachine creates a machine with p processors. It panics if p < 1.
func NewMachine(p int) *Machine {
	if p < 1 {
		panic("pro: machine needs at least one processor")
	}
	m := &Machine{
		p:       p,
		inboxes: make([]*mailbox, p),
		barrier: newBarrier(p),
		costs:   make([]*Cost, p),
	}
	for i := range m.inboxes {
		m.inboxes[i] = newMailbox(p)
		m.costs[i] = newCost()
	}
	return m
}

// P returns the number of processors.
func (m *Machine) P() int { return m.p }

// Run executes body once per processor, each in its own goroutine, and
// blocks until all of them return. The *Proc passed to body identifies
// the processor and provides communication and accounting.
//
// A panic in any processor is captured, the remaining processors are
// released (their channel operations are poisoned by closing the
// machine), and the panic is returned as an error annotated with the
// processor rank. Run may be called several times on the same machine;
// cost counters accumulate across runs.
func (m *Machine) Run(body func(*Proc)) error {
	var wg sync.WaitGroup
	errs := make([]error, m.p)
	secondary := make([]bool, m.p)
	wg.Add(m.p)
	for rank := 0; rank < m.p; rank++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("pro: processor %d panicked: %v", rank, r)
					// Processors unwound by the poison are
					// collateral damage, not the root cause.
					_, secondary[rank] = r.(poisonError)
					m.barrier.poison()
					for _, in := range m.inboxes {
						in.poison()
					}
				}
			}()
			body(&Proc{m: m, rank: rank})
		}(rank)
	}
	wg.Wait()
	m.barrier.reset()
	for _, in := range m.inboxes {
		in.unpoison()
	}
	// One pass, preferring root causes: a processor unwound by the
	// poison is collateral damage and is only reported when no
	// processor failed on its own.
	var collateral error
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if !secondary[rank] {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		if collateral == nil {
			collateral = fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	if collateral != nil {
		return collateral
	}
	for _, c := range m.costs {
		if s := c.superstep(); s > m.maxSuper {
			m.maxSuper = s
		}
	}
	return nil
}

// Cost returns the accumulated cost counters of processor rank.
func (m *Machine) Cost(rank int) *Cost { return m.costs[rank] }
