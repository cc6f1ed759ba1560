package pro

import "fmt"

// Proc is the handle a processor's code uses to communicate and to charge
// costs. A Proc is only valid inside the body passed to Machine.Run and
// must not be shared with other goroutines.
type Proc struct {
	m    *Machine
	rank int
}

// Rank returns this processor's id in [0, P).
func (p *Proc) Rank() int { return p.rank }

// P returns the machine size.
func (p *Proc) P() int { return p.m.p }

// Send transmits payload to processor `to` (self-sends are allowed and
// delivered through the same mailbox). The payload's size in bytes, as
// measured by DefaultSize, is charged to this processor's current
// superstep as outgoing traffic.
func (p *Proc) Send(to int, payload any) {
	if to < 0 || to >= p.m.p {
		panic(fmt.Sprintf("pro: send to invalid rank %d (p=%d)", to, p.m.p))
	}
	size := DefaultSize(payload)
	c := p.m.costs[p.rank].cur()
	c.MsgsOut++
	c.BytesOut += int64(size)
	p.m.inboxes[to].push(message{from: p.rank, payload: payload, size: size})
}

// Recv blocks until a message from processor `from` is available and
// returns its payload. Messages from one source arrive in send order.
func (p *Proc) Recv(from int) any {
	if from < 0 || from >= p.m.p {
		panic(fmt.Sprintf("pro: recv from invalid rank %d (p=%d)", from, p.m.p))
	}
	msg := p.m.inboxes[p.rank].popFrom(from)
	c := p.m.costs[p.rank].cur()
	c.MsgsIn++
	c.BytesIn += int64(msg.size)
	return msg.payload
}

// RecvAny blocks until any message is available and returns its source
// and payload. The order between different sources is scheduling
// dependent; use it only where the protocol is order insensitive (e.g.
// collecting a known quantity of tagged fragments, as in the
// redistribution step of Algorithm 6).
func (p *Proc) RecvAny() (from int, payload any) {
	msg := p.m.inboxes[p.rank].popAny()
	c := p.m.costs[p.rank].cur()
	c.MsgsIn++
	c.BytesIn += int64(msg.size)
	return msg.from, msg.payload
}

// Barrier synchronizes all processors and starts a new superstep for cost
// accounting. Every processor must call Barrier the same number of times.
func (p *Proc) Barrier() {
	p.m.barrier.await()
	p.m.costs[p.rank].advance()
}

// AddOps charges n local operations to the current superstep. The paper's
// algorithms charge one operation per item touched and per hypergeometric
// sample, making the Theta-bounds of Propositions 7-9 directly measurable.
func (p *Proc) AddOps(n int64) { p.m.costs[p.rank].cur().Ops += n }

// AddDraws charges n raw random draws to the current superstep.
func (p *Proc) AddDraws(n int64) { p.m.costs[p.rank].cur().Draws += n }
