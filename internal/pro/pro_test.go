package pro

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunAllRanks(t *testing.T) {
	m := NewMachine(7)
	var mask int64
	err := m.Run(func(p *Proc) {
		atomic.AddInt64(&mask, 1<<uint(p.Rank()))
		if p.P() != 7 {
			t.Errorf("P() = %d", p.P())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mask != 127 {
		t.Fatalf("ranks mask = %b", mask)
	}
}

func TestNewMachinePanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p=0 did not panic")
		}
	}()
	NewMachine(0)
}

func TestSendRecvFIFO(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 100; i++ {
				p.Send(1, i)
			}
		} else {
			for i := 0; i < 100; i++ {
				if got := p.Recv(0).(int); got != i {
					t.Errorf("message %d arrived as %d", i, got)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesSource(t *testing.T) {
	// Messages from different sources must be separable even when they
	// interleave arbitrarily.
	m := NewMachine(3)
	err := m.Run(func(p *Proc) {
		switch p.Rank() {
		case 0, 1:
			for i := 0; i < 50; i++ {
				p.Send(2, p.Rank()*1000+i)
			}
		case 2:
			// Drain source 1 first even though 0 may arrive first.
			for i := 0; i < 50; i++ {
				if got := p.Recv(1).(int); got != 1000+i {
					t.Errorf("from 1: got %d want %d", got, 1000+i)
					return
				}
			}
			for i := 0; i < 50; i++ {
				if got := p.Recv(0).(int); got != i {
					t.Errorf("from 0: got %d want %d", got, i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	m := NewMachine(1)
	err := m.Run(func(p *Proc) {
		p.Send(0, "hello")
		if got := p.Recv(0).(string); got != "hello" {
			t.Errorf("self-send got %q", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnyCollectsAll(t *testing.T) {
	m := NewMachine(5)
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			seen := make(map[int]bool)
			for i := 0; i < 4; i++ {
				from, payload := p.RecvAny()
				if payload.(int) != from*7 {
					t.Errorf("payload mismatch from %d", from)
				}
				seen[from] = true
			}
			if len(seen) != 4 {
				t.Errorf("saw %d distinct sources", len(seen))
			}
		} else {
			p.Send(0, p.Rank()*7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSeparatesSupersteps(t *testing.T) {
	m := NewMachine(4)
	err := m.Run(func(p *Proc) {
		p.Barrier()
		p.Barrier()
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := m.Report(); r.Supersteps != 4 {
		t.Fatalf("report supersteps = %d, want 4", r.Supersteps)
	}
}

func TestPanicPropagation(t *testing.T) {
	m := NewMachine(4)
	err := m.Run(func(p *Proc) {
		if p.Rank() == 2 {
			panic("deliberate failure")
		}
		// Everyone else blocks; the poison must release them.
		p.Recv(3)
	})
	if err == nil {
		t.Fatal("panic was not propagated")
	}
	if !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("error lost the cause: %v", err)
	}
	// The machine must be reusable after a failure.
	if err := m.Run(func(p *Proc) {}); err != nil {
		t.Fatalf("machine unusable after failure: %v", err)
	}
}

func TestPanicInBarrier(t *testing.T) {
	m := NewMachine(3)
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			panic("boom")
		}
		p.Barrier()
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(5, 1)
		}
	})
	if err == nil {
		t.Fatal("send to invalid rank must fail the run")
	}
}

func TestCostAccounting(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(p *Proc) {
		p.AddOps(10)
		p.AddDraws(3)
		if p.Rank() == 0 {
			p.Send(1, []int64{1, 2, 3}) // 24 bytes
		}
		p.Barrier()
		if p.Rank() == 1 {
			p.Recv(0)
			p.AddOps(5)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	if r.TotalOps() != 25 {
		t.Fatalf("total ops = %d, want 25", r.TotalOps())
	}
	if r.TotalDraws() != 6 {
		t.Fatalf("total draws = %d, want 6", r.TotalDraws())
	}
	c0 := m.Cost(0).Totals()
	if c0.BytesOut != 24 || c0.MsgsOut != 1 {
		t.Fatalf("sender cost: %+v", c0)
	}
	c1 := m.Cost(1).Totals()
	if c1.BytesIn != 24 || c1.MsgsIn != 1 {
		t.Fatalf("receiver cost: %+v", c1)
	}
	// h-relation of superstep 0 is the send (24 bytes out at rank 0).
	if r.Steps[0].H != 24 {
		t.Fatalf("superstep 0 h = %d, want 24", r.Steps[0].H)
	}
	if r.MaxOps() != 10+5 && r.MaxOps() != 10 {
		t.Fatalf("max ops = %d", r.MaxOps())
	}
}

func TestHRelationAllToAll(t *testing.T) {
	// A balanced all-to-all of k-byte payloads per pair has h-relation
	// p*k in its superstep.
	const p = 4
	m := NewMachine(p)
	payload := make([]byte, 100)
	err := m.Run(func(pr *Proc) {
		out := make([][]byte, p)
		for j := range out {
			out[j] = payload
		}
		AllToAll(pr, out)
		pr.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	r := m.Report()
	if r.Steps[0].H != p*100 {
		t.Fatalf("h-relation = %d, want %d", r.Steps[0].H, p*100)
	}
}

func TestCostsChargedToCorrectSuperstep(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(p *Proc) {
		p.AddOps(3)
		p.Barrier()
		p.AddOps(5)
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := m.Cost(0).Steps()
	if steps[0].Ops != 3 || steps[1].Ops != 5 {
		t.Fatalf("per-step ops: %+v", steps)
	}
}

func TestModelTime(t *testing.T) {
	r := Report{
		Steps: []StepSummary{{W: 100, H: 10}, {W: 50, H: 20}},
	}
	got := r.ModelTime(2, 5)
	want := float64(100+2*10+5) + float64(50+2*20+5)
	if got != want {
		t.Fatalf("ModelTime = %g, want %g", got, want)
	}
}

func TestProfileString(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(p *Proc) {
		p.AddOps(7)
		if p.Rank() == 0 {
			p.Send(1, []int64{1, 2})
		} else {
			p.Recv(0)
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := m.Report().ProfileString()
	for _, want := range []string{"p=2", "2 supersteps", "W (max ops)", "16", "totals:"} {
		if !strings.Contains(prof, want) {
			t.Fatalf("profile missing %q:\n%s", want, prof)
		}
	}
}

func TestBcast(t *testing.T) {
	m := NewMachine(5)
	err := m.Run(func(p *Proc) {
		var v int
		if p.Rank() == 2 {
			v = 99
		}
		got := Bcast(p, 2, v)
		if got != 99 {
			t.Errorf("rank %d got %d", p.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatter(t *testing.T) {
	m := NewMachine(4)
	err := m.Run(func(p *Proc) {
		got := Gather(p, 0, p.Rank()*11)
		if p.Rank() == 0 {
			for i, v := range got {
				if v != i*11 {
					t.Errorf("gather[%d] = %d", i, v)
				}
			}
			out := []string{"a", "b", "c", "d"}
			if s := Scatter(p, 0, out); s != "a" {
				t.Errorf("root scatter got %q", s)
			}
		} else {
			if got != nil {
				t.Errorf("non-root gather returned %v", got)
			}
			want := string(rune('a' + p.Rank()))
			if s := Scatter[string](p, 0, nil); s != want {
				t.Errorf("rank %d scatter got %q want %q", p.Rank(), s, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	const p = 6
	m := NewMachine(p)
	err := m.Run(func(pr *Proc) {
		out := make([]int, p)
		for j := range out {
			out[j] = pr.Rank()*100 + j
		}
		in := AllToAll(pr, out)
		for i, v := range in {
			if v != i*100+pr.Rank() {
				t.Errorf("rank %d in[%d] = %d", pr.Rank(), i, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	m := NewMachine(3)
	err := m.Run(func(p *Proc) {
		all := AllGather(p, int64(p.Rank()))
		for i, v := range all {
			if v != int64(i) {
				t.Errorf("allgather[%d] = %d", i, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllWrongLenPanics(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(p *Proc) {
		AllToAll(p, make([]int, 3))
	})
	if err == nil {
		t.Fatal("wrong-length AllToAll must fail")
	}
}

func TestProtocolMismatchPanics(t *testing.T) {
	m := NewMachine(2)
	err := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, "not an int")
		} else {
			_ = recvAs[int](p, 0)
		}
	})
	if err == nil {
		t.Fatal("type mismatch must fail the run")
	}
	if !strings.Contains(err.Error(), "protocol mismatch") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestDefaultSize(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{[]int64{1, 2, 3}, 24},
		{[]byte("abcd"), 4},
		{"hello", 5},
		{int64(1), 8},
		{int32(1), 4},
		{true, 1},
		{[]float64{1}, 8},
		{[]uint32{1, 2}, 8},
		{[2]int64{1, 2}, 16},          // reflect fallback: array
		{struct{ A, B int64 }{}, 16},  // reflect fallback: struct
		{[]struct{ A int64 }{{1}}, 8}, // reflect fallback: slice of structs
	}
	for _, c := range cases {
		if got := DefaultSize(c.v); got != c.want {
			t.Fatalf("DefaultSize(%T) = %d, want %d", c.v, got, c.want)
		}
	}
}

type customSized struct{}

func (customSized) SizeBytes() int { return 123 }

func TestSizedInterface(t *testing.T) {
	if got := DefaultSize(customSized{}); got != 123 {
		t.Fatalf("Sized payload measured as %d", got)
	}
}

func TestManyRunsAccumulate(t *testing.T) {
	m := NewMachine(3)
	for i := 0; i < 5; i++ {
		if err := m.Run(func(p *Proc) { p.AddOps(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Report().TotalOps(); got != 15 {
		t.Fatalf("accumulated ops = %d, want 15", got)
	}
}

func TestStressManyMessages(t *testing.T) {
	const p = 8
	const msgs = 500
	m := NewMachine(p)
	err := m.Run(func(pr *Proc) {
		for round := 0; round < msgs; round++ {
			for dst := 0; dst < p; dst++ {
				pr.Send(dst, pr.Rank())
			}
			sum := 0
			for src := 0; src < p; src++ {
				sum += pr.Recv(src).(int)
			}
			if sum != p*(p-1)/2 {
				t.Errorf("round %d: sum = %d", round, sum)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrier(b *testing.B) {
	m := NewMachine(8)
	err := m.Run(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSendRecv(b *testing.B) {
	// Ping-pong in windows of 64 so the unbounded mailbox stays small
	// (a free-running sender would otherwise queue b.N messages).
	const window = 64
	m := NewMachine(2)
	payload := make([]int64, 128)
	err := m.Run(func(p *Proc) {
		peer := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.Send(1, payload)
			} else {
				p.Recv(0)
			}
			if i%window == window-1 {
				// Reverse ack bounds the in-flight window.
				if p.Rank() == 0 {
					p.Recv(peer)
				} else {
					p.Send(peer, struct{}{})
				}
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
