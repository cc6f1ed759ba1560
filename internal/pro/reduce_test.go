package pro

import "testing"

func TestReduce(t *testing.T) {
	m := NewMachine(6)
	err := m.Run(func(p *Proc) {
		got := Reduce(p, 2, int64(p.Rank()+1), func(a, b int64) int64 { return a + b })
		if p.Rank() == 2 {
			if got != 21 {
				t.Errorf("reduce sum = %d, want 21", got)
			}
		} else if got != 0 {
			t.Errorf("non-root received %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceNonCommutative(t *testing.T) {
	// String concatenation: rank order must be preserved.
	m := NewMachine(4)
	err := m.Run(func(p *Proc) {
		s := string(rune('a' + p.Rank()))
		got := Reduce(p, 0, s, func(a, b string) string { return a + b })
		if p.Rank() == 0 && got != "abcd" {
			t.Errorf("ordered reduce = %q", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
