package query

import (
	"net/http"
	"net/url"
	"reflect"
	"testing"
)

func TestReader(t *testing.T) {
	for _, c := range []struct {
		name  string
		query string
		read  func(r *Reader) any
		want  any
		err   string
	}{
		{"int default", "", func(r *Reader) any { return r.Int("n", -1) }, int64(-1), ""},
		{"int empty is absent", "n=", func(r *Reader) any { return r.Int("n", 7) }, int64(7), ""},
		{"int negative", "n=-5", func(r *Reader) any { return r.Int("n", 0) }, int64(-5), ""},
		{"int overflow", "n=9223372036854775808", func(r *Reader) any { return r.Int("n", 0) }, int64(0),
			`bad n="9223372036854775808": want a decimal integer`},
		{"int malformed", "n=%2B1x", func(r *Reader) any { return r.Int("n", 0) }, int64(0),
			`bad n="+1x": want a decimal integer`},
		{"count default", "", func(r *Reader) any { return r.Count("len", 9) }, int64(9), ""},
		{"count zero", "len=0", func(r *Reader) any { return r.Count("len", 9) }, int64(0), ""},
		{"count negative", "len=-3", func(r *Reader) any { return r.Count("len", 0) }, int64(0),
			`bad len="-3": want a non-negative decimal integer`},
		{"count overflow", "len=99999999999999999999", func(r *Reader) any { return r.Count("len", 0) }, int64(0),
			`bad len="99999999999999999999": want a non-negative decimal integer`},
		{"required present", "n=3", func(r *Reader) any { return r.Count(r.Required("n"), 0) }, int64(3), ""},
		{"required empty", "n=", func(r *Reader) any { return r.Count(r.Required("n"), 0) }, int64(0), "missing n"},
		{"index absent", "", func(r *Reader) any { return r.Index("i", 100) }, int64(0), "i=-1 outside [0, 100)"},
		{"index last", "i=99", func(r *Reader) any { return r.Index("i", 100) }, int64(99), ""},
		{"index past end", "i=100", func(r *Reader) any { return r.Index("i", 100) }, int64(0), "i=100 outside [0, 100)"},
		{"offset default", "", func(r *Reader) any { return r.Offset("start", 100) }, int64(0), ""},
		{"offset end", "start=100", func(r *Reader) any { return r.Offset("start", 100) }, int64(100), ""},
		{"offset past end", "start=200", func(r *Reader) any { return r.Offset("start", 100) }, int64(0),
			"start=200 outside [0, 100]"},
		{"seed default", "", func(r *Reader) any { return r.Seed("seed") }, uint64(0), ""},
		{"seed max", "seed=18446744073709551615", func(r *Reader) any { return r.Seed("seed") }, uint64(1<<64 - 1), ""},
		{"seed overflow", "seed=18446744073709551616", func(r *Reader) any { return r.Seed("seed") }, uint64(0),
			`bad seed "18446744073709551616": want a decimal uint64`},
		{"seed negative", "seed=-1", func(r *Reader) any { return r.Seed("seed") }, uint64(0),
			`bad seed "-1": want a decimal uint64`},
		{"seq default", "", func(r *Reader) any { return r.Seq("from", 4) }, uint64(4), ""},
		{"seq malformed", "from=x", func(r *Reader) any { return r.Seq("from", 4) }, uint64(0),
			`bad from="x": want a decimal sequence number`},
		{"check", "k=10", func(r *Reader) any {
			k := r.Int("k", -1)
			r.Check(k <= 5, "k=%d outside [0, n=%d]", k, 5)
			return k
		}, int64(10), "k=10 outside [0, n=5]"},
		{"first fault sticks", "n=x&len=-1&seed=y", func(r *Reader) any {
			r.Int("n", 0)
			r.Check(false, "not reported")
			return []any{r.Count("len", 3), r.Seed("seed"), r.Index("i", 10), r.Get("n")}
		}, []any{int64(0), uint64(0), int64(0), ""}, `bad n="x": want a decimal integer`},
		{"reads after a fault are zero", "n=x", func(r *Reader) any {
			r.Int("n", 0)
			return []any{r.Int("m", 5), r.Count("m", 5), r.Offset("m", 5), r.Seq("m", 5)}
		}, []any{int64(0), int64(0), int64(0), uint64(0)}, `bad n="x": want a decimal integer`},
	} {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		r := New(q)
		got := c.read(r)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: read %v, want %v", c.name, got, c.want)
		}
		if gotErr := errString(r.Err()); gotErr != c.err {
			t.Errorf("%s: Err() = %q, want %q", c.name, gotErr, c.err)
		}
	}
}

// TestHeaderSeq: a header is named bare in its fault, and an absent one
// reads as the default.
func TestHeaderSeq(t *testing.T) {
	h := http.Header{}
	r := New(nil)
	if got := r.HeaderSeq(h, "Last-Event-ID", 8); got != 8 || r.Err() != nil {
		t.Fatalf("absent header: %d, %v; want 8, nil", got, r.Err())
	}
	h.Set("Last-Event-ID", "12")
	if got := r.HeaderSeq(h, "Last-Event-ID", 8); got != 12 {
		t.Fatalf("header 12: read %d", got)
	}
	h.Set("Last-Event-ID", "x")
	r.HeaderSeq(h, "Last-Event-ID", 8)
	if want := `bad Last-Event-ID "x": want a decimal sequence number`; errString(r.Err()) != want {
		t.Fatalf("Err() = %q, want %q", errString(r.Err()), want)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
