// Native fuzz targets for the quota flag grammar — the config surface
// an operator types under pressure during an overload incident — and
// for the decimal encoder every served value passes through. CI runs a
// short -fuzztime smoke; longer local runs:
//
//	go test -run='^$' -fuzz=FuzzParseQuotaSpec -fuzztime=60s ./internal/service
package service

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecimalLine: for any int64 the encoder writes exactly strconv's
// decimal and a newline, leaves the bytes already in its buffer alone,
// and a decimalWriter whose page has only the minimum room for one
// line (every value a page write of its own) emits the same bytes.
func FuzzDecimalLine(f *testing.F) {
	for _, v := range []int64{0, 9, 10, 99_999_999, 100_000_000, 1e15 + 7, 1e16, 1e18, math.MaxInt64, -1, math.MinInt64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int64) {
		want := strconv.AppendInt(nil, v, 10)
		want = append(want, '\n')
		got := appendDecimalLine(append(make([]byte, 0, 3+maxDecimalLine), "ab\n"...), v)
		if string(got) != "ab\n"+string(want) {
			t.Fatalf("appendDecimalLine(%d) = %q, want %q", v, got[3:], want)
		}
		var out strings.Builder
		dw := newDecimalWriter(&out, make([]byte, 0, maxDecimalLine))
		if err := dw.write([]int64{v, v}); err != nil {
			t.Fatal(err)
		}
		if err := dw.flush(); err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want)+string(want) {
			t.Fatalf("decimalWriter(%d) = %q, want %q twice", v, out.String(), want)
		}
	})
}

// FuzzParseQuotaSpec: the parser must never panic, every accepted spec
// must be usable (positive burst or explicitly unlimited, finite
// non-negative rate), and the spec's own String() must parse back to
// the identical spec — what `permd -h` prints as a default must be
// pasteable as a flag value.
func FuzzParseQuotaSpec(f *testing.F) {
	for _, s := range []string{
		"off", "", "unlimited", "5000/s", "5000/s:20000", "300000/m",
		"0/s:1280", "1.5/s", "7200/h:100", "5/d", "-1/s", "5/s:0",
		"1e300/s", "NaN/s", "Inf/s", "5/s:9223372036854775807", "/s", ":", "5//s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseQuotaSpec(s)
		if err != nil {
			return
		}
		if !spec.Unlimited() && (spec.Burst <= 0 || spec.Rate < 0 || spec.Rate != spec.Rate) {
			t.Fatalf("ParseQuotaSpec(%q) accepted unusable spec %+v", s, spec)
		}
		back, err := ParseQuotaSpec(spec.String())
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not parse: %v", spec.String(), s, err)
		}
		if back != spec {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", s, spec, spec.String(), back)
		}
	})
}

// FuzzParseQuotaOverrides: the per-client list form must never panic,
// and every accepted map contains only usable specs under non-empty
// client names.
func FuzzParseQuotaOverrides(f *testing.F) {
	for _, s := range []string{
		"etl=50000/s:200000,canary=off", "a=5/s", "", "  ", "a=b=c",
		"=5/s", "a=5/s,a=6/s", ",", "x=0/s:1,y=1/m:2,z=unlimited",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseQuotaOverrides(s)
		if err != nil {
			return
		}
		for name, spec := range m {
			if name == "" {
				t.Fatalf("ParseQuotaOverrides(%q) accepted an empty client name", s)
			}
			if !spec.Unlimited() && spec.Burst <= 0 {
				t.Fatalf("ParseQuotaOverrides(%q) accepted unusable spec %+v for %q", s, spec, name)
			}
		}
	})
}
