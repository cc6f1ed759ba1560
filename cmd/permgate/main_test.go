package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a minimal compare-report JSON into dir and returns its path.
func write(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baseJSON = `{
  "results": [
    {"backend": "shmem", "ns_per_item": 7.0},
    {"backend": "bijective", "ns_per_item": 40.0}
  ],
  "serving": {"ns_per_item": 30.0}
}`

func TestGatePassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", baseJSON)
	cur := write(t, dir, "cur.json", `{
	  "results": [
	    {"backend": "shmem", "ns_per_item": 8.0},
	    {"backend": "bijective", "ns_per_item": 35.0}
	  ],
	  "serving": {"ns_per_item": 33.0}
	}`)
	var out strings.Builder
	pass, err := run([]string{"-baseline", base, "-current", cur}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !pass {
		t.Fatalf("gate failed within tolerance:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("verdict missing PASS line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "improved") {
		t.Fatalf("improved backend not reported:\n%s", out.String())
	}
}

func TestGateFailsOnSyntheticRegression(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", baseJSON)
	// shmem at 2x baseline: the synthetic regression the CI gate must
	// catch (acceptance criterion of the perf-gate issue).
	cur := write(t, dir, "cur.json", `{
	  "results": [
	    {"backend": "shmem", "ns_per_item": 14.0},
	    {"backend": "bijective", "ns_per_item": 35.0}
	  ]
	}`)
	var out strings.Builder
	pass, err := run([]string{"-baseline", base, "-current", cur}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if pass {
		t.Fatalf("gate passed a 2x regression:\n%s", out.String())
	}
	for _, want := range []string{"REGRESSED", "FAIL"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("verdict missing %q:\n%s", want, out.String())
		}
	}
}

func TestGateFailsOnMissingBackend(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", baseJSON)
	cur := write(t, dir, "cur.json", `{
	  "results": [{"backend": "shmem", "ns_per_item": 7.0}]
	}`)
	var out strings.Builder
	pass, err := run([]string{"-baseline", base, "-current", cur}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if pass {
		t.Fatal("gate passed with a backend missing from the current report")
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Fatalf("verdict missing MISSING line:\n%s", out.String())
	}
}

func TestGateTolerance(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", `{"results": [{"backend": "shmem", "ns_per_item": 10.0}]}`)
	cur := write(t, dir, "cur.json", `{"results": [{"backend": "shmem", "ns_per_item": 12.0}]}`)
	var out strings.Builder
	// 20% over: fails at tolerance 0.1, passes at 0.3.
	pass, err := run([]string{"-baseline", base, "-current", cur, "-tolerance", "0.1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if pass {
		t.Fatal("20% regression passed a 10% tolerance")
	}
	pass, err = run([]string{"-baseline", base, "-current", cur, "-tolerance", "0.3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !pass {
		t.Fatal("20% regression failed a 30% tolerance")
	}
}

func TestGateRequiresCurrent(t *testing.T) {
	var out strings.Builder
	if _, err := run(nil, &out); err == nil {
		t.Fatal("missing -current accepted")
	}
}
