package main

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"testing"
)

// TestOracleRejectsFlippedByte serves one real chunk, then hands the
// oracle the true body and a copy with one byte flipped.
func TestOracleRejectsFlippedByte(t *testing.T) {
	w := newChunkWarm(7)
	s, err := startRig(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	req := w.next(0)
	resp, err := http.Get(s.st.urls[0] + req.path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v", resp.StatusCode, err)
	}
	bad := append([]byte(nil), body...)
	bad[len(bad)/2] ^= 0x01
	k := reqKey{seed: req.seed, arg: req.arg, verify: true}
	var answers tally
	for _, b := range [][]byte{body, bad} {
		answers.add(crc32.Checksum(b, castagnoli))
	}
	s.conns[0].tallies[k] = answers
	res, err := check(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 2 || res.Failed != 1 || res.Correct {
		t.Errorf("got %+v, want 2 attempted, 1 failed", res)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer map[string]string) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameMetrics fails unless got reports exactly the declared metrics, in
// the declared units.
func sameMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: %s = %+v, want unit %q", label, name, m, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s is not in BENCHMARK.json", label, name)
		}
	}
}

// TestSmoke runs every workload briefly with no failed operation and
// checks that the runs print exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and drives traffic")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, name := range workloadNames {
		res, err := runWorkload(runConfig{workload: name, seed: 3, seconds: 0.25}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed", name, res.Attempted, res.Failed)
		}
		sameMetrics(t, name, res.Metrics, endToEnd)
		for k, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", name, k, m.Value)
			}
		}
	}
	res, err := runWorkload(runConfig{workload: "cluster-cold", seed: 3, seconds: 0.5, trace: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced cluster-cold: %d attempted, %d failed", res.Attempted, res.Failed)
	}
	sameMetrics(t, "traced cluster-cold", res.Metrics, perLayer)
	for _, k := range []string{"service.self_us", "transport.us_per_req", "cluster.round2_ms", "cluster.proxy_serve_ms"} {
		if v := res.Metrics[k].Value; v <= 0 {
			t.Errorf("traced cluster-cold: %s = %g, want > 0", k, v)
		}
	}
	if d := res.Metrics["events.dropped"].Value; d != 0 {
		t.Errorf("traced cluster-cold: %g round events dropped", d)
	}
}
