package service

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"testing"
)

// TestChunkBodyGolden pins the exact bytes permd serves for two warm
// bijective chunks, as length and SHA-256: a default-length read of a
// 2^40 domain (13-digit values, the chunk-warm benchmark's request) and
// a mid-domain read of a 10^7 domain (7-digit values). The byte-identity
// tests compare the daemon against the library; this one pins both, so
// an engine or encoder rewrite that moves one byte fails here even when
// the two still agree with each other.
func TestChunkBodyGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		path   string
		size   int
		sha256 string
	}{
		{"/v1/perm/42/chunk?n=1099511627776&len=65536", 851255, "d9e6b61755299d92170a76bb94bd155d39c0c782991eed01fbf0b33e575adfa2"},
		{"/v1/perm/42/chunk?n=10000000&start=5000000&len=65536", 516930, "9e01671eb58aae2b9188be75235a1bf9d0101bc2273abbbb4601697e3d1c4c47"},
	} {
		code, body := get(t, s, tc.path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, code, body)
		}
		sum := sha256.Sum256([]byte(body))
		if got := hex.EncodeToString(sum[:]); len(body) != tc.size || got != tc.sha256 {
			t.Errorf("%s: served bytes changed: %d bytes, sha256 %s; want %d bytes, sha256 %s",
				tc.path, len(body), got, tc.size, tc.sha256)
		}
	}
}
