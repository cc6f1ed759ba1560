package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"testing"
)

// TestWireGolden pins the exact response bytes of both peer-facing
// binary endpoints for fixed small requests, as length and SHA-256.
// Peers of different builds must interoperate, so the wire format is a
// contract of its own, independent of how either end encodes or
// decodes it: a codec rewrite that changes one byte fails here even
// when both of its own ends still agree with each other.
func TestWireGolden(t *testing.T) {
	nds := bootCluster(t, 3, 6)
	for _, tc := range []struct {
		name, path string
		size       int
		sha256     string
	}{
		// Round 2: source slot 1 (blocks 2, 3) -> target slot 0 (blocks
		// 0, 1), served by slot 1's only replica.
		{"exchange", "/v1/cluster/exchange?n=300&seed=5&p=6&nodes=3&from=1&to=0",
			428, "40129d52258df433e650ed308c4b42bddbfd813ebc14c560cd7453e08194f1fd"},
		// Routed serving: 37 values from inside slot 1's shard [100, 200).
		{"chunk", "/v1/cluster/chunk?n=300&seed=5&start=130&len=37",
			296, "9ecdebfe1aff630a4187be21d6e6761ece85be483ddfc36176c0efd29a2a08eb"},
	} {
		resp, err := http.Get(nds[1].cfg.Peers[1] + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", tc.name, resp.Status, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); len(body) != tc.size || got != tc.sha256 {
			t.Errorf("%s wire bytes changed: %d bytes, sha256 %s; want %d bytes, sha256 %s",
				tc.name, len(body), got, tc.size, tc.sha256)
		}
	}
}
