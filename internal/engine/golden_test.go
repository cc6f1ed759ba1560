package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestBijectionGolden pins the exact output of the batch evaluator: the
// SHA-256 of Chunk over three 1000-index windows (start, middle and end
// of the domain, each value little-endian), for domains on both sides
// of every Feistel half width the lane loop treats differently, at the
// default depth and at an odd depth whose last round runs alone. The
// keyed family is a contract — permd's served bytes, epoch shuffles and
// cluster shards are all functions of it — so an evaluator rewrite that
// changes one value fails here even if Chunk still agrees with Index.
func TestBijectionGolden(t *testing.T) {
	for _, tc := range []struct {
		n      int64
		rounds int
		sha256 string
	}{
		{10, 12, "c5786d7db921c3d070ac57174801dc836596cd2f8718e8b3d25b0266abcd851c"},
		{1000, 12, "3f1b4f8d6ba37881981fb3398fa41c3c395a7736912955add6878283c431c74b"},
		{1 << 40, 12, "13aef8eb1d40b7c3d3fd979ae8c1ac6582a595a4864e941b46888e3c08f60caa"},
		{1 << 60, 12, "b833ae07d5b6931d0e0444da1841bfd4536bbc4c1af7e4db3ed87923a3ad6d38"},
		{1<<60 + 1, 12, "ea5ef8f1fab71b6b31c0c24da69c2c6b4a4a8f7013c8d2ec10e0f01341d7a806"},
		{1<<62 + 3, 12, "e57357a270a8d12e314a4e7fb196b8aa8e4ad666378c3c27f1427dddb03f114b"},
		{math.MaxInt64, 12, "0f77622f4e87539c8bec5aadfa15214f1c75d7f60136938095198a0eef227235"},
		{10, 3, "bbce05671283bb13e49e70736554a144bd7423e8c9d14873e496083b76ab8b86"},
		{1000, 3, "52266eb6db700295dc23d1b57c2cf374c4c83bf913f3c8638fd62a9cff12ed8b"},
		{1 << 40, 3, "0896870ff426fba79447eb272f4f7e15ae2fc643a481f14716496cac3b80f72a"},
		{1 << 60, 3, "f96cdc7f660638bb065ce49ebcb2e5766bd6ef52142ef38d3fcc0181721415c6"},
		{1<<60 + 1, 3, "a50125d3fd5528d6166e8f502beb27284834f5baca3d9f01bfe05acd7f82ac73"},
		{1<<62 + 3, 3, "8b97f1614a1d0ce551c98e4af17909301f8c416caf9f96924d650fb31f0cffa2"},
		{math.MaxInt64, 3, "a34d3ab4b76842c982e4710b301fec8572e80d372b8a9660a7a88591d8c51692"},
	} {
		b := NewBijectionRounds(tc.n, 0x5EED, tc.rounds)
		w := min(tc.n, 1000)
		h := sha256.New()
		var le [8]byte
		for _, start := range []int64{0, tc.n/2 - w/2, tc.n - w} {
			dst := make([]int64, w)
			b.Chunk(dst, start)
			for _, v := range dst {
				binary.LittleEndian.PutUint64(le[:], uint64(v))
				h.Write(le[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
			t.Errorf("n=%d rounds=%d: Chunk output changed: sha256 %s, want %s", tc.n, tc.rounds, got, tc.sha256)
		}
	}
}
