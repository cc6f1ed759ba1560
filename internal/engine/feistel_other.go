//go:build !amd64

package engine

// hasAVX512 is false off amd64: Bijection.Chunk runs the Go lane loop.
const hasAVX512 = false

// feistel64 is never called off amd64.
func feistel64(out *[bijLanes]uint64, base uint64, pre []uint64, half uint, mask uint64) {
	panic("engine: feistel64 without AVX-512")
}
