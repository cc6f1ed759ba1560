package engine

// hasAVX512 reports whether this host runs feistel64: the CPU has
// AVX-512F (the zmm registers) and AVX-512DQ (VPMULLQ), and the OS
// saves the opmask and all 32 zmm registers across context switches.
var hasAVX512 = detectAVX512()

func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false // no OSXSAVE: XGETBV would fault
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	if _, ebx, _, _ := cpuid(7, 0); ebx&(avx512f|avx512dq) != avx512f|avx512dq {
		return false
	}
	// XCR0 bits 1 and 2 (xmm, ymm), 5 (opmask), 6 (zmm0-15 upper
	// halves) and 7 (zmm16-31).
	return xgetbv()&0xE6 == 0xE6
}

// feistel64 sets out[l] = encrypt(base+l) for l in [0, 64): the
// premixed network (halves of at most 30 bits) keyed by pre, with
// every lane in zmm registers. Implemented in feistel_amd64.s; callers
// must check hasAVX512.
//
//go:noescape
func feistel64(out *[bijLanes]uint64, base uint64, pre []uint64, half uint, mask uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the state components the OS
// saves.
func xgetbv() (xcr0 uint32)
