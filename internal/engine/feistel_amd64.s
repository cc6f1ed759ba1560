#include "textflag.h"

// The AVX-512 Feistel kernel behind Bijection.Chunk: 64 consecutive
// indexes encrypted in registers, eight zmm vectors of eight lanes per
// Feistel half. VPMULLQ has ~15 cycles of latency, so eight
// independent vectors are what keeps the multiplier busy.
//
// Register map:
//	Z0-Z7    the left halves   (Z8-Z15 after an odd round)
//	Z8-Z15   the right halves  (Z0-Z7 after an odd round)
//	Z16-Z23  the round function's value, one per vector
//	Z24-Z27  xorshift scratch; Z24 and Z26 also carry setup constants
//	         (the lane stride, the half width) outside the rounds
//	Z28, Z29 the two SplitMix64 multipliers
//	Z30      the half mask
//	Z31      the round's premixed key

DATA iota<>+0(SB)/8, $0
DATA iota<>+8(SB)/8, $1
DATA iota<>+16(SB)/8, $2
DATA iota<>+24(SB)/8, $3
DATA iota<>+32(SB)/8, $4
DATA iota<>+40(SB)/8, $5
DATA iota<>+48(SB)/8, $6
DATA iota<>+56(SB)/8, $7
GLOBL iota<>(SB), RODATA|NOPTR, $64

// XORSHIFT8 sets Z16-Z23 ^= Z16-Z23 >> S.
#define XORSHIFT8(S) \
	VPSRLQ $S, Z16, Z24; VPSRLQ $S, Z17, Z25; VPSRLQ $S, Z18, Z26; VPSRLQ $S, Z19, Z27; \
	VPXORQ Z24, Z16, Z16; VPXORQ Z25, Z17, Z17; VPXORQ Z26, Z18, Z18; VPXORQ Z27, Z19, Z19; \
	VPSRLQ $S, Z20, Z24; VPSRLQ $S, Z21, Z25; VPSRLQ $S, Z22, Z26; VPSRLQ $S, Z23, Z27; \
	VPXORQ Z24, Z20, Z20; VPXORQ Z25, Z21, Z21; VPXORQ Z26, Z22, Z22; VPXORQ Z27, Z23, Z23

// MUL8 sets Z16-Z23 *= C.
#define MUL8(C) \
	VPMULLQ C, Z16, Z16; VPMULLQ C, Z17, Z17; VPMULLQ C, Z18, Z18; VPMULLQ C, Z19, Z19; \
	VPMULLQ C, Z20, Z20; VPMULLQ C, Z21, Z21; VPMULLQ C, Z22, Z22; VPMULLQ C, Z23, Z23

// ROUND is one premixed Feistel round over eight vectors, keyed by
// Z31: D ^= feistelMix(S ^ key) & mask. The halves then swap roles,
// which the caller expresses by naming them the other way round in
// the next ROUND.
#define ROUND(S0, S1, S2, S3, S4, S5, S6, S7, D0, D1, D2, D3, D4, D5, D6, D7) \
	VPXORQ Z31, S0, Z16; VPXORQ Z31, S1, Z17; VPXORQ Z31, S2, Z18; VPXORQ Z31, S3, Z19; \
	VPXORQ Z31, S4, Z20; VPXORQ Z31, S5, Z21; VPXORQ Z31, S6, Z22; VPXORQ Z31, S7, Z23; \
	MUL8(Z28); \
	XORSHIFT8(27); \
	MUL8(Z29); \
	XORSHIFT8(31); \
	VPTERNLOGQ $0x78, Z30, Z16, D0; VPTERNLOGQ $0x78, Z30, Z17, D1; \
	VPTERNLOGQ $0x78, Z30, Z18, D2; VPTERNLOGQ $0x78, Z30, Z19, D3; \
	VPTERNLOGQ $0x78, Z30, Z20, D4; VPTERNLOGQ $0x78, Z30, Z21, D5; \
	VPTERNLOGQ $0x78, Z30, Z22, D6; VPTERNLOGQ $0x78, Z30, Z23, D7

// STORE writes the 64 results L<<half | R to (DI); BX holds half.
#define STORE(L0, L1, L2, L3, L4, L5, L6, L7, R0, R1, R2, R3, R4, R5, R6, R7) \
	VPBROADCASTQ BX, Z26; \
	VPSLLVQ Z26, L0, L0; VPSLLVQ Z26, L1, L1; VPSLLVQ Z26, L2, L2; VPSLLVQ Z26, L3, L3; \
	VPSLLVQ Z26, L4, L4; VPSLLVQ Z26, L5, L5; VPSLLVQ Z26, L6, L6; VPSLLVQ Z26, L7, L7; \
	VPORQ R0, L0, L0; VPORQ R1, L1, L1; VPORQ R2, L2, L2; VPORQ R3, L3, L3; \
	VPORQ R4, L4, L4; VPORQ R5, L5, L5; VPORQ R6, L6, L6; VPORQ R7, L7, L7; \
	VMOVDQU64 L0, 0(DI); VMOVDQU64 L1, 64(DI); VMOVDQU64 L2, 128(DI); VMOVDQU64 L3, 192(DI); \
	VMOVDQU64 L4, 256(DI); VMOVDQU64 L5, 320(DI); VMOVDQU64 L6, 384(DI); VMOVDQU64 L7, 448(DI)

// func feistel64(out *[64]uint64, base uint64, pre []uint64, half uint, mask uint64)
TEXT ·feistel64(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ base+8(FP), AX
	MOVQ pre_base+16(FP), SI
	MOVQ pre_len+24(FP), CX
	MOVQ half+40(FP), BX
	MOVQ mask+48(FP), DX

	// x = base+0 ... base+63, eight to a vector.
	VPBROADCASTQ AX, Z16
	VPADDQ       iota<>(SB), Z16, Z16
	MOVQ         $8, AX
	VPBROADCASTQ AX, Z24
	VPADDQ       Z24, Z16, Z17
	VPADDQ       Z24, Z17, Z18
	VPADDQ       Z24, Z18, Z19
	VPADDQ       Z24, Z19, Z20
	VPADDQ       Z24, Z20, Z21
	VPADDQ       Z24, Z21, Z22
	VPADDQ       Z24, Z22, Z23

	// l = x >> half, r = x & mask.
	VPBROADCASTQ BX, Z26
	VPBROADCASTQ DX, Z30
	VPSRLVQ      Z26, Z16, Z0
	VPSRLVQ      Z26, Z17, Z1
	VPSRLVQ      Z26, Z18, Z2
	VPSRLVQ      Z26, Z19, Z3
	VPSRLVQ      Z26, Z20, Z4
	VPSRLVQ      Z26, Z21, Z5
	VPSRLVQ      Z26, Z22, Z6
	VPSRLVQ      Z26, Z23, Z7
	VPANDQ       Z30, Z16, Z8
	VPANDQ       Z30, Z17, Z9
	VPANDQ       Z30, Z18, Z10
	VPANDQ       Z30, Z19, Z11
	VPANDQ       Z30, Z20, Z12
	VPANDQ       Z30, Z21, Z13
	VPANDQ       Z30, Z22, Z14
	VPANDQ       Z30, Z23, Z15

	MOVQ         $0xBF58476D1CE4E5B9, AX
	VPBROADCASTQ AX, Z28
	MOVQ         $0x94D049BB133111EB, AX
	VPBROADCASTQ AX, Z29

	// Two rounds per pass, as premixedPair runs them.
	CMPQ CX, $2
	JB   last

pair:
	VPBROADCASTQ (SI), Z31
	ROUND(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	VPBROADCASTQ 8(SI), Z31
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ         $16, SI
	SUBQ         $2, CX
	CMPQ         CX, $2
	JAE          pair

last:
	TESTQ CX, CX
	JZ    even

	// An odd round count ends on a lone round, which leaves the left
	// halves in Z8-Z15.
	VPBROADCASTQ (SI), Z31
	ROUND(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	STORE(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	VZEROUPPER
	RET

even:
	STORE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET
