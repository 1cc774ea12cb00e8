#include "textflag.h"

// AVX2 kernels for the six-mask classifier (DESIGN.md §16).
//
// Invariants shared by every TEXT below:
//   - NOSPLIT with a zero-size frame: no locals, no spills, nothing written
//     into the caller's frame beyond declared results, so the routines are
//     safe at any stack depth without a morestack preamble.
//   - All memory operands use unaligned loads/stores (VMOVDQU): document
//     bytes arrive at arbitrary offsets. Plane words are VecAlign-aligned
//     by simd.AlignedWords, but the kernels do not rely on it.
//   - Every routine ends with VZEROUPPER before RET so mixed AVX/SSE code
//     in the rest of the runtime pays no transition penalty.
//   - Bounds are the Go wrappers' job (dispatch_amd64.go): the assembly
//     trusts n and dereferences raw pointers.
//
// Constant-register layout for the raw-mask kernels:
//   Y8  '\\'   Y9  '"'   Y10 '{'   Y11 '}'   Y12 ','   Y13 ':'
//   Y14 0x20 bit-5 fold ('['/']' onto '{'/'}', see simd.BracketMasks)

// BCASTB broadcasts constant byte c into ymm register y via AX/X7.
#define BCASTB(c, y) \
	MOVQ         c, AX    \
	VMOVQ        AX, X7   \
	VPBROADCASTB X7, y

#define LOADCONSTS \
	BCASTB($0x5C, Y8)  \ // backslash
	BCASTB($0x22, Y9)  \ // quote
	BCASTB($0x7B, Y10) \ // open brace (after fold: also '[')
	BCASTB($0x7D, Y11) \ // close brace (after fold: also ']')
	BCASTB($0x2C, Y12) \ // comma
	BCASTB($0x3A, Y13) \ // colon
	BCASTB($0x20, Y14)   // bit-5 fold

// MASK64 compares the two block halves in Y0/Y1 (or Y2/Y3 for tgt operands
// of the folded bracket compares) against target register tgt and leaves
// the combined 64-bit movemask in AX. Clobbers Y4, BX.
#define MASK64(lo, hi, tgt) \
	VPCMPEQB  tgt, lo, Y4 \
	VPMOVMSKB Y4, AX      \
	VPCMPEQB  tgt, hi, Y4 \
	VPMOVMSKB Y4, BX      \
	SHLQ      $32, BX     \
	ORQ       BX, AX

// func rawMasksAVX2(b *Block, out *[6]uint64)
TEXT ·rawMasksAVX2(SB), NOSPLIT, $0-16
	MOVQ b+0(FP), SI
	MOVQ out+8(FP), DI
	LOADCONSTS

	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1

	MASK64(Y0, Y1, Y8)
	MOVQ   AX, 0(DI)       // backslash
	MASK64(Y0, Y1, Y9)
	MOVQ   AX, 8(DI)       // quote
	MASK64(Y0, Y1, Y12)
	MOVQ   AX, 32(DI)      // commas
	MASK64(Y0, Y1, Y13)
	MOVQ   AX, 40(DI)      // colons

	// Brackets compare the bit-5-folded halves.
	VPOR   Y14, Y0, Y2
	VPOR   Y14, Y1, Y3
	MASK64(Y2, Y3, Y10)
	MOVQ   AX, 16(DI)      // opens
	MASK64(Y2, Y3, Y11)
	MOVQ   AX, 24(DI)      // closes

	VZEROUPPER
	RET

// func batchRawMasksAVX2(data *byte, n int, backslash, quote, opens, closes, commas, colons *uint64)
TEXT ·batchRawMasksAVX2(SB), NOSPLIT, $0-64
	MOVQ data+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ backslash+16(FP), DI
	MOVQ quote+24(FP), R8
	MOVQ opens+32(FP), R9
	MOVQ closes+40(FP), R10
	MOVQ commas+48(FP), R11
	MOVQ colons+56(FP), R12
	LOADCONSTS

	TESTQ CX, CX
	JZ    done

loop:
	// One 64-byte block: two shared YMM loads feed all six symbol classes.
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1

	MASK64(Y0, Y1, Y8)
	MOVQ   AX, (DI)        // backslash
	MASK64(Y0, Y1, Y9)
	MOVQ   AX, (R8)        // quote
	MASK64(Y0, Y1, Y12)
	MOVQ   AX, (R11)       // commas
	MASK64(Y0, Y1, Y13)
	MOVQ   AX, (R12)       // colons

	VPOR   Y14, Y0, Y2
	VPOR   Y14, Y1, Y3
	MASK64(Y2, Y3, Y10)
	MOVQ   AX, (R9)        // opens
	MASK64(Y2, Y3, Y11)
	MOVQ   AX, (R10)       // closes

	ADDQ $64, SI
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET

// Nibble popcount lookup table for VPSHUFB (both 128-bit halves identical).
DATA popcntLUT<>+0(SB)/8, $0x0302020102010100
DATA popcntLUT<>+8(SB)/8, $0x0403030203020201
DATA popcntLUT<>+16(SB)/8, $0x0302020102010100
DATA popcntLUT<>+24(SB)/8, $0x0403030203020201
GLOBL popcntLUT<>(SB), RODATA|NOPTR, $32

// func popcountAVX2(p *uint64, lanes int) int64
// Positional-popcount-free whole-plane popcount (Mula): per 32-byte lane,
// VPSHUFB the nibble LUT for per-byte counts, VPSADBW against zero to sum
// bytes into the four quadword lanes, accumulate in Y6, reduce at the end.
TEXT ·popcountAVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), SI
	MOVQ lanes+8(FP), CX

	VMOVDQU popcntLUT<>(SB), Y5
	BCASTB  ($0x0F, Y4)     // low-nibble mask
	VPXOR   Y6, Y6, Y6      // accumulator
	VPXOR   Y3, Y3, Y3      // zero operand for VPSADBW

	TESTQ CX, CX
	JZ    popcntDone

popcntLoop:
	VMOVDQU (SI), Y0
	VPAND   Y4, Y0, Y1      // low nibbles
	VPSRLW  $4, Y0, Y2
	VPAND   Y4, Y2, Y2      // high nibbles
	VPSHUFB Y1, Y5, Y1      // per-byte count of low nibble
	VPSHUFB Y2, Y5, Y2      // per-byte count of high nibble
	VPADDB  Y2, Y1, Y1      // per-byte popcount (<= 8, no overflow)
	VPSADBW Y3, Y1, Y1      // sum each 8-byte group into a quadword
	VPADDQ  Y1, Y6, Y6
	ADDQ    $32, SI
	DECQ    CX
	JNZ     popcntLoop

popcntDone:
	// Horizontal reduction of the four quadword sums.
	VEXTRACTI128 $1, Y6, X1
	VPADDQ       X1, X6, X6
	VPSRLDQ      $8, X6, X1
	VPADDQ       X1, X6, X6
	VMOVQ        X6, AX
	VZEROUPPER
	MOVQ         AX, ret+16(FP)
	RET
