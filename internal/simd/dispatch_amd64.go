package simd

import "math/bits"

// AVX2 backend: the six-mask kernels from avx2_amd64.s behind Go wrappers
// that own every bounds check (the assembly dereferences raw pointers and
// trusts the lengths handed to it — see the asm invariants in DESIGN.md
// §16). Registered by registerArch when CPUID says the CPU and OS support
// AVX2; SWAR remains selectable via RSONPATH_SIMD=swar.

// cpuAVX2 is the one-time CPUID verdict, exposed for tests and CI gating.
var cpuAVX2 = detectAVX2()

// registerArch appends the AVX2 backend on capable hosts, making it the
// default (backends are in preference order; the last entry wins init).
func registerArch() {
	if cpuAVX2 {
		backends = append(backends, &avx2Backend)
	}
}

var avx2Backend = backend{
	name:          "avx2",
	rawMasks:      rawMasksAVX2Call,
	batchRawMasks: batchRawMasksAVX2Call,
	popcountWords: popcountWordsAVX2Call,
}

// rawMasksAVX2 classifies one 64-byte block as two YMM loads with six
// VPCMPEQB+VPMOVMSKB pairs sharing them, writing the masks to out in the
// plane order backslash, quote, opens, closes, commas, colons.
//
//go:noescape
func rawMasksAVX2(b *Block, out *[6]uint64)

// batchRawMasksAVX2 is the unrolled multi-block sweep: n full blocks from
// data, one mask word stored per block per plane. Every destination must
// have n writable words; the wrappers enforce that.
//
//go:noescape
func batchRawMasksAVX2(data *byte, n int, backslash, quote, opens, closes, commas, colons *uint64)

// popcountAVX2 sums the set bits of lanes*VecWords words of p (Mula's
// VPSHUFB nibble-LUT + VPSADBW algorithm).
//
//go:noescape
func popcountAVX2(p *uint64, lanes int) int64

func rawMasksAVX2Call(b *Block) (backslash, quote, opens, closes, commas, colons uint64) {
	var out [6]uint64
	rawMasksAVX2(b, &out)
	return out[0], out[1], out[2], out[3], out[4], out[5]
}

func batchRawMasksAVX2Call(data []byte, backslash, quote, opens, closes, commas, colons []uint64) int {
	n := len(data) / BlockSize
	if n == 0 {
		return 0
	}
	// One reslice per plane turns the assembly's implicit length contract
	// into a bounds check here, before any raw pointer is formed.
	backslash = backslash[:n]
	quote = quote[:n]
	opens = opens[:n]
	closes = closes[:n]
	commas = commas[:n]
	colons = colons[:n]
	batchRawMasksAVX2(&data[0], n,
		&backslash[0], &quote[0], &opens[0], &closes[0], &commas[0], &colons[0])
	return n
}

func popcountWordsAVX2Call(p []uint64) int {
	n := len(p)
	lanes := n / VecWords
	total := 0
	if lanes > 0 {
		total = int(popcountAVX2(&p[0], lanes))
	}
	for i := lanes * VecWords; i < n; i++ {
		total += bits.OnesCount64(p[i])
	}
	return total
}
