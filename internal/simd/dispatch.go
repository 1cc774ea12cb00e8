package simd

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"unsafe"
)

// This file is the runtime backend dispatch layer (DESIGN.md §16). A backend
// is one implementation of the hot kernels — the six-mask raw sweep and the
// whole-plane popcount. At init the best hardware backend the CPU supports
// wins, SWAR is the universal fallback compiled on every GOARCH, and the
// RSONPATH_SIMD environment variable (or SetBackend, behind the CLI/daemon
// -simd flags) forces a specific one so both paths stay testable on any
// host. Every classification — each cold stream window as much as each
// Index build — dispatches through the active backend, so switching is an
// atomic pointer swap, safe while queries run (TestSetBackendWhileQueriesRun
// pins that under -race).
//
// Every backend must be bit-identical to SWAR on all six masks; the
// differential fuzzers (FuzzBackendEquivalence here, FuzzPlanesEquivalence
// and FuzzWindowedStream in internal/classifier) and the backend-matrix CI
// jobs pin that.

// EnvBackend is the environment variable consulted at init (and by the
// -simd flags' default) to force a backend by name.
const EnvBackend = "RSONPATH_SIMD"

// backend bundles one implementation of the dispatched kernels.
type backend struct {
	name string
	// rawMasks is the per-block kernel (padded final block, tests).
	rawMasks func(b *Block) (backslash, quote, opens, closes, commas, colons uint64)
	// batchRawMasks is the multi-block sweep over full blocks of data.
	batchRawMasks func(data []byte, backslash, quote, opens, closes, commas, colons []uint64) int
	// popcountWords sums the set bits of a whole plane.
	popcountWords func(p []uint64) int
	// pairCandidates is the head-skip seeker's packed-pair prefilter.
	pairCandidates func(hay, needle []byte, i1, i2 int) (base int, mask uint64)
}

var swarBackend = backend{
	name:           "swar",
	rawMasks:       rawMasksSWAR,
	batchRawMasks:  batchRawMasksSWAR,
	popcountWords:  popcountWordsSWAR,
	pairCandidates: pairCandidatesSWAR,
}

// backends holds every backend compiled in AND supported by this CPU, in
// preference order: index 0 is the fallback, the last entry the fastest.
var backends = []*backend{&swarBackend}

// active is the backend behind the exported kernels. It is set during
// package init and by SetBackend, and read with one atomic load per kernel
// call — a classifier window makes one or two, never one per block — so
// flipping the backend while queries run is safe: each call runs entirely
// on the backend it loaded, and every backend is bit-identical to SWAR.
var active atomic.Pointer[backend]

func init() {
	registerArch()
	active.Store(backends[len(backends)-1])
	if name := os.Getenv(EnvBackend); name != "" {
		// A forced backend this binary or CPU lacks degrades to the best
		// available one rather than failing init: the env var is a testing
		// lever, and "swar" must be forceable everywhere while "avx2" simply
		// does not exist on an arm64 build. Backend() reports the truth.
		_ = SetBackend(name)
	}
}

// Backend returns the name of the active kernel backend ("swar", "avx2").
func Backend() string { return active.Load().name }

// Backends returns the names of every backend usable on this host, in
// preference order (fallback first). The result is a fresh slice.
func Backends() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.name
	}
	return names
}

// SetBackend forces the named backend. It returns an error naming the
// available choices when the backend is unknown, not compiled into this
// GOARCH, or not supported by the CPU. It is safe to call while queries
// run: work already in flight finishes on the backend it loaded.
func SetBackend(name string) error {
	for _, b := range backends {
		if b.name == name {
			active.Store(b)
			return nil
		}
	}
	avail := Backends()
	sort.Strings(avail)
	return fmt.Errorf("simd: backend %q not available on this host (have %v)", name, avail)
}

// RawMasks computes the six raw per-block masks of one padded block with the
// active backend: backslashes, double quotes (escaped or not), opening and
// closing brackets of both kinds, commas, and colons. It is the per-block
// form of BatchRawMasks, used for the final partial block.
func RawMasks(b *Block) (backslash, quote, opens, closes, commas, colons uint64) {
	return active.Load().rawMasks(b)
}

// BatchRawMasks sweeps every full 64-byte block of data with the active
// backend, storing block i's raw masks at index i of each destination
// plane. Every destination must hold at least len(data)/BlockSize words;
// the number of full blocks processed is returned (the caller pads and
// classifies the partial tail, if any, with LoadBlock + RawMasks).
func BatchRawMasks(data []byte, backslash, quote, opens, closes, commas, colons []uint64) int {
	return active.Load().batchRawMasks(data, backslash, quote, opens, closes, commas, colons)
}

// PopcountWords sums the set bits of every word of p, the whole-plane
// popcount behind classifier.(*Planes).BracketBalance.
func PopcountWords(p []uint64) int {
	return active.Load().popcountWords(p)
}

// Vector-lane geometry shared by every hardware backend and by the plane
// allocator: a 256-bit register holds VecWords mask words and wants
// VecAlign-byte alignment.
const (
	// VecWords is the number of 64-bit mask words a vector kernel step
	// consumes; plane capacities are rounded to whole multiples of it.
	VecWords = 4
	// VecAlign is the byte alignment AlignedWords guarantees (one 256-bit
	// register; also what a future NEON/SVE backend would want or better).
	VecAlign = 32
)

// RoundWords rounds a word count up to a whole number of vector lanes.
func RoundWords(n int) int { return (n + VecWords - 1) &^ (VecWords - 1) }

// AlignedWords allocates a zeroed []uint64 of length words whose backing
// array starts VecAlign-byte aligned. Callers that additionally want
// overrun-safe capacity round words up with RoundWords first. Go's heap
// does not move allocations, so the alignment holds for the slice's life.
func AlignedWords(words int) []uint64 {
	if words <= 0 {
		return nil
	}
	raw := make([]uint64, words+VecAlign/8-1)
	off := 0
	for uintptr(unsafe.Pointer(&raw[off]))%VecAlign != 0 {
		off++
	}
	return raw[off : off+words : off+words]
}
