package classifier

import (
	"rsonpath/internal/input"
	"rsonpath/internal/simd"
)

// Planes is a mask index: one 64-bit word per 64-byte block and per
// classifier output — the quote classifier's masks plus the structural
// classifier's per-symbol masks — built in one batched sweep over the
// bytes. BuildPlanes builds it for a whole document, reusable by any number
// of runs; a cold Stream fills one window of it at a time. Either way the
// classifiers read their masks by lookup.
//
// Bit i of word j covers byte j*64+i (of the window, in a Stream's). The
// symbol planes (Opens, Closes, Commas, Colons) already have in-string
// positions masked out; the structural classifier's always-on brace mask is
// Opens|Closes, and the bracket planes double as the depth classifier's
// inputs.
//
// A Planes built by BuildPlanes is immutable and safe for concurrent use.
type Planes struct {
	Quote    []uint64 // unescaped double quotes
	InString []uint64 // inside a string (incl. opening, excl. closing quote)
	Opens    []uint64 // '{' and '[' outside strings
	Closes   []uint64 // '}' and ']' outside strings
	Commas   []uint64 // ',' outside strings
	Colons   []uint64 // ':' outside strings

	// Len is the document length in bytes.
	Len int
	// EndInString records whether the quote parity is still open at the end
	// of input — the document ends in the middle of a string.
	EndInString bool
	// EndEscaped records whether the document ends on an unfinished escape
	// (an odd backslash run against the end of input).
	EndEscaped bool

	// The bracket-excess summary (excess.go), built by BuildPlanes and
	// absent from a cold stream's windows.
	blockEx []uint64
	superEx []uint64
}

// Blocks returns the number of mask words per plane.
func (p *Planes) Blocks() int { return len(p.Quote) }

// Footprint returns the bytes the planes occupy: six words (48 bytes) per
// block, plus the bracket-excess summary's words (2 bytes per block and 8
// per superblock of 64 blocks) when the planes carry one.
func (p *Planes) Footprint() int { return 8 * (6*p.Blocks() + len(p.blockEx) + len(p.superEx)) }

// BuildPlanes classifies data once with the batched kernels and returns the
// mask planes: classify over a window that is the whole document. Plane
// geometry is kernel-friendly by construction: one backing array, 32-byte
// aligned (simd.AlignedWords), with every plane's capacity rounded up to
// whole vector lanes (simd.RoundWords) so every plane starts aligned for
// the vector kernels (PopcountWords) — the padding words belong to the
// plane's own reserved region and stay zero. The alignment/rounding
// invariants are pinned by TestPlanesAlignment.
func BuildPlanes(data []byte) *Planes {
	n := blocksOf(len(data))
	rn := simd.RoundWords(n)
	p := &Planes{Len: len(data)}
	if n == 0 {
		return p
	}
	backing := simd.AlignedWords(6*rn + summaryWords(n))
	p.carve(backing, n, rn)
	var qs quoteState
	var tail simd.Block
	classify(data, p, &qs, &tail)
	p.EndInString = qs.prevInString != 0
	p.EndEscaped = qs.prevEscaped != 0
	p.summarize(backing[6*rn:])
	return p
}

// blocksOf returns the number of blocks covering n bytes.
func blocksOf(n int) int { return (n + simd.BlockSize - 1) / simd.BlockSize }

// carve points p's six planes at consecutive regions of backing, each
// stride words long (a whole number of vector lanes), and sets their
// lengths to n words.
func (p *Planes) carve(backing []uint64, n, stride int) {
	p.Quote = backing[0*stride : 0*stride+n : 1*stride]
	p.InString = backing[1*stride : 1*stride+n : 2*stride]
	p.Opens = backing[2*stride : 2*stride+n : 3*stride]
	p.Closes = backing[3*stride : 3*stride+n : 4*stride]
	p.Commas = backing[4*stride : 4*stride+n : 5*stride]
	p.Colons = backing[5*stride : 5*stride+n : 6*stride]
}

// classify fills p's planes, each one word per block of data, continuing
// from quote state qs and leaving qs at the end of data. It is the one
// classification path behind both BuildPlanes and a cold Stream's windows,
// two passes over cache-resident state: the fused raw sweep
// (simd.BatchRawMasks, hardware-accelerated where the CPU allows) touches the
// document bytes exactly once, a partial final block going through tail;
// then one sequential carry pass — quote parity and escapes cannot be
// parallelized across blocks — resolves the escape-dependent masks in place
// and clears the in-string positions from the four symbol planes while the
// block's in-string word is in a register.
func classify(data []byte, p *Planes, qs *quoteState, tail *simd.Block) {
	n := len(p.Quote)
	// Raw sweep. The two escape-dependent planes temporarily hold their raw
	// precursors — backslashes in InString, raw quotes in Quote — which the
	// carry pass below consumes and overwrites in place.
	full := simd.BatchRawMasks(data, p.InString, p.Quote, p.Opens, p.Closes, p.Commas, p.Colons)
	if full < n {
		simd.LoadBlock(tail, data[full*simd.BlockSize:], input.Pad)
		p.InString[full], p.Quote[full], p.Opens[full], p.Closes[full],
			p.Commas[full], p.Colons[full] = simd.RawMasks(tail)
	}
	quote, inString := p.Quote[:n], p.InString[:n]
	opens, closes, commas, colons := p.Opens[:n], p.Closes[:n], p.Commas[:n], p.Colons[:n]
	for i := range quote {
		q, in := qs.classifyMasks(inString[i], quote[i])
		quote[i], inString[i] = q, in
		opens[i] &^= in
		closes[i] &^= in
		commas[i] &^= in
		colons[i] &^= in
	}
}

// BracketBalance returns the total number of opening and closing brackets
// (both kinds, outside strings) in the document — the cheap whole-document
// screen Index uses to reject unbalanced input before any run.
func (p *Planes) BracketBalance() (opens, closes int) {
	return simd.PopcountWords(p.Opens), simd.PopcountWords(p.Closes)
}
