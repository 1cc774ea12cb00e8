package classifier

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"rsonpath/internal/input"
	"rsonpath/internal/simd"
)

// passes counts Stream constructions since process start. One Stream is one
// classification pass over (a suffix of) a document, so the counter lets
// tests assert pass-sharing properties — in particular that the multi-query
// driver classifies a document exactly once however many queries it runs.
var passes atomic.Int64

// Passes returns the total number of classification passes started since
// process start. Tests take deltas around the code under scrutiny.
func Passes() int64 { return passes.Load() }

// Window geometry. A cold stream's first window, and the first window after
// every repositioning jump, covers firstWindow blocks; each sequential
// refill doubles the next one, up to maxWindow blocks (64 KiB of input) or
// the input's forward window, whichever is smaller. Short records and
// sparse head-skip landings thus classify roughly the blocks they touch,
// while long sequential scans amortize each refill over a large batch.
const (
	firstWindow = 2
	maxWindow   = 1024
)

// streamPool recycles Streams together with their window storage, so that
// neither a run nor an NDJSON record allocates a stream or its planes.
var streamPool = sync.Pool{New: func() any { return new(Stream) }}

// acquire returns a pooled Stream over in, keeping its window storage.
func acquire(in input.Input) *Stream {
	s := streamPool.Get().(*Stream)
	*s = Stream{in: in, data: input.Contiguous(in), words: s.words}
	return s
}

// Stream drives the classification of one input document. It is the
// concrete embodiment of the paper's multi-classifier pipeline core (§4.5):
// the quote classifier always runs ahead of whichever top-level classifier
// (structural, depth or label seeker) is currently active, and its state
// travels with the Stream when classifiers are switched.
//
// Classification is plane-backed: the masks of a window of consecutive
// blocks are computed in one batched sweep (classify, the BuildPlanes path)
// and served by lookup. A cold stream fills its window lazily — only when a
// classifier first needs masks past it — carrying the quote state from one
// window into the next; a stream over a prebuilt Planes (NewStreamPlanes)
// has a single window covering the whole document. Either way every
// classifier reads plane words straight from the window: the structural
// cursor (Structural) one block's symbol words at a time, the depth
// classifier and the label seekers as many words as they pass. Each keeps
// its own position; the Stream only keeps the window.
//
// A Stream only moves forward, pulling bytes from an input.Input —
// zero-copy over in-memory documents, window-bounded over readers.
//
// Beside the window, a Stream keeps a block view for callers that walk the
// classified blocks themselves (kernel benchmarks, the classifier's tests):
// Advance and JumpTo move it, and Block, QuoteMask and InString read the
// block it is on. The cursor and the skips never move it.
type Stream struct {
	in   input.Input
	data []byte // the whole document when in holds it in memory, else nil

	// The block view.
	blockStart int // absolute offset of the viewed block
	exhausted  bool

	// The classified window: w's planes hold the masks of blocks [lo, hi),
	// word i-lo for block i. carry is the quote state at the end of block
	// hi-1, the exact sequential continuation; end records that the window
	// reaches the end of input (always true over a whole-document Planes).
	w      Planes
	lo, hi int
	carry  quoteState
	end    bool
	size   int // blocks in the next sequential refill
	limit  int // refill size cap

	// words backs a cold stream's window: six planes of maxWindow words
	// each (lane-rounded and 32-byte aligned, as the vector kernels want).
	// tail is the padded scratch block for the document's partial final
	// block. Both stay with the Stream across pool round trips.
	words []uint64
	tail  simd.Block

	// pending marks a jump landing not classified yet: the next window
	// starts on the block at landing, and anchor is the jump's target, from
	// which settle reconstructs the quote state once masks are first
	// needed. A head-skip landing on a leaf value never needs them.
	pending bool
	landing int
	anchor  int

	// seekTailInString records, after a label seek that reached the end of
	// input, whether the document ended inside a string — the seeker's
	// incremental quote parity carried to EOF. It exists for the engine's
	// best-effort truncation check on the head-skip path, where no
	// classified blocks cover the sought region.
	seekTailInString bool
}

// NewStream creates a stream over an in-memory document and classifies the
// first window.
func NewStream(data []byte) *Stream {
	return NewStreamInput(input.NewBytes(data))
}

// NewStreamInput creates a stream over in and classifies the first window.
func NewStreamInput(in input.Input) *Stream { return newStream(in, 0) }

// NewStreamPlanes creates a stream over in whose window is the whole
// document, already classified into p (built by BuildPlanes over the same
// bytes in presents): no classification runs during the stream's lifetime.
// It still counts as a classification pass for Passes(): it replays the one
// pass BuildPlanes performed.
func NewStreamPlanes(in input.Input, p *Planes) *Stream {
	passes.Add(1)
	s := acquire(in)
	s.w, s.hi, s.end = *p, p.Blocks(), true
	if s.hi == 0 {
		s.markExhausted()
	}
	return s
}

// newStream creates a cold stream on the block containing the anchor pos
// and classifies its first window there.
func newStream(in input.Input, pos int) *Stream {
	passes.Add(1)
	s := acquire(in)
	s.limit = maxWindow
	// A window never asks a bounded input for more than it guarantees to
	// serve in one request.
	if w := in.Window() / simd.BlockSize; w > 0 {
		s.limit = min(w, maxWindow)
	}
	s.blockStart = pos - pos%simd.BlockSize
	s.pending, s.landing, s.anchor = true, pos/simd.BlockSize, pos
	s.settle()
	return s
}

// Release returns the stream, with its window storage, to the package
// pool. The stream must not be used afterwards, and Release must be called
// at most once. Calling it is optional — an unreleased stream is simply
// garbage collected — but engines release on every run.
func (s *Stream) Release() {
	*s = Stream{words: s.words} // drop every reference into the document
	streamPool.Put(s)
}

// Input returns the underlying input. Classifiers use it for the rare
// scalar verifications (label backtracking, candidate checks) that the
// paper performs outside the SIMD pipeline.
func (s *Stream) Input() input.Input { return s.in }

// refill classifies the window of s.size blocks starting at block idx,
// continuing from quote state qs, and grows the next window.
func (s *Stream) refill(idx int, qs quoteState) {
	if s.words == nil {
		s.words = simd.AlignedWords(6 * maxWindow)
	}
	want := s.size * simd.BlockSize
	data := s.in.Bytes(idx*simd.BlockSize, idx*simd.BlockSize+want)
	n := blocksOf(len(data))
	s.w.carve(s.words, n, maxWindow)
	classify(data, &s.w, &qs, &s.tail)
	s.lo, s.hi, s.carry, s.end = idx, idx+n, qs, len(data) < want
	if s.size < s.limit {
		s.size = min(2*s.size, s.limit)
	}
}

// cover classifies forward, window by window, until the window holds block
// idx (which must not precede it). It reports false when idx lies past the
// end of input.
func (s *Stream) cover(idx int) bool {
	for idx >= s.hi {
		if s.end {
			return false
		}
		s.refill(s.hi, s.carry)
	}
	return true
}

// markExhausted records that the block view has passed the end of input.
// The document length is always known by the time the end is observed.
func (s *Stream) markExhausted() {
	s.exhausted = true
	if n := s.in.Len(); n >= 0 {
		s.blockStart = n
	}
}

// JumpTo moves the block view onto the block containing pos, and makes pos
// the point from which the window continues. pos must be outside any
// string and not escaped. Within the classified window, or just past it,
// the window continues sequentially. A landing further away — a head-skip
// seek hit — skips the classification of every block in between: the
// stream only records the anchor, and settle later reconstructs the quote
// state at the block's start from it, by scanning the at most BlockSize-1
// bytes before pos, and starts a new small window there.
func (s *Stream) JumpTo(pos int) {
	idx := pos / simd.BlockSize
	s.blockStart, s.exhausted = idx*simd.BlockSize, false
	if s.pending || idx < s.lo || idx > s.hi && !s.end {
		s.pending, s.landing, s.anchor = true, idx, pos
		return
	}
	if !s.cover(idx) {
		s.markExhausted()
	}
}

// settle classifies the window at a pending jump landing, if any.
func (s *Stream) settle() {
	if s.pending {
		s.land()
	}
}

// land starts a new window at the pending landing.
func (s *Stream) land() {
	s.pending = false
	s.size = min(firstWindow, s.limit)
	s.refill(s.landing, reconstructQuoteState(s.in, s.landing*simd.BlockSize, s.anchor))
	if s.landing >= s.hi {
		s.markExhausted()
	}
}

// reach makes the window hold block idx, which must not precede it:
// it settles a pending landing, then classifies forward. It reports false
// when idx lies past the end of input.
func (s *Stream) reach(idx int) bool {
	s.settle()
	return s.cover(idx)
}

// byteAt returns the document byte at pos, which the window holds.
func (s *Stream) byteAt(pos int) byte {
	if s.data != nil {
		return s.data[pos]
	}
	b, _ := s.in.ByteAt(pos)
	return b
}

// viewed returns the block view's word index in the window planes, or -1
// when the view is past the end of input or off the window.
func (s *Stream) viewed() int {
	s.settle()
	if i := s.blockStart/simd.BlockSize - s.lo; !s.exhausted && i >= 0 && i < len(s.w.Quote) {
		return i
	}
	return -1
}

// Advance moves the block view to the next block. It reports false when
// the input is exhausted.
func (s *Stream) Advance() bool {
	s.settle()
	if s.exhausted {
		return false
	}
	idx := s.blockStart/simd.BlockSize + 1
	if !s.cover(idx) {
		s.markExhausted()
		return false
	}
	s.blockStart = idx * simd.BlockSize
	return true
}

// BlockStart returns the absolute offset of the viewed block.
func (s *Stream) BlockStart() int { return s.blockStart }

// Exhausted reports whether the block view is past the end of input.
func (s *Stream) Exhausted() bool {
	s.settle()
	return s.exhausted
}

// InString returns the in-string mask of the viewed block.
func (s *Stream) InString() uint64 {
	if i := s.viewed(); i >= 0 {
		return s.w.InString[i]
	}
	return 0
}

// QuoteMask returns the unescaped-quote mask of the viewed block.
func (s *Stream) QuoteMask() uint64 {
	if i := s.viewed(); i >= 0 {
		return s.w.Quote[i]
	}
	return 0
}

// Block returns the viewed block's bytes (padded with spaces past the
// input's end).
func (s *Stream) Block() *simd.Block {
	s.settle()
	b, _ := s.in.Block(s.blockStart / simd.BlockSize)
	return b
}

// KeyQuotes returns the two unescaped quotes closest below the colon at
// colon — the quotes of the key the colon follows, when only whitespace
// lies between the second and the colon — read from the window's Quote
// plane. ok is false when the window does not reach back to both; the
// caller then walks the bytes.
func (s *Stream) KeyQuotes(colon int) (open, closing int, ok bool) {
	i := colon/simd.BlockSize - s.lo
	q := s.w.Quote
	if uint(i) >= uint(len(q)) {
		return 0, 0, false
	}
	m := q[i] & simd.BitsBelow(colon%simd.BlockSize)
	if m&(m-1) != 0 {
		// Both quotes lie in the colon's block: the common case.
		base := (s.lo + i) * simd.BlockSize
		hi := bits.Len64(m) - 1
		return base + bits.Len64(m&^(1<<uint(hi))) - 1, base + hi, true
	}
	// Walk back word by word to the second quote below the colon.
	found := 0
	for {
		for ; m != 0; m &^= 1 << uint(bits.Len64(m)-1) {
			p := (s.lo+i)*simd.BlockSize + bits.Len64(m) - 1
			if found++; found == 1 {
				closing = p
			} else {
				return p, closing, true
			}
		}
		if i--; i < 0 {
			return 0, 0, false
		}
		m = q[i]
	}
}

// SeekEndedInString reports whether the most recent label seek that ran out
// of input did so with the quote parity open — i.e. the document ends in
// the middle of a string. Only meaningful directly after SeekLabelPattern
// returned ok=false.
func (s *Stream) SeekEndedInString() bool { return s.seekTailInString }
