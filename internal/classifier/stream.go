package classifier

import (
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
	*s = Stream{in: in, words: s.words}
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
// classifier reads plane words, and repositioning within the window is O(1).
//
// A Stream only moves forward, pulling padded blocks from an input.Input —
// zero-copy over in-memory documents, window-bounded over readers. The
// current block's bytes and masks are exposed to the structural
// classifier, the depth classifier and the label seeker; each of them
// tracks its own within-block cursor.
type Stream struct {
	in         input.Input
	blockStart int         // absolute offset of the current block
	blockLen   int         // number of real (non-padding) bytes in the block
	block      *simd.Block // the current padded block (owned by the input)
	exhausted  bool

	// The current block's masks, cached when the stream moves so they stay
	// valid however far a depth or label scan later runs the window ahead.
	quoteMask uint64 // unescaped quotes
	inString  uint64 // in-string positions
	braces    uint64 // opening and closing brackets outside strings
	commaM    uint64 // commas outside strings
	colonM    uint64 // colons outside strings

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

	// pending marks a jump landing not classified yet: the stream sits on
	// the block at blockStart, and anchor is the jump's target, from which
	// settle reconstructs the quote state once masks are first needed. A
	// head-skip landing on a leaf value never needs them.
	pending bool
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
	s.load(0)
	return s
}

// NewStreamAt creates a stream positioned on the block containing pos, with
// the quote state reconstructed from pos as an anchor. pos must lie outside
// any string and not be escaped (true for every value boundary), and the
// bytes shortly before pos must still be retained by the input.
func NewStreamAt(in input.Input, pos int) *Stream { return newStream(in, pos) }

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
	s.blockStart, s.anchor = pos-pos%simd.BlockSize, pos
	s.land()
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

// load positions the stream on block idx, which the window covers unless
// idx lies past the end of input.
func (s *Stream) load(idx int) {
	s.blockStart = idx * simd.BlockSize
	s.block, s.blockLen = s.in.Block(idx)
	s.exhausted, s.pending = false, false
	if i := idx - s.lo; i >= 0 && i < len(s.w.Quote) {
		s.quoteMask, s.inString = s.w.Quote[i], s.w.InString[i]
		s.braces = s.w.Opens[i] | s.w.Closes[i]
		s.commaM, s.colonM = s.w.Commas[i], s.w.Colons[i]
	} else {
		s.quoteMask, s.inString, s.braces, s.commaM, s.colonM = 0, 0, 0, 0, 0
	}
	if s.blockLen == 0 {
		s.markExhausted()
	}
}

// moveTo moves the stream forward to block idx, classifying sequentially so
// the quote state stays exact. It reports false when idx lies past the end
// of input.
func (s *Stream) moveTo(idx int) bool {
	s.cover(idx)
	s.load(idx)
	return !s.exhausted
}

// markExhausted records the end of input. The document length is always
// known by the time the end is observed.
func (s *Stream) markExhausted() {
	s.exhausted = true
	if n := s.in.Len(); n >= 0 {
		s.blockStart = n
	}
	s.blockLen = 0
}

// Advance moves to the next block. It reports false when the input is
// exhausted; the current block's bytes stay valid (inputs double-buffer, so
// probing the next block never invalidates the current one).
func (s *Stream) Advance() bool {
	s.settle()
	if s.exhausted || s.blockLen < simd.BlockSize {
		// A partial block is always the final one.
		s.markExhausted()
		return false
	}
	return s.moveTo(s.blockStart/simd.BlockSize + 1)
}

// JumpTo repositions the stream onto the block containing pos. pos must be
// outside any string and not escaped. Within the classified window (or just
// past it) the move is a lookup, or a sequential refill. A landing further
// away — a head-skip seek hit — skips the classification of every block in
// between: the stream only records the anchor, and settle later
// reconstructs the quote state at the block's start from it, by scanning
// the at most BlockSize-1 bytes before pos, and starts a new small window
// there.
func (s *Stream) JumpTo(pos int) {
	idx := pos / simd.BlockSize
	if idx*simd.BlockSize == s.blockStart && !s.exhausted {
		return
	}
	if idx < s.lo || idx > s.hi && !s.end {
		s.blockStart, s.anchor = idx*simd.BlockSize, pos
		s.exhausted, s.pending = false, true
		return
	}
	s.moveTo(idx)
}

// settle classifies the window at a pending jump landing, if any.
func (s *Stream) settle() {
	if s.pending {
		s.land()
	}
}

// land starts a new window at the anchor, on the block at blockStart.
func (s *Stream) land() {
	idx := s.blockStart / simd.BlockSize
	s.size = min(firstWindow, s.limit)
	s.refill(idx, reconstructQuoteState(s.in, s.blockStart, s.anchor))
	s.load(idx)
}

// BlockStart returns the absolute offset of the current block.
func (s *Stream) BlockStart() int { return s.blockStart }

// Exhausted reports whether the current block is past the end of input.
func (s *Stream) Exhausted() bool {
	s.settle()
	return s.exhausted || s.blockLen == 0
}

// InString returns the in-string mask of the current block.
func (s *Stream) InString() uint64 {
	s.settle()
	return s.inString
}

// QuoteMask returns the unescaped-quote mask of the current block.
func (s *Stream) QuoteMask() uint64 {
	s.settle()
	return s.quoteMask
}

// Block returns the current block's bytes (padded with spaces past the
// input's end).
func (s *Stream) Block() *simd.Block {
	s.settle()
	return s.block
}

// SeekEndedInString reports whether the most recent label seek that ran out
// of input did so with the quote parity open — i.e. the document ends in
// the middle of a string. Only meaningful directly after SeekLabel/
// SeekLabelPattern returned ok=false.
func (s *Stream) SeekEndedInString() bool { return s.seekTailInString }
