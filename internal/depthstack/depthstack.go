// Package depthstack implements the sparse stack representations of §3.2.
//
// Stack is the depth-stack proper: instead of pushing on every opening
// character (height tied to tree depth), the engine tracks the depth in a
// counter and pushes a frame only when the automaton state changes, popping
// when the depth falls back to the recorded value. For a child-free query
// with n selectors the stack holds at most n frames, mirroring the n
// registers of the stackless algorithm of depth-register automata.
//
// Like the paper's SmallVec, Stack keeps up to InlineFrames frames in a
// fixed array inside the struct (the goroutine stack, when the Stack itself
// lives there) and spills to the heap only beyond that.
//
// KindMap and IntStack are auxiliary per-depth structures: one bit per
// depth for the open element's kind (object or array), and — only for
// queries with index selectors — one integer per open array for the current
// entry index. Both are linear in document depth with small constants, like
// the depth-stack itself (see DESIGN.md, deviation 1).
package depthstack

// InlineFrames is the number of frames stored without heap allocation,
// matching the paper's SmallVec configuration (128 frames, 512 bytes there).
const InlineFrames = 128

// Frame records the automaton state to restore when the document depth
// falls back to Depth.
type Frame struct {
	State int
	Depth int
}

// Stack is a depth-stack. The zero value is ready to use.
type Stack struct {
	frames []Frame
	inline [InlineFrames]Frame
}

// Reset empties the stack, retaining the inline storage.
func (s *Stack) Reset() {
	s.frames = s.inline[:0]
}

// Len returns the number of frames.
func (s *Stack) Len() int { return len(s.frames) }

// Push records a state change that happened at the given depth.
func (s *Stack) Push(state, depth int) {
	if s.frames == nil {
		s.frames = s.inline[:0]
	}
	s.frames = append(s.frames, Frame{State: state, Depth: depth})
}

// Top returns the most recent frame; ok is false when empty.
func (s *Stack) Top() (Frame, bool) {
	if len(s.frames) == 0 {
		return Frame{}, false
	}
	return s.frames[len(s.frames)-1], true
}

// Pop removes and returns the most recent frame. It must not be called on
// an empty stack.
func (s *Stack) Pop() Frame {
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	return f
}

// KindMap records, per document depth, whether the open element at that
// depth is an object (true) or an array (false). It is written on every
// element entry and read by comma/colon toggling; because it is indexed by
// depth rather than kept as a push/pop stack, the engine's tail-skip can
// jump across whole element ranges without unwinding it — stale entries at
// intermediate depths are never read (see engine documentation). Inline
// storage covers depth 256; deeper documents spill to the heap. The zero
// value is ready to use.
type KindMap struct {
	words  []uint64
	inline [4]uint64
}

// Reset forgets all entries.
func (s *KindMap) Reset() {
	s.words = s.inline[:0]
}

// Set records the element kind at the given depth (>= 0).
func (s *KindMap) Set(depth int, isObject bool) {
	if s.words == nil {
		s.words = s.inline[:0]
	}
	word, bit := depth/64, uint(depth%64)
	for word >= len(s.words) {
		s.words = append(s.words, 0)
	}
	if isObject {
		s.words[word] |= 1 << bit
	} else {
		s.words[word] &^= 1 << bit
	}
}

// Get returns the element kind at the given depth. Depths never Set since
// the last Reset read as object; well-formed input always Sets a depth
// before reading it, so this default only shields scans of malformed input.
func (s *KindMap) Get(depth int) bool {
	if w := depth / 64; w < len(s.words) {
		return s.words[w]>>(uint(depth%64))&1 == 1
	}
	return true
}

// IntStack is a stack of ints with inline storage for 64 entries. The zero
// value is ready to use.
type IntStack struct {
	vals   []int
	inline [64]int
}

// Reset empties the stack.
func (s *IntStack) Reset() {
	s.vals = s.inline[:0]
}

// Len returns the number of entries.
func (s *IntStack) Len() int { return len(s.vals) }

// Push appends v.
func (s *IntStack) Push(v int) {
	if s.vals == nil {
		s.vals = s.inline[:0]
	}
	s.vals = append(s.vals, v)
}

// Pop removes the top entry. It must not be called on an empty stack.
func (s *IntStack) Pop() {
	s.vals = s.vals[:len(s.vals)-1]
}

// Top returns the top entry. It must not be called on an empty stack.
func (s *IntStack) Top() int { return s.vals[len(s.vals)-1] }

// Inc increments the top entry. It must not be called on an empty stack.
func (s *IntStack) Inc() { s.vals[len(s.vals)-1]++ }
