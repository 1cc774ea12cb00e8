package classifier

import "rsonpath/internal/simd"

// The bracket-excess summary of a whole-document Planes: for every block,
// the net bracket excess (openers minus closers, outside strings) and the
// minimum prefix excess within the block, both relative to the block's
// start; and the same two numbers for every superblock of superBlocks
// blocks. It is the per-block level of the range min-max tree of succinct
// trees (Navarro & Sadakane, "Fully functional static and dynamic succinct
// trees", TALG 2014) plus one level above it. A depth skip that enters a
// block at relative depth d cannot close the subtree inside it when
// d+min > 0, so the skip adds net and moves on without reading a plane
// word; a superblock is passed the same way in one step. Cold windows
// carry no summary: there the count rides on a classification the run
// pays for anyway.
//
// The summary lives in the planes' backing array, so building it costs no
// allocation. A block's two numbers lie in [-64, 64] and take one int8
// each, four blocks to a word: block i sits in bits 16*(i%4) of word i/4,
// net in the low byte. A superblock takes a word: net in the low 32 bits,
// min in the high 32.

// superBlocks is the number of blocks one superblock summarizes.
const superBlocks = 64

// summaryWords returns the words the summary of n blocks occupies.
func summaryWords(n int) int { return (n+3)/4 + (n+superBlocks-1)/superBlocks }

// blockExcess returns block i's net and minimum prefix excess.
func (p *Planes) blockExcess(i int) (net, low int) {
	w := p.blockEx[i/4] >> (16 * (i % 4))
	return int(int8(w)), int(int8(w >> 8))
}

// superExcess returns superblock j's net and minimum prefix excess.
func (p *Planes) superExcess(j int) (net, low int) {
	w := p.superEx[j]
	return int(int32(w)), int(int32(w >> 32))
}

// summarize builds p's excess summary from its bracket planes into
// backing, which must hold summaryWords(p.Blocks()) zero words.
func (p *Planes) summarize(backing []uint64) {
	n := len(p.Opens)
	p.blockEx, p.superEx = backing[:(n+3)/4], backing[(n+3)/4:summaryWords(n)]
	var net, low int32 // the current superblock's
	for i, o := range p.Opens {
		c := p.Closes[i]
		bnet := simd.Popcount(o) - simd.Popcount(c)
		blow := 0
		if c != 0 {
			// The minimum is reached right after some closer: walk them in
			// order, counting the openers before each.
			k := 0
			for cm := c; cm != 0; cm = simd.ClearLowest(cm) {
				k++
				blow = min(blow, simd.Popcount(o&simd.BitsBelow(simd.TrailingZeros(cm)))-k)
			}
		}
		p.blockEx[i/4] |= (uint64(uint8(bnet)) | uint64(uint8(blow))<<8) << (16 * (i % 4))
		low = min(low, net+int32(blow))
		net += int32(bnet)
		if i%superBlocks == superBlocks-1 || i == n-1 {
			p.superEx[i/superBlocks] = uint64(uint32(net)) | uint64(uint32(low))<<32
			net, low = 0, 0
		}
	}
}

// skipSummarized is SkipToClose over planes that carry an excess summary:
// it word-walks the start block from offset from on, as the plane walk
// does, then passes every superblock and block whose minimum prefix excess
// cannot close the subtree, and word-walks only the landing block. It
// returns what the plane walk returns, verdicts included.
func skipSummarized(s *Stream, from int, open byte) (closePos int, ok bool) {
	s.settle()
	idx := max(s.blockStart, from) / simd.BlockSize
	skip := simd.BitsBelow(max(from-idx*simd.BlockSize, 0))
	p := &s.w
	if idx >= len(p.Opens) {
		s.markExhausted()
		return 0, false
	}
	bit, depth := closeWithin(p.Opens[idx]&^skip, p.Closes[idx]&^skip, 1)
	for bit < 0 {
		if idx++; idx >= len(p.Opens) {
			s.markExhausted()
			return 0, false
		}
		if idx%superBlocks == 0 {
			if net, low := p.superExcess(idx / superBlocks); depth+low > 0 {
				depth += net
				idx += superBlocks - 1
				continue
			}
		}
		if net, low := p.blockExcess(idx); depth+low > 0 {
			depth += net
			continue
		}
		bit, depth = closeWithin(p.Opens[idx], p.Closes[idx], depth)
	}
	pos := idx*simd.BlockSize + bit
	s.JumpTo(pos)
	return pos, s.block[bit] == matchingClose(open)
}

// closeWithin walks one block's bracket words, entered at relative depth
// depth, and returns the bit of the closer that brings the depth to zero;
// or -1 and the depth at the block's end. SkipToClose's plane walk keeps
// its own inline copy of this loop, so that the cold path compiles as it
// did before the summary existed.
func closeWithin(om, cm uint64, depth int) (int, int) {
	accounted := uint64(0)
	for ; cm != 0; cm = simd.ClearLowest(cm) {
		bit := simd.TrailingZeros(cm)
		below := simd.BitsBelow(bit)
		depth += simd.Popcount(om & below &^ accounted)
		accounted = below | 1<<uint(bit)
		if depth--; depth == 0 {
			return bit, 0
		}
	}
	return -1, depth + simd.Popcount(om&^accounted)
}
