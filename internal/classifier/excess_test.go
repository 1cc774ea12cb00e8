package classifier

import (
	"strings"
	"testing"

	"rsonpath/internal/input"
	"rsonpath/internal/simd"
)

// summaryDoc inserts copies of data at offset at (taken modulo the length)
// until the document spans more than two superblocks, so that skips from
// the first copy cross whole blocks and superblocks of arbitrary bracket
// structure.
func summaryDoc(data []byte, at int) []byte {
	if len(data) == 0 {
		data = []byte(" ")
	}
	at %= len(data) + 1
	var sb strings.Builder
	sb.Write(data[:at])
	for sb.Len() <= 2*superBlocks*simd.BlockSize {
		sb.Write(data)
	}
	sb.Write(data[at:])
	return []byte(sb.String())
}

// checkSummary holds every block's and superblock's numbers to a bracket
// count over the planes, one bit at a time.
func checkSummary(t *testing.T, p *Planes) {
	t.Helper()
	var snet, slow int
	for i := range p.Opens {
		net, low := 0, 0
		for bit := 0; bit < simd.BlockSize; bit++ {
			net += int(p.Opens[i]>>bit&1) - int(p.Closes[i]>>bit&1)
			low = min(low, net)
		}
		if gnet, glow := p.blockExcess(i); gnet != net || glow != low {
			t.Fatalf("block %d: summary (%d, %d), count (%d, %d)", i, gnet, glow, net, low)
		}
		slow = min(slow, snet+low)
		snet += net
		if i%superBlocks == superBlocks-1 || i == len(p.Opens)-1 {
			if gnet, glow := p.superExcess(i / superBlocks); gnet != snet || glow != slow {
				t.Fatalf("superblock %d: summary (%d, %d), count (%d, %d)", i/superBlocks, gnet, glow, snet, slow)
			}
			snet, slow = 0, 0
		}
	}
}

// checkSummarySkips runs SkipToClose from every opener (as the child skip
// does) and from after every comma and colon (as the sibling skips do)
// over planes that carry the excess summary, and holds each result —
// position, verdict and where the stream is left — to the same skip over a
// cold stream.
func checkSummarySkips(t *testing.T, doc []byte) {
	t.Helper()
	p := BuildPlanes(doc)
	if p.Blocks() > 0 && p.blockEx == nil {
		t.Fatal("BuildPlanes built no excess summary")
	}
	checkSummary(t, p)
	in := input.NewBytes(doc)
	check := func(from int, open byte) {
		warm := NewStreamPlanes(in, p)
		gotPos, gotOK := SkipToClose(warm, from, open)
		gotAt, gotEnd := warm.BlockStart(), warm.Exhausted()
		warm.Release()
		cold := NewStream(doc)
		wantPos, wantOK := SkipToClose(cold, from, open)
		wantAt, wantEnd := cold.BlockStart(), cold.Exhausted()
		cold.Release()
		if gotPos != wantPos || gotOK != wantOK || gotAt != wantAt || gotEnd != wantEnd {
			t.Fatalf("SkipToClose(%d, %q) over %d bytes: summary (%d,%v) at block %d end %v, cold (%d,%v) at block %d end %v",
				from, open, len(doc), gotPos, gotOK, gotAt, gotEnd, wantPos, wantOK, wantAt, wantEnd)
		}
	}
	for i := range doc {
		w, bit := i/simd.BlockSize, uint(i%simd.BlockSize)
		switch {
		case p.Opens[w]>>bit&1 == 1:
			check(i+1, doc[i])
		case (p.Commas[w]|p.Colons[w])>>bit&1 == 1:
			check(i+1, '{')
		}
	}
}

// FuzzSkipSummary holds the summarized depth skip of an indexed document to
// the plane-word walk of a cold stream, for arbitrary bytes: same closer,
// same mismatched-closer and end-of-input verdicts.
func FuzzSkipSummary(f *testing.F) {
	f.Add([]byte(`{"a": [1, {"b": 2}], "c": {"d": [[], {}]}}`), uint16(9))
	// Count-balanced, with mismatched closers.
	f.Add([]byte(`{"a": [1, 2}, "b": {"c": ]}`), uint16(12))
	f.Add([]byte(`[{"x": "]}\"[{"}, [[[]]], {"y": {}}]`), uint16(20))
	f.Add([]byte(`[[[[`), uint16(2))
	f.Add([]byte(`}}]]`), uint16(0))
	f.Add([]byte(strings.Repeat(`{"k": [`, 40)+strings.Repeat(`]}`, 40)), uint16(280))
	// Depths past what one block's int8 numbers hold: the superblock level
	// must carry them.
	f.Add([]byte(strings.Repeat("[", 5000)+strings.Repeat("]", 5000)), uint16(0))
	f.Add([]byte(`{"a": [`+strings.Repeat(`{"k": "vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv"}, `, 300)+`1], "b": {}}`), uint16(0))
	f.Add([]byte(strings.Repeat(`[{"x": "}]"}, `, 700)+strings.Repeat("]", 699)), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, at uint16) {
		checkSummarySkips(t, summaryDoc(data, int(at)))
	})
}
