package simd

import (
	"math/rand"
	"testing"
)

// refPairAnchors is the scalar oracle for the pair filter: every anchor
// whose two needle bytes match.
func refPairAnchors(hay, needle []byte, i1, i2 int) []int {
	var out []int
	for a := 0; a+len(needle) <= len(hay); a++ {
		if hay[a+i1] == needle[i1] && hay[a+i2] == needle[i2] {
			out = append(out, a)
		}
	}
	return out
}

// pairStep is one PairCandidates result, its base made absolute.
type pairStep struct {
	base int
	mask uint64
}

// pairWalk drives filter over hay the way the seeker does — resume past
// each returned chunk until a zero mask — and returns every step plus the
// candidate anchors the masks name.
func pairWalk(t *testing.T, filter func(hay, needle []byte, i1, i2 int) (int, uint64),
	hay, needle []byte, i1, i2 int) (steps []pairStep, anchors []int) {
	t.Helper()
	pos := 0
	for {
		base, mask := filter(hay[pos:], needle, i1, i2)
		steps = append(steps, pairStep{pos + base, mask})
		if mask == 0 {
			return steps, anchors
		}
		if base%BlockSize != 0 {
			t.Fatalf("chunk base %d is not a multiple of %d", base, BlockSize)
		}
		for m := mask; m != 0; m = ClearLowest(m) {
			anchors = append(anchors, pos+base+TrailingZeros(m))
		}
		pos += base + BlockSize
		if pos > len(hay) {
			return steps, anchors
		}
	}
}

// checkPairs holds the active backend's pair filter bit-identical to the
// SWAR kernel, step by step, and the SWAR kernel to the scalar oracle.
func checkPairs(t *testing.T, hay, needle []byte, i1, i2 int) {
	t.Helper()
	got, _ := pairWalk(t, PairCandidates, hay, needle, i1, i2)
	want, anchors := pairWalk(t, pairCandidatesSWAR, hay, needle, i1, i2)
	if len(got) != len(want) {
		t.Fatalf("%s: len(hay)=%d needle=%q (%d,%d): %d steps %v, want %d %v (swar)",
			Backend(), len(hay), needle, i1, i2, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: len(hay)=%d needle=%q (%d,%d): step %d = %+v, want %+v (swar)",
				Backend(), len(hay), needle, i1, i2, i, got[i], want[i])
		}
	}
	ref := refPairAnchors(hay, needle, i1, i2)
	if len(anchors) != len(ref) {
		t.Fatalf("swar: len(hay)=%d needle=%q (%d,%d): anchors %v, want %v",
			len(hay), needle, i1, i2, anchors, ref)
	}
	for i := range ref {
		if anchors[i] != ref[i] {
			t.Fatalf("swar: len(hay)=%d needle=%q (%d,%d): anchors %v, want %v",
				len(hay), needle, i1, i2, anchors, ref)
		}
	}
}

// checkPairSlices runs checkPairs over every start alignment and every
// tail length of hay within one block of its ends.
func checkPairSlices(t *testing.T, hay, needle []byte, i1, i2 int) {
	t.Helper()
	for s := 0; s < BlockSize && s <= len(hay); s++ {
		checkPairs(t, hay[s:], needle, i1, i2)
		checkPairs(t, hay[:len(hay)-s], needle, i1, i2)
	}
}

// pairHaystack is a quote-heavy haystack with needle planted at a spread of
// offsets, including across the 64-anchor chunk grid.
func pairHaystack(r *rand.Rand, n int, needle []byte) []byte {
	alphabet := []byte(`"ab:`)
	hay := make([]byte, n)
	for i := range hay {
		hay[i] = alphabet[r.Intn(len(alphabet))]
	}
	for _, at := range []int{0, 1, 30, 62, 63, 64, 100, 127, 128, n - len(needle)} {
		if at >= 0 && at+len(needle) <= n {
			copy(hay[at:], needle)
		}
	}
	return hay
}

func TestPairCandidatesAllBackends(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, name := range Backends() {
		withBackend(t, name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 5, 8, 17, 40, 41} {
				needle := make([]byte, n)
				for i := range needle {
					needle[i] = `"ab:`[r.Intn(4)]
				}
				hay := pairHaystack(r, 330, needle)
				pairs := [][2]int{{0, n - 1}, {n - 1, 0}, {n / 2, n - 1}, {0, 0}}
				if n <= 5 {
					for i1 := 0; i1 < n; i1++ {
						for i2 := 0; i2 < n; i2++ {
							pairs = append(pairs, [2]int{i1, i2})
						}
					}
				}
				for _, p := range pairs {
					checkPairSlices(t, hay, needle, p[0], p[1])
				}
			}
			// Haystacks shorter than the needle have no anchors.
			checkPairs(t, []byte(`"a`), []byte(`"ab"`), 0, 2)
			checkPairs(t, nil, []byte(`"`), 0, 0)
		})
	}
}

// checkBackendPairs is FuzzBackendEquivalence's pair-filter leg: a needle
// cut from the end of data (so at least one anchor is a candidate) is
// filtered under every offset pair, start alignment and tail length. The
// sweep reads at most the last 320 bytes — five chunks and a tail — so an
// exec stays cheap on large inputs.
func checkBackendPairs(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	n := 1 + int(data[0])%6
	if n > len(data) {
		n = len(data)
	}
	hay := data
	if len(hay) > 320 {
		hay = hay[len(hay)-320:]
	}
	needle := hay[len(hay)-n:]
	for i1 := 0; i1 < n; i1++ {
		for i2 := 0; i2 < n; i2++ {
			checkPairSlices(t, hay, needle, i1, i2)
		}
	}
}
