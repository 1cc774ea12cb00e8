package classifier

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rsonpath/internal/jsongen"
)

// Corpus behind byteRank: rankSample bytes of every jsongen profile,
// generated with rankSeed.
const (
	rankSample = 1 << 20
	rankSeed   = 1
)

// deriveByteRank recomputes the rank table from the jsongen corpus: bytes
// are ordered by their count over the corpus, ties by byte value, and each
// byte's rank is its position in that order, 0 for the rarest.
func deriveByteRank() [256]byte {
	var counts [256]int
	for _, p := range jsongen.Profiles() {
		for _, b := range p.Generate(rankSample, rankSeed) {
			counts[b]++
		}
	}
	order := make([]int, 256)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if counts[a] != counts[b] {
			return counts[a] < counts[b]
		}
		return a < b
	})
	var rank [256]byte
	for r, b := range order {
		rank[b] = byte(r)
	}
	return rank
}

// formatByteRank renders a rank table as the Go literal byterank.go holds.
func formatByteRank(rank [256]byte) string {
	var sb strings.Builder
	sb.WriteString("var byteRank = [256]byte{\n")
	for row := 0; row < 256; row += 16 {
		sb.WriteString("\t")
		for b := row; b < row+16; b++ {
			if b > row {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%d,", rank[b])
		}
		fmt.Fprintf(&sb, " // 0x%02X\n", row)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TestByteRankMatchesJsongen regenerates the committed rank table from the
// jsongen profiles. On a mismatch (a profile's generator changed) it prints
// the table to commit.
func TestByteRankMatchesJsongen(t *testing.T) {
	if got := deriveByteRank(); got != byteRank {
		t.Fatalf("byteRank is stale; regenerated from jsongen:\n%s", formatByteRank(got))
	}
}

func TestByteRankOrdersJSONBytes(t *testing.T) {
	// The property the needle choice rests on: a quote fires at every
	// string, so it must rank as common as any byte.
	if byteRank['"'] != 255 {
		t.Fatalf(`byteRank['"'] = %d, want 255 (the most frequent byte)`, byteRank['"'])
	}
	seen := map[byte]bool{}
	for _, r := range byteRank {
		if seen[r] {
			t.Fatalf("rank %d assigned twice: byteRank is not a permutation", r)
		}
		seen[r] = true
	}
}

func TestNewNeedlePicksRareDistinctBytes(t *testing.T) {
	for _, label := range []string{"", "a", "ee", `"`, "inner", "DOI", "vitamins_tags", "search_metadata", `k\"ey`} {
		pattern := []byte(`"` + label + `"`)
		n := NewNeedle(pattern)
		if n.rare1 == n.rare2 || n.rare1 < 0 || n.rare2 < 0 || n.rare1 >= len(pattern) || n.rare2 >= len(pattern) {
			t.Fatalf("NewNeedle(%q): offsets (%d,%d) not two distinct offsets of the pattern", pattern, n.rare1, n.rare2)
		}
		b1, b2 := pattern[n.rare1], pattern[n.rare2]
		for i, b := range pattern {
			if byteRank[b] < byteRank[b1] {
				t.Fatalf("NewNeedle(%q): byte %q at %d is rarer than the first pick %q", pattern, b, i, b1)
			}
			if b != b1 && byteRank[b] < byteRank[b2] {
				t.Fatalf("NewNeedle(%q): byte %q at %d is rarer than the second pick %q", pattern, b, i, b2)
			}
		}
		distinct := map[byte]bool{}
		for i := 0; i < len(label); i++ {
			if label[i] != '"' {
				distinct[label[i]] = true
			}
		}
		if len(distinct) >= 2 && (b1 == '"' || b2 == '"') {
			t.Fatalf("NewNeedle(%q) picked a quote (%q, %q) over two distinct label bytes", pattern, b1, b2)
		}
	}
}
