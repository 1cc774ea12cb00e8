package classifier

import (
	"math/rand"
	"testing"

	"rsonpath/internal/simd"
)

// assertRawCorrect verifies a classifier against its function on all 256
// byte values and on random blocks.
func assertRawCorrect(t *testing.T, c *RawClassifier, f ByteClass) {
	t.Helper()
	if !verify(c, f) {
		t.Fatalf("strategy %v misclassifies some byte", c.Strategy())
	}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		var b simd.Block
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		mask := c.Classify(&b)
		for i := range b {
			if (mask>>uint(i)&1 == 1) != f(b[i]) {
				t.Fatalf("strategy %v: byte %#x at %d misclassified", c.Strategy(), b[i], i)
			}
		}
	}
}

func in(set string) ByteClass {
	return func(b byte) bool {
		for i := 0; i < len(set); i++ {
			if set[i] == b {
				return true
			}
		}
		return false
	}
}

func TestRawStructuralSetIsNonOverlapping(t *testing.T) {
	// The paper's flagship example (§4.1): the six JSON structural
	// characters factor into non-overlapping groups.
	f := in("{}[]:,")
	c := BuildRaw(f)
	if c.Strategy() != StrategyNonOverlapping {
		t.Fatalf("structural set chose %v, want non-overlapping", c.Strategy())
	}
	assertRawCorrect(t, c, f)
}

// The paper's structural lookup tables (§4.1). JSON structural characters
// and their nibble decomposition:
//
//	{ 0x7B   } 0x7D   [ 0x5B   ] 0x5D   : 0x3A   , 0x2C
//
// Acceptance groups: ⟨{5,7},{B,D}⟩ → 1, ⟨{2},{C}⟩ → 2, ⟨{3},{A}⟩ → 3.
// The groups are non-overlapping, so classification is
// utab[upper] == ltab[lower], with sentinels 0xFE/0xFF that never match.
var (
	structuralUtab = simd.NibbleTable{
		0xFE, 0xFE, 0x02, 0x03, 0xFE, 0x01, 0xFE, 0x01,
		0xFE, 0xFE, 0xFE, 0xFE, 0xFE, 0xFE, 0xFE, 0xFE,
	}
	structuralLtab = simd.NibbleTable{
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0x03, 0x01, 0x02, 0x01, 0xFF, 0xFF,
	}
)

func TestRawStructuralMatchesPaperTables(t *testing.T) {
	// The paper's hand-written tables and the generic builder must classify
	// identically (the concrete group ids may differ).
	f := in("{}[]:,")
	c := BuildRaw(f)
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		var b simd.Block
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		if c.Classify(&b) != simd.NibbleEq(&b, &structuralUtab, &structuralLtab) {
			t.Fatal("generic builder disagrees with the paper's tables")
		}
	}
}

func TestRawOverlappingGroupsExample(t *testing.T) {
	// The paper's overlapping example: {0xa1,0xa2,0xb1,0xb2,0xc2}. Groups
	// ⟨{a,b},{1,2}⟩ and ⟨{c},{2}⟩ overlap, so non-overlapping is out; two
	// groups fit the few-groups method.
	f := func(b byte) bool {
		switch b {
		case 0xa1, 0xa2, 0xb1, 0xb2, 0xc2:
			return true
		}
		return false
	}
	c := BuildRaw(f)
	if c.Strategy() != StrategyFewGroups {
		t.Fatalf("overlapping example chose %v, want few-groups", c.Strategy())
	}
	assertRawCorrect(t, c, f)
}

func TestRawGeneralCase(t *testing.T) {
	// Force more than 8 distinct acceptance sets: upper nibble u accepts
	// lower nibbles {0..u} for u in 0..11, giving 12 groups.
	f := func(b byte) bool {
		u, l := b>>4, b&0x0F
		return u < 12 && l <= u
	}
	c := BuildRaw(f)
	if c.Strategy() == StrategyNaive || c.Strategy() == StrategyNonOverlapping {
		t.Fatalf("12-group function chose %v", c.Strategy())
	}
	assertRawCorrect(t, c, f)
}

func TestRawEmptyAndFull(t *testing.T) {
	none := BuildRaw(func(byte) bool { return false })
	assertRawCorrect(t, none, func(byte) bool { return false })
	all := BuildRaw(func(byte) bool { return true })
	assertRawCorrect(t, all, func(byte) bool { return true })
}

func TestRawSingleValue(t *testing.T) {
	f := in(":")
	c := BuildRaw(f)
	assertRawCorrect(t, c, f)
}

func TestRawRandomFunctions(t *testing.T) {
	// Random classification functions of varying densities: whatever
	// strategy is selected must be exactly correct.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		accept := make(map[byte]bool)
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			accept[byte(r.Intn(256))] = true
		}
		f := func(b byte) bool { return accept[b] }
		assertRawCorrect(t, BuildRaw(f), f)
	}
}

func TestRawNaiveAlwaysAvailable(t *testing.T) {
	f := in("abcdef")
	c := BuildNaive(f)
	if c.Strategy() != StrategyNaive {
		t.Fatalf("BuildNaive returned %v", c.Strategy())
	}
	if len(c.Values()) != 6 {
		t.Fatalf("values %v", c.Values())
	}
	assertRawCorrect(t, c, f)
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyNaive:          "naive",
		StrategyNonOverlapping: "non-overlapping",
		StrategyFewGroups:      "few-groups",
		StrategyGeneral:        "general",
		Strategy(42):           "Strategy(42)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
