package simd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refCmpEq8 is the scalar oracle for CmpEq8.
func refCmpEq8(b *Block, c byte) uint64 {
	var m uint64
	for i, v := range b {
		if v == c {
			m |= 1 << uint(i)
		}
	}
	return m
}

// refPrefixXor is the scalar oracle for PrefixXor.
func refPrefixXor(x uint64) uint64 {
	var out uint64
	parity := uint64(0)
	for i := 0; i < 64; i++ {
		parity ^= (x >> uint(i)) & 1
		out |= parity << uint(i)
	}
	return out
}

func randomBlock(r *rand.Rand) Block {
	var b Block
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

func TestLoadBlockPadsAndCounts(t *testing.T) {
	var b Block
	n := LoadBlock(&b, []byte("abc"), ' ')
	if n != 3 {
		t.Fatalf("LoadBlock returned %d, want 3", n)
	}
	if b[0] != 'a' || b[1] != 'b' || b[2] != 'c' {
		t.Fatalf("prefix not copied: %q", b[:3])
	}
	for i := 3; i < BlockSize; i++ {
		if b[i] != ' ' {
			t.Fatalf("byte %d not padded: %q", i, b[i])
		}
	}
}

func TestLoadBlockFull(t *testing.T) {
	src := make([]byte, 100)
	for i := range src {
		src[i] = byte(i)
	}
	var b Block
	n := LoadBlock(&b, src, ' ')
	if n != BlockSize {
		t.Fatalf("LoadBlock returned %d, want %d", n, BlockSize)
	}
	for i := 0; i < BlockSize; i++ {
		if b[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d", i, b[i], i)
		}
	}
}

func TestCmpEq8KnownPattern(t *testing.T) {
	var b Block
	LoadBlock(&b, []byte(`{"a":1,"b":[2,3]}`), ' ')
	if got := CmpEq8(&b, '{'); got != 1<<0 {
		t.Errorf("mask for '{' = %#x, want %#x", got, 1<<0)
	}
	if got := CmpEq8(&b, ','); got != 1<<6|1<<13 {
		t.Errorf("mask for ',' = %#x, want %#x", got, uint64(1<<6|1<<13))
	}
	if got := CmpEq8(&b, 'z'); got != 0 {
		t.Errorf("mask for 'z' = %#x, want 0", got)
	}
}

func TestCmpEq8MatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		b := randomBlock(r)
		c := byte(r.Intn(256))
		if got, want := CmpEq8(&b, c), refCmpEq8(&b, c); got != want {
			t.Fatalf("trial %d: CmpEq8(%v, %#x) = %#x, want %#x", trial, b, c, got, want)
		}
	}
}

func TestCmpEq8AllSame(t *testing.T) {
	var b Block
	for i := range b {
		b[i] = 0x7B
	}
	if got := CmpEq8(&b, 0x7B); got != ^uint64(0) {
		t.Fatalf("all-equal block mask = %#x, want all ones", got)
	}
	if got := CmpEq8(&b, 0x7C); got != 0 {
		t.Fatalf("no-match block mask = %#x, want 0", got)
	}
}

func TestCmpEq8ZeroByte(t *testing.T) {
	// The has-zero trick is most fragile around 0x00 and 0xFF operands.
	var b Block
	b[0], b[17], b[63] = 0x00, 0x00, 0x00
	for i := range b {
		if b[i] == 0 && i != 0 && i != 17 && i != 63 {
			b[i] = 1
		}
	}
	b[5] = 0xFF
	if got, want := CmpEq8(&b, 0x00), refCmpEq8(&b, 0x00); got != want {
		t.Fatalf("zero-byte mask = %#x, want %#x", got, want)
	}
	if got, want := CmpEq8(&b, 0xFF), refCmpEq8(&b, 0xFF); got != want {
		t.Fatalf("0xFF mask = %#x, want %#x", got, want)
	}
}

func TestCmpEq8PairMatchesSingles(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1000; trial++ {
		b := randomBlock(r)
		c1, c2 := byte(r.Intn(256)), byte(r.Intn(256))
		m1, m2 := CmpEq8Pair(&b, c1, c2)
		if m1 != CmpEq8(&b, c1) || m2 != CmpEq8(&b, c2) {
			t.Fatalf("trial %d: pair masks diverge from singles", trial)
		}
	}
}

func TestPrefixXorMatchesReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 5000}
	if err := quick.Check(func(x uint64) bool {
		return PrefixXor(x) == refPrefixXor(x)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixXorKnown(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0},
		{1, ^uint64(0)},              // single quote at bit 0: everything after is "inside"
		{0b1001, 0b0111},             // open at 0, close at 3
		{1 << 63, 1 << 63},           // open at the last position
		{0b101, ^uint64(0) &^ 0b011}, // open 0, close 2, reopen onward? 0b101: bits0,2 set
	}
	// Recompute the third case honestly via the reference.
	cases[4].want = refPrefixXor(cases[4].in)
	for _, c := range cases {
		if got := PrefixXor(c.in); got != c.want {
			t.Errorf("PrefixXor(%#b) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestNibbleEqAgainstDirect(t *testing.T) {
	// Table mapping every byte with upper nibble 3 and lower nibble A (that
	// is, only 0x3A) to a matching pair.
	var utab, ltab NibbleTable
	for i := range utab {
		utab[i], ltab[i] = 0xFE, 0xFF
	}
	utab[0x3] = 1
	ltab[0xA] = 1
	var b Block
	LoadBlock(&b, []byte("a:b ::"), ' ')
	want := refCmpEq8(&b, ':')
	if got := NibbleEq(&b, &utab, &ltab); got != want {
		t.Fatalf("NibbleEq = %#x, want %#x", got, want)
	}
}

func TestNibbleOrAgainstDirect(t *testing.T) {
	// Few-groups encoding of the same single-symbol classifier: group 1 is
	// ({3},{A}). utab zeroes bit 0, ltab sets bit 0.
	var utab, ltab NibbleTable
	utab[0x3] = 0xFF &^ 0x01
	ltab[0xA] = 0x01
	var b Block
	LoadBlock(&b, []byte("x:yz: :"), ' ')
	want := refCmpEq8(&b, ':')
	if got := NibbleOr(&b, &utab, &ltab); got != want {
		t.Fatalf("NibbleOr = %#x, want %#x", got, want)
	}
}

func TestBitsBelow(t *testing.T) {
	if BitsBelow(0) != 0 {
		t.Error("BitsBelow(0) != 0")
	}
	if BitsBelow(1) != 1 {
		t.Error("BitsBelow(1) != 1")
	}
	if BitsBelow(64) != ^uint64(0) {
		t.Error("BitsBelow(64) != all ones")
	}
	if BitsBelow(63) != ^uint64(0)>>1 {
		t.Error("BitsBelow(63) wrong")
	}
}

func TestClearLowest(t *testing.T) {
	x := uint64(0b10110)
	x = ClearLowest(x)
	if x != 0b10100 {
		t.Fatalf("ClearLowest = %#b", x)
	}
	if ClearLowest(0) != 0 {
		t.Fatal("ClearLowest(0) != 0")
	}
}

func TestTrailingZerosEmpty(t *testing.T) {
	if TrailingZeros(0) != 64 {
		t.Fatal("TrailingZeros(0) != 64")
	}
	if TrailingZeros(1<<13) != 13 {
		t.Fatal("TrailingZeros(1<<13) != 13")
	}
}

func BenchmarkCmpEq8(b *testing.B) {
	var blk Block
	r := rand.New(rand.NewSource(3))
	blk = randomBlock(r)
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		sink ^= CmpEq8(&blk, ',')
	}
}

func BenchmarkNibbleEq(b *testing.B) {
	var blk Block
	r := rand.New(rand.NewSource(4))
	blk = randomBlock(r)
	var utab, ltab NibbleTable
	for i := range utab {
		utab[i], ltab[i] = 0xFE, 0xFF
	}
	utab[0x3], ltab[0xA] = 1, 1
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		sink ^= NibbleEq(&blk, &utab, &ltab)
	}
}

var sink uint64

func TestBracketMasks(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 1000; trial++ {
		b := randomBlock(r)
		opens, closes := BracketMasks(&b)
		wantOpens := refCmpEq8(&b, '{') | refCmpEq8(&b, '[')
		wantCloses := refCmpEq8(&b, '}') | refCmpEq8(&b, ']')
		if opens != wantOpens || closes != wantCloses {
			t.Fatalf("trial %d: BracketMasks mismatch", trial)
		}
	}
}
