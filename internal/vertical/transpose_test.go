package vertical

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestTranspose64Involution: transposing twice restores the original
// matrix, and single transposition moves bit j of word i to bit i of
// word j.
func TestTranspose64Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m, orig [64]uint64
	for i := range m {
		m[i] = rng.Uint64()
	}
	orig = m
	Transpose64(&m)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			got := m[j] >> uint(i) & 1
			want := orig[i] >> uint(j) & 1
			if got != want {
				t.Fatalf("transpose bit (%d,%d): got %d want %d", i, j, got, want)
			}
		}
	}
	Transpose64(&m)
	if m != orig {
		t.Fatalf("double transpose is not the identity")
	}
}

// TestSliceRoundTrip: Slice followed by Unslice recovers the elements
// masked to the width, across random widths 1..64 and ragged lengths.
func TestSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		width := 1 + rng.Intn(64)
		n := 1 + rng.Intn(300)
		elems := make([]uint64, n)
		for i := range elems {
			elems[i] = rng.Uint64()
		}
		slices := Slice(elems, width)
		if len(slices) != width {
			t.Fatalf("Slice returned %d slices, want %d", len(slices), width)
		}
		mask := WidthMask(width)
		// Slices must be canonical: bits beyond n zero in the last word.
		if n%64 != 0 {
			tail := uint64(1)<<uint(n%64) - 1
			for j, s := range slices {
				if s[len(s)-1]&^tail != 0 {
					t.Fatalf("width %d n %d: slice %d tail not canonical: %#x", width, n, j, s[len(s)-1])
				}
			}
		}
		// Spot-check the layout contract directly.
		for probe := 0; probe < 16; probe++ {
			i := rng.Intn(n)
			j := rng.Intn(width)
			got := slices[j][i/64] >> uint(i%64) & 1
			want := elems[i] >> uint(j) & 1
			if got != want {
				t.Fatalf("width %d n %d: slice bit (%d,%d) = %d, want %d", width, n, i, j, got, want)
			}
		}
		back := Unslice(slices, n)
		for i := range back {
			if back[i] != elems[i]&mask {
				t.Fatalf("width %d n %d: element %d round-tripped to %#x, want %#x",
					width, n, i, back[i], elems[i]&mask)
			}
		}
	}
}

// TestSliceIntoReuse: SliceInto into oversized preallocated slices only
// writes the covered words and honors the zero-padding contract.
func TestSliceIntoReuse(t *testing.T) {
	elems := []uint64{3, 1, 2}
	width := 2
	words := SliceWords(len(elems))
	slices := make([][]uint64, width)
	for j := range slices {
		slices[j] = []uint64{^uint64(0)} // dirty
	}
	_ = words
	SliceInto(slices, elems)
	if slices[0][0] != 0b011 || slices[1][0] != 0b101 {
		t.Fatalf("SliceInto got %#b/%#b, want 011/101", slices[0][0], slices[1][0])
	}
}

// splitMix is the transpose tests' element PRNG: deterministic per
// seed and independent of math/rand's stream evolution.
func splitMix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sentinel fills the words past a slice's SliceWords(n) prefix, which no
// converter may write.
const sentinel = 0xDEAD_BEEF_F00D_CAFE

// checkTranspose runs every converter over elems at the given width and
// compares each against a per-bit reference: SliceInto and SliceBytesInto
// must set exactly bit j of element i at bit i of slice j, zero the tail
// of the last word and leave the words after it untouched, and
// SliceBytesInto must report the first element with bits at or above
// the width; UnsliceInto and UnsliceBytesInto must recover every element
// masked to the width while ignoring slice bits past the last element.
func checkTranspose(t *testing.T, width int, elems []uint64) {
	t.Helper()
	n, words := len(elems), SliceWords(len(elems))
	mask := WidthMask(width)
	raw := make([]byte, 8*n)
	firstOver := -1
	for i, e := range elems {
		binary.LittleEndian.PutUint64(raw[8*i:], e)
		if e&^mask != 0 && firstOver < 0 {
			firstOver = i
		}
	}
	fresh := func() [][]uint64 {
		s := make([][]uint64, width)
		for j := range s {
			s[j] = make([]uint64, words+1)
			for k := range s[j] {
				s[j][k] = sentinel
			}
		}
		return s
	}
	fromElems, fromBytes := fresh(), fresh()
	SliceInto(fromElems, elems)
	if got := SliceBytesInto(fromBytes, raw); got != firstOver {
		t.Fatalf("w=%d n=%d: SliceBytesInto reports element %d over the width, want %d", width, n, got, firstOver)
	}
	for j := 0; j < width; j++ {
		for k := 0; k <= words; k++ {
			if fromBytes[j][k] != fromElems[j][k] {
				t.Fatalf("w=%d n=%d: slice %d word %d: bytes form %#x, elements form %#x",
					width, n, j, k, fromBytes[j][k], fromElems[j][k])
			}
		}
		if fromElems[j][words] != sentinel {
			t.Fatalf("w=%d n=%d: slice %d word %d past SliceWords(n) was written", width, n, j, words)
		}
		for i := 0; i < 64*words; i++ {
			want := uint64(0)
			if i < n {
				want = elems[i] >> uint(j) & 1
			}
			if got := fromElems[j][i/64] >> uint(i%64) & 1; got != want {
				t.Fatalf("w=%d n=%d: slice %d bit %d = %d, want %d", width, n, j, i, got, want)
			}
		}
	}
	// Dirty the tail bits past the last element: unslicing must ignore them.
	if n%64 != 0 {
		for j := range fromElems {
			fromElems[j][words-1] |= ^uint64(0) << uint(n%64)
		}
	}
	back := make([]uint64, n)
	UnsliceInto(back, fromElems)
	backRaw := make([]byte, 8*n)
	UnsliceBytesInto(backRaw, fromElems)
	for i := range back {
		if back[i] != elems[i]&mask {
			t.Fatalf("w=%d n=%d: UnsliceInto element %d = %#x, want %#x", width, n, i, back[i], elems[i]&mask)
		}
		if got := binary.LittleEndian.Uint64(backRaw[8*i:]); got != back[i] {
			t.Fatalf("w=%d n=%d: UnsliceBytesInto element %d = %#x, want %#x", width, n, i, got, back[i])
		}
	}
}

// TestTransposeSweep runs checkTranspose at every width 1..64 over
// lengths that straddle each width's transpose group (64·64/p elements
// for the width rounded up to the power of two p) and block (eight
// groups): a single element, one word ±1, one group ±1, one block ±1,
// three groups of the narrowest width plus a ragged tail, and three
// blocks plus a ragged tail. Elements are random 64-bit values, so every
// width also exercises the discarded high bits; a second pass masks them
// to the width so SliceBytesInto's all-clear answer is checked too, and
// a third sets one bit over the width in the last element only.
func TestTransposeSweep(t *testing.T) {
	seed := uint64(3)
	for width := 1; width <= 64; width++ {
		grp := 64 * 64 / rowBits(width)
		blk := 8 * grp
		for _, n := range []int{1, 63, 64, 65, grp - 1, grp, grp + 1, blk - 1, blk, blk + 1, 3*4096 + 17, 3*blk + 17} {
			elems := make([]uint64, n)
			for i := range elems {
				elems[i] = splitMix(&seed)
			}
			checkTranspose(t, width, elems)
			for i := range elems {
				elems[i] &= WidthMask(width)
			}
			checkTranspose(t, width, elems)
			if width < 64 {
				elems[n-1] |= 1 << uint(width)
				checkTranspose(t, width, elems)
			}
		}
	}
}

// FuzzTranspose drives checkTranspose with random widths, lengths up to
// two 1-bit blocks, and element values either full 64-bit random or
// masked to the width — then, below width 64, again with one seed-chosen
// element over the width.
func FuzzTranspose(f *testing.F) {
	f.Add(uint8(0), uint16(1), uint64(1), false)
	f.Add(uint8(7), uint16(1024), uint64(2), true)
	f.Add(uint8(12), uint16(257), uint64(3), false)
	f.Add(uint8(31), uint16(129), uint64(4), true)
	f.Add(uint8(63), uint16(65), uint64(5), false)
	f.Fuzz(func(t *testing.T, wc uint8, nc uint16, seed uint64, clean bool) {
		width := int(wc)%64 + 1
		elems := make([]uint64, int(nc)+1)
		for i := range elems {
			elems[i] = splitMix(&seed)
			if clean {
				elems[i] &= WidthMask(width)
			}
		}
		checkTranspose(t, width, elems)
		if clean && width < 64 {
			elems[seed%uint64(len(elems))] |= 1 << uint(width)
			checkTranspose(t, width, elems)
		}
	})
}
