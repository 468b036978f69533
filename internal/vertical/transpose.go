package vertical

import (
	"encoding/binary"
	"math/bits"
)

// Transpose64 transposes a 64×64 bit matrix in place: bit j of word i
// moves to bit i of word j. The transform is an involution, so the same
// call converts in both directions. It is the kernel the slice converters
// run on every transpose group: the six butterfly rounds of the recursive
// block transpose, at row strides 32, 16, 8, 4, 2 and 1, where the round
// at stride s exchanges bit log2(s) of the row index with the same bit
// of the column index. Those exchanges commute, and the rounds at strides
// 32, 16 and 8 only pair rows congruent mod 8 while those at 4, 2 and 1
// only pair rows of one aligned run of 8, so the matrix is transposed in
// two passes over eight 8-row groups, each loaded once, put through its
// three rounds in registers with constant shifts, and stored back.
func Transpose64(m *[64]uint64) {
	for r := 0; r < 8; r++ {
		m[r], m[r+8], m[r+16], m[r+24], m[r+32], m[r+40], m[r+48], m[r+56] = rounds32to8(
			m[r], m[r+8], m[r+16], m[r+24], m[r+32], m[r+40], m[r+48], m[r+56])
	}
	for b := 7; b < 64; b += 8 {
		m[b-7], m[b-6], m[b-5], m[b-4], m[b-3], m[b-2], m[b-1], m[b] = rounds4to1(
			m[b-7], m[b-6], m[b-5], m[b-4], m[b-3], m[b-2], m[b-1], m[b])
	}
}

// exchange is one butterfly: it swaps the high s bits of every 2s-bit
// lane of a (lane selects the low halves) with the low s bits of the same
// lane of b.
func exchange(a, b uint64, s uint, lane uint64) (uint64, uint64) {
	t := (a>>s ^ b) & lane
	return a ^ t<<s, b ^ t
}

// rounds32to8 runs the stride-32, 16 and 8 rounds over matrix rows
// i, i+8, …, i+56, passed as r0…r7.
func rounds32to8(r0, r1, r2, r3, r4, r5, r6, r7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	r0, r4 = exchange(r0, r4, 32, 0x00000000FFFFFFFF)
	r1, r5 = exchange(r1, r5, 32, 0x00000000FFFFFFFF)
	r2, r6 = exchange(r2, r6, 32, 0x00000000FFFFFFFF)
	r3, r7 = exchange(r3, r7, 32, 0x00000000FFFFFFFF)
	r0, r2 = exchange(r0, r2, 16, 0x0000FFFF0000FFFF)
	r1, r3 = exchange(r1, r3, 16, 0x0000FFFF0000FFFF)
	r4, r6 = exchange(r4, r6, 16, 0x0000FFFF0000FFFF)
	r5, r7 = exchange(r5, r7, 16, 0x0000FFFF0000FFFF)
	r0, r1 = exchange(r0, r1, 8, 0x00FF00FF00FF00FF)
	r2, r3 = exchange(r2, r3, 8, 0x00FF00FF00FF00FF)
	r4, r5 = exchange(r4, r5, 8, 0x00FF00FF00FF00FF)
	r6, r7 = exchange(r6, r7, 8, 0x00FF00FF00FF00FF)
	return r0, r1, r2, r3, r4, r5, r6, r7
}

// rounds4to1 runs the stride-4, 2 and 1 rounds over matrix rows
// 8b … 8b+7, passed as r0…r7.
func rounds4to1(r0, r1, r2, r3, r4, r5, r6, r7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	r0, r4 = exchange(r0, r4, 4, 0x0F0F0F0F0F0F0F0F)
	r1, r5 = exchange(r1, r5, 4, 0x0F0F0F0F0F0F0F0F)
	r2, r6 = exchange(r2, r6, 4, 0x0F0F0F0F0F0F0F0F)
	r3, r7 = exchange(r3, r7, 4, 0x0F0F0F0F0F0F0F0F)
	r0, r2 = exchange(r0, r2, 2, 0x3333333333333333)
	r1, r3 = exchange(r1, r3, 2, 0x3333333333333333)
	r4, r6 = exchange(r4, r6, 2, 0x3333333333333333)
	r5, r7 = exchange(r5, r7, 2, 0x3333333333333333)
	r0, r1 = exchange(r0, r1, 1, 0x5555555555555555)
	r2, r3 = exchange(r2, r3, 1, 0x5555555555555555)
	r4, r5 = exchange(r4, r5, 1, 0x5555555555555555)
	r6, r7 = exchange(r6, r7, 1, 0x5555555555555555)
	return r0, r1, r2, r3, r4, r5, r6, r7
}

// SliceWords returns the word length of one bit slice covering n
// elements: ceil(n/64).
func SliceWords(n int) int { return (n + 63) / 64 }

// The converters below transpose in width-aware groups rather than 64
// elements at a time. A width w is rounded up to the power of two p ≥ w,
// and one 64×64 transpose covers 64/p consecutive words of every slice:
// word k of slice j goes to row k·p+j, so after Transpose64 row c holds
// element 64k+c of the group in bits k·p … k·p+p-1. Narrow elements thus
// amortize one transpose over many elements (4,096 at w = 1, 128 at
// w = 32), and the per-element work left is one shift and mask. Rows for
// slices j ≥ w and for words past the last element stay zero, which is
// what makes ragged tails and non-power-of-two widths come out canonical.
//
// The converters work a block of eight such matrices at a time, so each
// visit to a slice moves 512/p ≥ 8 consecutive words — at least a whole
// cache line. Bit slices are separate page-aligned allocations, so their
// words at one offset share a cache set; visiting 32 of them for two
// words each, as one matrix at w = 32 would, evicts every line before
// its next words are reached.

// blockRows is the row count of one block: eight 64×64 bit matrices.
const blockRows = 8 * 64

// block is the converters' working set. Word k of slice j lives at flat
// row k·p+j, i.e. row (k·p mod 64)+j of matrix k·p/64. Indices into it
// are masked to its bounds, so the loops over it carry no bounds checks.
type block [8][64]uint64

// rowBits returns the element width rounded up to a power of two: the
// rows, and bits of a transposed row, that one slice word and one element
// take. Width 0 behaves like width 1 with no slices, so every element
// reads as zero.
func rowBits(width int) int {
	return 1 << bits.Len(uint(max(width, 1)-1))
}

// rowsOf returns the matrix holding slice word k of a block at row width
// p and the bit offset of word k's elements in its transposed rows.
func (b *block) rowsOf(k, p int) (*[64]uint64, uint) {
	return &b[(k*p>>6)&7], uint(k * p & 63)
}

// load fills b with the slice words of the block starting at element
// base (of n) and transposes it, so word k's elements can be read
// through rowsOf.
func (b *block) load(slices [][]uint64, base, n, p int) {
	*b = block{}
	w, kw := base/64, min(blockRows/p, SliceWords(n-base))
	for j, s := range slices {
		for k, word := range s[w : w+kw] {
			b[(k*p>>6)&7][(k*p+j)&63] = word
		}
	}
	for t := 0; t < (kw*p+63)/64; t++ {
		Transpose64(&b[t&7])
	}
}

// store transposes b, whose rows were packed through rowsOf, and writes the
// slice words of the block starting at element base (of n). It writes no
// word at or past SliceWords(n).
func (b *block) store(slices [][]uint64, base, n, p int) {
	w, kw := base/64, min(blockRows/p, SliceWords(n-base))
	for t := 0; t < (kw*p+63)/64; t++ {
		Transpose64(&b[t&7])
	}
	for j, s := range slices {
		for k := range s[w : w+kw] {
			s[w+k] = b[(k*p>>6)&7][(k*p+j)&63]
		}
	}
}

// SliceInto transposes the horizontal element array elems into the
// bit-sliced layout: after the call, bit i of slices[j] equals bit j of
// elems[i]. The element width is len(slices) (1..64); element bits at or
// above the width are discarded. Every slice must have at least
// SliceWords(len(elems)) words; bits beyond len(elems) in the final word
// are zeroed (ragged tails transpose from zero padding), so slices stay
// canonical for bit-vector adoption, and words past SliceWords(len(elems))
// are left untouched.
func SliceInto(slices [][]uint64, elems []uint64) {
	var b block
	n, mask, p := len(elems), WidthMask(len(slices)), rowBits(len(slices))
	for base := 0; base < n; base += 64 * blockRows / p {
		b = block{}
		for k := 0; k < blockRows/p && base+64*k < n; k++ {
			i := base + 64*k
			m, sh := b.rowsOf(k, p)
			pack(m, elems[i:min(i+64, n)], sh, mask)
		}
		b.store(slices, base, n, p)
	}
}

// SliceBytesInto is SliceInto over len(src)/8 elements stored as
// little-endian 8-byte values — the element payload of a vertical PUT,
// transposed without first decoding it into a []uint64. It returns the
// index of the first element with bits set at or above the width, or -1
// when every element fits; the transpose discards such bits either way.
func SliceBytesInto(slices [][]uint64, src []byte) int {
	var b block
	n, mask, p := len(src)/8, WidthMask(len(slices)), rowBits(len(slices))
	first := -1
	for base := 0; base < n; base += 64 * blockRows / p {
		b = block{}
		for k := 0; k < blockRows/p && base+64*k < n; k++ {
			i := base + 64*k
			run := src[8*i : 8*min(i+64, n)]
			m, sh := b.rowsOf(k, p)
			if packBytes(m, run, sh, mask)&^mask != 0 && first < 0 {
				first = i
				for binary.LittleEndian.Uint64(run[8*(first-i):])&^mask == 0 {
					first++
				}
			}
		}
		b.store(slices, base, n, p)
	}
	return first
}

// UnsliceInto reconstructs the horizontal element array from the
// bit-sliced layout: elems[i] gets bit j from bit i of slices[j], for
// j < len(slices); higher element bits are zero. It is the inverse of
// SliceInto for canonical slices.
func UnsliceInto(elems []uint64, slices [][]uint64) {
	var b block
	n, mask, p := len(elems), WidthMask(len(slices)), rowBits(len(slices))
	for base := 0; base < n; base += 64 * blockRows / p {
		b.load(slices, base, n, p)
		for k := 0; k < blockRows/p && base+64*k < n; k++ {
			i := base + 64*k
			m, sh := b.rowsOf(k, p)
			unpack(elems[i:min(i+64, n)], m, sh, mask)
		}
	}
}

// UnsliceBytesInto is UnsliceInto writing len(dst)/8 elements as
// little-endian 8-byte values — the element payload of a vertical GET,
// transposed straight into the response bytes.
func UnsliceBytesInto(dst []byte, slices [][]uint64) {
	var b block
	n, mask, p := len(dst)/8, WidthMask(len(slices)), rowBits(len(slices))
	for base := 0; base < n; base += 64 * blockRows / p {
		b.load(slices, base, n, p)
		for k := 0; k < blockRows/p && base+64*k < n; k++ {
			i := base + 64*k
			m, sh := b.rowsOf(k, p)
			unpackBytes(dst[8*i:8*min(i+64, n)], m, sh, mask)
		}
	}
}

// pack ORs the run of up to 64 elements, masked, into rows 0.. of m at
// bit offset sh.
func pack(m *[64]uint64, run []uint64, sh uint, mask uint64) {
	for c, e := range run {
		m[c&63] |= e & mask << (sh & 63)
	}
}

// packBytes is pack over little-endian 8-byte elements. It returns the
// OR of the unmasked elements, so the caller can tell whether any had
// bits outside mask.
func packBytes(m *[64]uint64, run []byte, sh uint, mask uint64) (all uint64) {
	for c := 0; c < len(run)/8; c++ {
		e := binary.LittleEndian.Uint64(run[8*c:])
		all |= e
		m[c&63] |= e & mask << (sh & 63)
	}
	return all
}

// unpack writes run[c] = the element at bit offset sh of row c of m.
func unpack(run []uint64, m *[64]uint64, sh uint, mask uint64) {
	for c := range run {
		run[c] = m[c&63] >> (sh & 63) & mask
	}
}

// unpackBytes is unpack writing little-endian 8-byte elements.
func unpackBytes(run []byte, m *[64]uint64, sh uint, mask uint64) {
	for c := 0; c < len(run)/8; c++ {
		binary.LittleEndian.PutUint64(run[8*c:], m[c&63]>>(sh&63)&mask)
	}
}

// Slice is the allocating form of SliceInto: it returns width freshly
// allocated bit slices of SliceWords(len(elems)) words each.
func Slice(elems []uint64, width int) [][]uint64 {
	words := SliceWords(len(elems))
	slices := make([][]uint64, width)
	backing := make([]uint64, width*words)
	for j := range slices {
		slices[j] = backing[j*words : (j+1)*words]
	}
	SliceInto(slices, elems)
	return slices
}

// Unslice is the allocating form of UnsliceInto for n elements.
func Unslice(slices [][]uint64, n int) []uint64 {
	elems := make([]uint64, n)
	UnsliceInto(elems, slices)
	return elems
}
