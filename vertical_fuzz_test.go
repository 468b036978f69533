package elp2im

import (
	"testing"

	"repro/internal/vertical"
)

// splitMix is the fuzz operand PRNG: deterministic per seed, cheap,
// and independent of math/rand's stream evolution.
func splitMix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FuzzVerticalArith is the vertical-arithmetic differential fuzz target:
// random (op, width, length, operands) executed on all three engine
// designs, each result compared bit-for-bit against the host uint64
// reference.
func FuzzVerticalArith(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint16(130), uint64(1))  // add
	f.Add(uint8(1), uint8(13), uint16(65), uint64(2))  // sub, ragged
	f.Add(uint8(2), uint8(5), uint16(200), uint64(3))  // lt
	f.Add(uint8(3), uint8(32), uint16(64), uint64(4))  // le
	f.Add(uint8(4), uint8(9), uint16(129), uint64(5))  // eq
	f.Add(uint8(5), uint8(6), uint16(100), uint64(6))  // lts
	f.Add(uint8(6), uint8(4), uint16(190), uint64(7))  // les
	f.Add(uint8(7), uint8(16), uint16(128), uint64(8)) // popcount
	f.Add(uint8(8), uint8(3), uint16(77), uint64(9))   // select
	f.Add(uint8(0), uint8(64), uint16(33), uint64(10)) // full-width carry chain
	f.Add(uint8(1), uint8(1), uint16(90), uint64(11))  // sub w2: no middle bit
	f.Add(uint8(4), uint8(0), uint16(70), uint64(12))  // eq w1: one XNOR
	f.Add(uint8(4), uint8(2), uint16(70), uint64(13))  // eq w3: one NOR step
	f.Add(uint8(5), uint8(0), uint16(80), uint64(14))  // lts w1: sign bit is bit 0
	f.Add(uint8(6), uint8(0), uint16(80), uint64(15))  // les w1
	f.Add(uint8(7), uint8(0), uint16(60), uint64(16))  // popcount w1: identity
	f.Add(uint8(7), uint8(1), uint16(60), uint64(17))  // popcount w2: half adder
	f.Add(uint8(7), uint8(2), uint16(60), uint64(18))  // popcount w3: full adder
	f.Add(uint8(7), uint8(6), uint16(99), uint64(19))  // popcount w7
	f.Add(uint8(7), uint8(15), uint16(99), uint64(20)) // popcount w16
	f.Add(uint8(7), uint8(32), uint16(99), uint64(21)) // popcount w33
	f.Fuzz(func(t *testing.T, opc, wc uint8, nc uint16, seed uint64) {
		op := ArithOp(int(opc) % vertical.NumOps)
		w := int(wc)%64 + 1
		n := int(nc)%220 + 1
		s := seed
		x := make([]uint64, n)
		y := make([]uint64, n)
		for i := range x {
			x[i] = splitMix(&s)
			y[i] = splitMix(&s)
		}
		m := NewBitVector(n)
		for i := 0; i < n; i++ {
			m.SetBit(i, splitMix(&s)&1 != 0)
		}
		want := vertical.Reference(op.internalV(), w, x, y, m.Words())

		xv, err := VerticalFromElements(x, w)
		if err != nil {
			t.Fatal(err)
		}
		var yv *Vertical
		if op.Binary() {
			if yv, err = VerticalFromElements(y, w); err != nil {
				t.Fatal(err)
			}
		}
		var mask *BitVector
		if op.Masked() {
			mask = m
		}
		ca, err := CompileArith(op, w)
		if err != nil {
			t.Fatal(err)
		}

		for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
			acc := newAcc(t, smallModule, func(c *Config) { c.Design = d })
			out, _, err := acc.ArithProg(ca, xv, yv, mask)
			if err != nil {
				t.Fatalf("%s %s/%d: %v", d, op, w, err)
			}
			got := out.Elements()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %s/%d element %d: %#x, want %#x", d, op, w, i, got[i], want[i])
				}
			}
		}
	})
}
