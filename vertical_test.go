package elp2im

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vertical"
)

// TestArithOpMirrorsVertical pins the facade enum to the µProgram
// builder's: same ordering, same mnemonics.
func TestArithOpMirrorsVertical(t *testing.T) {
	names := []string{"add", "sub", "lt", "le", "eq", "lts", "les", "popcount", "select"}
	if len(names) != vertical.NumOps {
		t.Fatalf("op count drifted: %d vs %d", len(names), vertical.NumOps)
	}
	for i, want := range names {
		op := ArithOp(i)
		if op.String() != want {
			t.Fatalf("ArithOp(%d).String() = %q, want %q", i, op.String(), want)
		}
		parsed, err := ParseArithOp(want)
		if err != nil || parsed != op {
			t.Fatalf("ParseArithOp(%q) = %v, %v", want, parsed, err)
		}
	}
	if _, err := ParseArithOp("mul"); !errors.Is(err, ErrBadArith) {
		t.Fatalf("ParseArithOp(mul) err = %v, want ErrBadArith", err)
	}
}

// TestVerticalRoundTrip: the facade transpose wrappers recover the
// width-masked elements.
func TestVerticalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 63, 64, 65, 301} {
		for _, w := range []int{1, 7, 32, 64} {
			elems := make([]uint64, n)
			for i := range elems {
				elems[i] = rng.Uint64()
			}
			v, err := VerticalFromElements(elems, w)
			if err != nil {
				t.Fatal(err)
			}
			back := v.Elements()
			mask := vertical.WidthMask(w)
			for i := range back {
				if back[i] != elems[i]&mask {
					t.Fatalf("n=%d w=%d element %d: %#x, want %#x", n, w, i, back[i], elems[i]&mask)
				}
			}
			if v.Element(n-1) != elems[n-1]&mask {
				t.Fatalf("Element(%d) = %#x, want %#x", n-1, v.Element(n-1), elems[n-1]&mask)
			}
		}
	}
}

// arithCase is one op × width point of the differential sweep.
type arithCase struct {
	op ArithOp
	w  int
}

// arithCases samples every operation across mixed widths, plus the
// edges of the µProgram builders: sub's two-bit chain (no middle bit),
// signed compares whose sign bit is bit 0, eq as a single NOR step, and
// popcount as an identity pass (w1), a lone half adder (w2), a lone full
// adder (w3), and carries rippling across three to six columns.
func arithCases() []arithCase {
	cases := []arithCase{
		{ArithAdd, 4}, {ArithAdd, 8},
		{ArithSub, 2}, {ArithSub, 7},
		{ArithLt, 5}, {ArithLe, 8},
		{ArithEq, 1}, {ArithEq, 3}, {ArithEq, 9},
		{ArithLts, 1}, {ArithLts, 6}, {ArithLes, 1}, {ArithLes, 4},
		{ArithPopcount, 1}, {ArithPopcount, 2}, {ArithPopcount, 3},
		{ArithPopcount, 7}, {ArithPopcount, 8}, {ArithPopcount, 16},
		{ArithPopcount, 33},
		{ArithSelect, 3},
	}
	// Every op at a bit, an odd width and both word-size widths, so the
	// pooled slices a call leases include up to 64 results.
	for op := ArithOp(0); op < ArithOp(vertical.NumOps); op++ {
		for _, w := range []int{1, 7, 32, 64} {
			cases = append(cases, arithCase{op, w})
		}
	}
	return cases
}

// randomOperands builds random x/y element arrays and a mask vector.
func randomOperands(rng *rand.Rand, n int) (x, y []uint64, m *BitVector) {
	x = make([]uint64, n)
	y = make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64()
		y[i] = rng.Uint64()
	}
	if n > 2 {
		y[0] = x[0] // force the equal path through the compare chains
	}
	return x, y, RandomBitVector(rng, n)
}

// checkArith verifies one result against the host reference.
func checkArith(t *testing.T, tag string, got *Vertical, op ArithOp, w int, x, y []uint64, m *BitVector) {
	t.Helper()
	want := vertical.Reference(op.internalV(), w, x, y, m.Words())
	if got.Width() != op.OutWidth(w) {
		t.Fatalf("%s: result width %d, want %d", tag, got.Width(), op.OutWidth(w))
	}
	gotE := got.Elements()
	for i := range want {
		if gotE[i] != want[i] {
			t.Fatalf("%s: element %d = %#x, want %#x (x=%#x y=%#x)",
				tag, i, gotE[i], want[i], x[i]&vertical.WidthMask(w), y[i]&vertical.WidthMask(w))
		}
	}
}

// arithInput is one random operand set for an arith case: the host
// element arrays and mask the reference reads, and the operands the op
// takes (yv and mask nil where it takes none).
type arithInput struct {
	x, y   []uint64
	m      *BitVector
	xv, yv *Vertical
	mask   *BitVector
}

// newArithInput draws n random elements per operand for tc.
func newArithInput(t *testing.T, rng *rand.Rand, tc arithCase, n int) arithInput {
	t.Helper()
	in := arithInput{}
	in.x, in.y, in.m = randomOperands(rng, n)
	var err error
	if in.xv, err = VerticalFromElements(in.x, tc.w); err != nil {
		t.Fatal(err)
	}
	if tc.op.Binary() {
		if in.yv, err = VerticalFromElements(in.y, tc.w); err != nil {
			t.Fatal(err)
		}
	}
	if tc.op.Masked() {
		in.mask = in.m
	}
	return in
}

// TestArithMatchesReference is the facade's differential harness: every
// op, all three designs, both module geometries, both dispatch tiers
// (fused, command-accurate) — bit-identical elements and struct-equal
// Stats throughout. Before each call the accelerator's slice pool is
// filled with stale slices of the case's length, so the results and
// temps the call leases start out as garbage, and every result slice
// must still end in zero tail bits.
func TestArithMatchesReference(t *testing.T) {
	designs := []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR}
	rng := rand.New(rand.NewSource(17))
	for _, mod := range diffModules() {
		for _, d := range designs {
			design := func(c *Config) { c.Design = d }
			acc := newAcc(t, mod, design)
			noFast := newCmdAcc(t, mod, design)
			for _, tc := range arithCases() {
				n := 150 + rng.Intn(150)
				in := newArithInput(t, rng, tc, n)
				xv, yv, mask := in.xv, in.yv, in.mask
				ca, err := CompileArith(tc.op, tc.w)
				if err != nil {
					t.Fatal(err)
				}
				// stale recycles a width-64 vertical of random canonical
				// contents into a's slice pool.
				stale := func(a *Accelerator) {
					junk := make([]uint64, n)
					for i := range junk {
						junk[i] = rng.Uint64()
					}
					v, err := VerticalFromElements(junk, 64)
					if err != nil {
						t.Fatal(err)
					}
					a.Recycle(v)
				}

				type result struct {
					tag string
					out *Vertical
					st  Stats
				}
				var results []result
				run := func(tag string, out *Vertical, st Stats, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s %s/%d: %v", tag, tc.op, tc.w, err)
					}
					results = append(results, result{tag, out, st})
				}

				stale(acc)
				out, st, err := acc.ArithProg(ca, xv, yv, mask)
				run("fused", out, st, err)
				stale(noFast)
				out, st, err = noFast.ArithProg(ca, xv, yv, mask)
				run("cmd", out, st, err)

				for _, r := range results {
					tag := fmt.Sprintf("%s/%s/%s/%d", r.tag, d, tc.op, tc.w)
					checkArith(t, tag, r.out, tc.op, tc.w, in.x, in.y, in.m)
					for j, sl := range r.out.slices {
						words := sl.Words()
						if tail := n % 64; tail != 0 && words[len(words)-1]>>tail != 0 {
							t.Fatalf("%s: slice %d has bits set beyond element %d", tag, j, n-1)
						}
					}
					if r.st != results[0].st {
						t.Fatalf("%s: stats %+v differ from %s's %+v", tag, r.st, results[0].tag, results[0].st)
					}
					if r.st.Commands == 0 || r.st.LatencyNS == 0 {
						t.Fatalf("%s: implausible zero stats %+v", tag, r.st)
					}
				}
			}
		}
	}
}

// multiBlockElems spans several fusedChunkWords blocks on smallModule's
// 2-word rows, ends in a ragged block and a ragged final word, and puts
// more than fastSerialThresholdWords words in every slice, so the walk
// forks workers and splits blocks between them.
const multiBlockElems = 9*65536 + 77

// TestArithMatchesReferenceMultiBlock is TestArithMatchesReference at a
// size where the block-major walk crosses block boundaries, ends in a
// ragged block, and runs on more than one worker: the fused tier, every
// result checked against the host reference. Block boundaries and worker
// splits do not depend on the design, so the default design suffices;
// the command-accurate tier, its Stats, and the other designs are
// covered by the small cases.
func TestArithMatchesReferenceMultiBlock(t *testing.T) {
	if words := (multiBlockElems + 63) / 64; words <= fastSerialThresholdWords || words%fusedChunkWords == 0 {
		t.Fatal("multiBlockElems no longer crosses the serial threshold into a ragged block")
	}
	acc := newAcc(t, smallModule)
	rng := rand.New(rand.NewSource(23))
	// The carry chain, a signed compare, the longest program, and the
	// masked select.
	for _, tc := range []arithCase{{ArithAdd, 8}, {ArithLts, 6}, {ArithPopcount, 8}, {ArithSelect, 3}} {
		in := newArithInput(t, rng, tc, multiBlockElems)
		ca, err := CompileArith(tc.op, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := acc.ArithProg(ca, in.xv, in.yv, in.mask)
		if err != nil {
			t.Fatalf("fused/%s/%d: %v", tc.op, tc.w, err)
		}
		checkArith(t, "fused/"+tc.op.String(), out, tc.op, tc.w, in.x, in.y, in.m)
	}
}

// TestArithValidation: shape and operand mistakes come back tagged
// ErrBadArith without executing.
func TestArithValidation(t *testing.T) {
	acc := newAcc(t, smallModule)
	x8, _ := VerticalFromElements([]uint64{1, 2, 3}, 8)
	x4, _ := VerticalFromElements([]uint64{1, 2, 3}, 4)
	yShort, _ := VerticalFromElements([]uint64{1, 2}, 8)
	mask := NewBitVector(3)
	cases := []struct {
		name string
		call func() error
	}{
		{"nil x", func() error { _, _, err := acc.Arith(ArithAdd, nil, x8, nil); return err }},
		{"width mismatch", func() error { _, _, err := acc.Arith(ArithAdd, x8, x4, nil); return err }},
		{"missing y", func() error { _, _, err := acc.Arith(ArithAdd, x8, nil, nil); return err }},
		{"length mismatch", func() error { _, _, err := acc.Arith(ArithAdd, x8, yShort, nil); return err }},
		{"stray y", func() error { _, _, err := acc.Arith(ArithPopcount, x8, x8, nil); return err }},
		{"missing mask", func() error { _, _, err := acc.Arith(ArithSelect, x8, x8, nil); return err }},
		{"stray mask", func() error { _, _, err := acc.Arith(ArithAdd, x8, x8, mask); return err }},
		{"short mask", func() error { _, _, err := acc.Arith(ArithSelect, x8, x8, NewBitVector(2)); return err }},
		{"bad width", func() error { _, err := CompileArith(ArithAdd, 65); return err }},
		{"bad op", func() error { _, err := CompileArith(ArithOp(99), 8); return err }},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, ErrBadArith) {
			t.Errorf("%s: err = %v, want ErrBadArith", tc.name, err)
		}
	}
	if _, err := NewVertical(0, 8); !errors.Is(err, ErrBadArith) {
		t.Errorf("NewVertical(0, 8): err = %v, want ErrBadArith", err)
	}
	if _, err := NewVertical(3, 0); !errors.Is(err, ErrBadArith) {
		t.Errorf("NewVertical(3, 0): err = %v, want ErrBadArith", err)
	}
}

// TestArithAccountsTotals: the synchronous path folds the modeled cost
// into session totals exactly once.
func TestArithAccountsTotals(t *testing.T) {
	acc := newAcc(t, smallModule)
	x, _ := VerticalFromElements([]uint64{5, 9, 250}, 8)
	y, _ := VerticalFromElements([]uint64{1, 2, 7}, 8)
	_, st, err := acc.Arith(ArithAdd, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.Totals(); got != st {
		t.Fatalf("totals %+v, want the op's stats %+v", got, st)
	}
}
