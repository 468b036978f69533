package elp2im

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/dram"
)

func newAcc(t *testing.T, mutators ...func(*Config)) *Accelerator {
	t.Helper()
	acc, err := New(mutators...)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// newCmdAcc is newAcc on the command-accurate tier: the engine's own
// executor is installed with SetExecutor, the one tier switch.
func newCmdAcc(t *testing.T, mutators ...func(*Config)) *Accelerator {
	t.Helper()
	acc := newAcc(t, mutators...)
	acc.SetExecutor(acc.BaseExecutor())
	return acc
}

func smallModule(c *Config) {
	c.Module.Banks = 2
	c.Module.SubarraysPerBank = 2
	c.Module.RowsPerSubarray = 16
	c.Module.Columns = 128
}

// golden computes the expected result on the host.
func golden(op Op, dst, x, y *BitVector) {
	var yv *bitvec.Vector
	if y != nil {
		yv = y.v
	}
	op.internal().Golden(dst.v, x.v, yv)
}

func TestOpStringsAndUnary(t *testing.T) {
	names := map[Op]string{
		OpNot: "NOT", OpAnd: "AND", OpOr: "OR", OpNand: "NAND",
		OpNor: "NOR", OpXor: "XOR", OpXnor: "XNOR", OpCopy: "COPY",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("op string = %q, want %q", op.String(), want)
		}
	}
	if got := Op(99).String(); got != "Op(99)" {
		t.Errorf("unknown op string = %q, want %q", got, "Op(99)")
	}
	if !OpNot.Unary() || !OpCopy.Unary() || OpAnd.Unary() {
		t.Error("Unary wrong")
	}
}

func TestDesignStrings(t *testing.T) {
	if DesignELP2IM.String() != "ELP2IM" || DesignAmbit.String() != "Ambit" ||
		DesignDrisaNOR.String() != "Drisa_nor" {
		t.Error("design names wrong")
	}
	if Design(9).String() == "" {
		t.Error("unknown design must render")
	}
}

func TestBitVectorBasics(t *testing.T) {
	b := NewBitVector(100)
	if b.Len() != 100 || b.Popcount() != 0 {
		t.Fatal("new vector wrong")
	}
	b.SetBit(7, true)
	if !b.Bit(7) || b.Popcount() != 1 {
		t.Fatal("SetBit wrong")
	}
	b.Fill(true)
	if b.Popcount() != 100 {
		t.Fatal("Fill wrong")
	}
	rng := rand.New(rand.NewSource(1))
	r := RandomBitVector(rng, 100)
	if r.Equal(b) {
		t.Fatal("random vector equals all-ones (astronomically unlikely)")
	}
	if len(r.Words()) != 2 {
		t.Fatal("Words wrong")
	}
}

func TestAllDesignsAllOpsMatchGolden(t *testing.T) {
	for _, design := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		acc := newAcc(t, smallModule, func(c *Config) { c.Design = design })
		rng := rand.New(rand.NewSource(int64(design)))
		// A vector spanning several stripes and a ragged tail.
		n := 128*5 + 37
		for _, op := range []Op{OpNot, OpAnd, OpOr, OpNand, OpNor, OpXor, OpXnor, OpCopy} {
			x := RandomBitVector(rng, n)
			y := RandomBitVector(rng, n)
			dst := NewBitVector(n)
			var yArg *BitVector
			if !op.Unary() {
				yArg = y
			}
			st, err := acc.Op(op, dst, x, yArg)
			if err != nil {
				t.Fatalf("%v/%v: %v", design, op, err)
			}
			want := NewBitVector(n)
			golden(op, want, x, y)
			if !dst.Equal(want) {
				t.Errorf("%v/%v: result mismatch", design, op)
			}
			if st.LatencyNS <= 0 || st.EnergyNJ <= 0 || st.RowOps != 6 {
				t.Errorf("%v/%v: implausible stats %+v", design, op, st)
			}
		}
	}
}

func TestOpErrors(t *testing.T) {
	acc := newAcc(t, smallModule)
	x := NewBitVector(64)
	if _, err := acc.Op(OpAnd, NewBitVector(64), x, nil); err == nil {
		t.Error("binary op without second operand accepted")
	}
	if _, err := acc.Op(OpAnd, NewBitVector(64), x, NewBitVector(65)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := acc.Op(OpAnd, NewBitVector(63), x, NewBitVector(64)); err == nil {
		t.Error("destination mismatch accepted")
	}
	if _, err := acc.Op(OpNot, nil, x, nil); err == nil {
		t.Error("nil destination accepted")
	}
	if _, err := acc.Op(OpNot, NewBitVector(64), nil, nil); err == nil {
		t.Error("nil source accepted")
	}
	for _, op := range []Op{-1, OpCopy + 1, 99} {
		if _, err := acc.Op(op, NewBitVector(64), x, x); err == nil {
			t.Errorf("unknown op %d accepted", int(op))
		}
	}
}

func TestReduce(t *testing.T) {
	acc := newAcc(t, smallModule)
	rng := rand.New(rand.NewSource(3))
	n := 300
	vs := make([]*BitVector, 4)
	for i := range vs {
		vs[i] = RandomBitVector(rng, n)
	}
	dst := NewBitVector(n)
	st, err := acc.Reduce(OpAnd, dst, vs...)
	if err != nil {
		t.Fatal(err)
	}
	want := NewBitVector(n)
	want.v.CopyFrom(vs[0].v)
	for _, v := range vs[1:] {
		want.v.And(want.v, v.v)
	}
	if !dst.Equal(want) {
		t.Fatal("reduction mismatch")
	}
	if st.RowOps == 0 {
		t.Fatal("reduction reported zero row ops")
	}
	if _, err := acc.Reduce(OpXor, dst, vs...); err == nil {
		t.Error("XOR reduction accepted")
	}
	if _, err := acc.Reduce(OpAnd, dst, vs[0]); err == nil {
		t.Error("single-vector reduction accepted")
	}
	if _, err := acc.Reduce(OpAnd, nil, vs...); err == nil {
		t.Error("nil destination accepted")
	}
	if _, err := acc.Reduce(Op(99), dst, vs...); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestPowerConstraintIncreasesLatency(t *testing.T) {
	free := newAcc(t)
	constrained := newAcc(t, func(c *Config) { c.PowerConstrained = true })
	rng := rand.New(rand.NewSource(4))
	n := 8192 * 16
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	stFree, err := free.Op(OpAnd, NewBitVector(n), x, y)
	if err != nil {
		t.Fatal(err)
	}
	stCon, err := constrained.Op(OpAnd, NewBitVector(n), x, y)
	if err != nil {
		t.Fatal(err)
	}
	if stCon.LatencyNS <= stFree.LatencyNS {
		t.Errorf("constrained latency %v must exceed unconstrained %v",
			stCon.LatencyNS, stFree.LatencyNS)
	}
}

func TestELP2IMFasterThanBaselinesOnAND(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 8192 * 8
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	lat := map[Design]float64{}
	for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		acc := newAcc(t, func(c *Config) { c.Design = d })
		st, err := acc.Op(OpAnd, NewBitVector(n), x, y)
		if err != nil {
			t.Fatal(err)
		}
		lat[d] = st.LatencyNS
	}
	if lat[DesignELP2IM] >= lat[DesignAmbit] {
		t.Errorf("ELP2IM AND (%v) must beat Ambit (%v)", lat[DesignELP2IM], lat[DesignAmbit])
	}
	if lat[DesignELP2IM] >= lat[DesignDrisaNOR] {
		t.Errorf("ELP2IM AND (%v) must beat Drisa (%v)", lat[DesignELP2IM], lat[DesignDrisaNOR])
	}
}

func TestTotalsAccumulate(t *testing.T) {
	acc := newAcc(t, smallModule)
	rng := rand.New(rand.NewSource(6))
	x := RandomBitVector(rng, 256)
	y := RandomBitVector(rng, 256)
	if _, err := acc.Op(OpAnd, NewBitVector(256), x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Op(OpOr, NewBitVector(256), x, y); err != nil {
		t.Fatal(err)
	}
	tot := acc.Totals()
	if tot.RowOps != 4 || tot.LatencyNS <= 0 {
		t.Fatalf("totals wrong: %+v", tot)
	}
	acc.ResetTotals()
	if acc.Totals().RowOps != 0 {
		t.Fatal("ResetTotals failed")
	}
}

func TestAcceleratorMetadata(t *testing.T) {
	acc := newAcc(t)
	if acc.Design() != "ELP2IM" {
		t.Errorf("design = %q", acc.Design())
	}
	if acc.ReservedRows() != 1 {
		t.Errorf("reserved rows = %d", acc.ReservedRows())
	}
	if acc.AreaOverheadPercent() <= 0 {
		t.Error("area overhead must be positive")
	}
	amb := newAcc(t, func(c *Config) { c.Design = DesignAmbit })
	if amb.ReservedRows() != 8 {
		t.Errorf("ambit reserved rows = %d", amb.ReservedRows())
	}
	if CPUBaseline().Validate() != nil {
		t.Error("CPU baseline invalid")
	}
}

func TestNewWithConfigErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.Module.Banks = 0
	if _, err := NewWithConfig(bad); err == nil {
		t.Error("invalid module accepted")
	}
	bad = DefaultConfig()
	bad.Timing.Precharge = 0
	if _, err := NewWithConfig(bad); err == nil {
		t.Error("invalid timing accepted")
	}
	bad = DefaultConfig()
	bad.Design = Design(42)
	if _, err := NewWithConfig(bad); err == nil {
		t.Error("unknown design accepted")
	}
	bad = DefaultConfig()
	bad.ReservedRows = 5 // invalid for ELP2IM
	if _, err := NewWithConfig(bad); err == nil {
		t.Error("invalid reserved rows accepted")
	}
}

func TestTwoReservedRowConfig(t *testing.T) {
	acc := newAcc(t, smallModule, func(c *Config) { c.ReservedRows = 2 })
	rng := rand.New(rand.NewSource(7))
	x := RandomBitVector(rng, 200)
	y := RandomBitVector(rng, 200)
	dst := NewBitVector(200)
	if _, err := acc.Op(OpXor, dst, x, y); err != nil {
		t.Fatal(err)
	}
	want := NewBitVector(200)
	golden(OpXor, want, x, y)
	if !dst.Equal(want) {
		t.Fatal("2-reserved-row XOR mismatch")
	}
}

func TestHighThroughputModeConfig(t *testing.T) {
	acc := newAcc(t, smallModule, func(c *Config) { c.HighThroughputMode = true })
	rng := rand.New(rand.NewSource(8))
	x := RandomBitVector(rng, 200)
	y := RandomBitVector(rng, 200)
	dst := NewBitVector(200)
	if _, err := acc.Op(OpOr, dst, x, y); err != nil {
		t.Fatal(err)
	}
	want := NewBitVector(200)
	golden(OpOr, want, x, y)
	if !dst.Equal(want) {
		t.Fatal("HT-mode OR mismatch")
	}
}

// Property: the accelerator matches the golden model on random lengths,
// operations, and designs.
func TestAcceleratorGoldenProperty(t *testing.T) {
	accs := map[Design]*Accelerator{
		DesignELP2IM:   newAcc(t, smallModule),
		DesignAmbit:    newAcc(t, smallModule, func(c *Config) { c.Design = DesignAmbit }),
		DesignDrisaNOR: newAcc(t, smallModule, func(c *Config) { c.Design = DesignDrisaNOR }),
	}
	ops := []Op{OpNot, OpAnd, OpOr, OpNand, OpNor, OpXor, OpXnor}
	f := func(seed int64, opRaw, dRaw, lenRaw uint8) bool {
		op := ops[int(opRaw)%len(ops)]
		design := Design(int(dRaw) % 3)
		n := int(lenRaw)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		x := RandomBitVector(rng, n)
		y := RandomBitVector(rng, n)
		dst := NewBitVector(n)
		var yArg *BitVector
		if !op.Unary() {
			yArg = y
		}
		if _, err := accs[design].Op(op, dst, x, yArg); err != nil {
			return false
		}
		want := NewBitVector(n)
		golden(op, want, x, y)
		return dst.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedColumnsFallback(t *testing.T) {
	// A row width that is not a multiple of 64 exercises the sequential
	// bit-level stripe path.
	acc := newAcc(t, func(c *Config) {
		c.Module.Banks = 2
		c.Module.SubarraysPerBank = 1
		c.Module.RowsPerSubarray = 16
		c.Module.Columns = 100
	})
	rng := rand.New(rand.NewSource(9))
	n := 100*3 + 17
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	dst := NewBitVector(n)
	if _, err := acc.Op(OpXor, dst, x, y); err != nil {
		t.Fatal(err)
	}
	want := NewBitVector(n)
	golden(OpXor, want, x, y)
	if !dst.Equal(want) {
		t.Fatal("unaligned-columns XOR mismatch")
	}
}

func TestRanksRelaxTheConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 8192 * 16
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	lat := func(ranks int) float64 {
		acc := newAcc(t, func(c *Config) {
			c.PowerConstrained = true
			c.Ranks = ranks
		})
		st, err := acc.Op(OpAnd, NewBitVector(n), x, y)
		if err != nil {
			t.Fatal(err)
		}
		return st.LatencyNS
	}
	one, two := lat(1), lat(2)
	if two >= one {
		t.Fatalf("two ranks (%v ns) must beat one rank (%v ns) under the constraint", two, one)
	}
}

// TestStripeCoordCrossCheck pins the invariant that the serialization
// group index and the physical subarray placement are one mapping: over
// non-uniform bank/subarray geometries, two stripes share a group if and
// only if they share a home subarray, and every group indexes within the
// accelerator's lock table. Silent drift between the two derivations
// would let two stripes lock different groups while mutating the same
// subarray's row state.
func TestStripeCoordCrossCheck(t *testing.T) {
	geometries := []struct {
		banks, subs, cols int
	}{
		{1, 1, 64},
		{2, 2, 128},
		{3, 5, 64},
		{5, 3, 128},
		{8, 2, 192},
		{7, 1, 64},
		{3, 5, 100}, // non-word-aligned: groups collapse, placement must not
	}
	for _, g := range geometries {
		acc := newAcc(t, func(c *Config) {
			c.Module.Banks = g.banks
			c.Module.SubarraysPerBank = g.subs
			c.Module.RowsPerSubarray = 16
			c.Module.Columns = g.cols
		})
		aligned := g.cols%64 == 0
		total := g.banks * g.subs
		subOf := make(map[int]*dram.Subarray)   // group -> subarray
		groupOf := make(map[*dram.Subarray]int) // subarray -> group
		for s := 0; s < 3*total+1; s++ {
			sub := acc.subarrayFor(s)
			// Independent re-derivation of the documented placement.
			wantBank := s % g.banks
			wantSub := (s / g.banks) % g.subs
			if want := acc.module.Bank(wantBank).Subarray(wantSub); sub != want {
				t.Fatalf("%dx%dx%d: stripe %d placed in wrong subarray", g.banks, g.subs, g.cols, s)
			}
			grp := acc.stripeGroup(s)
			if !aligned {
				if grp != 0 {
					t.Fatalf("%dx%dx%d: unaligned stripe %d group = %d, want 0", g.banks, g.subs, g.cols, s, grp)
				}
				continue
			}
			if grp < 0 || grp >= len(acc.execLocks) {
				t.Fatalf("%dx%dx%d: stripe %d group %d outside lock table [0,%d)",
					g.banks, g.subs, g.cols, s, grp, len(acc.execLocks))
			}
			if prev, ok := subOf[grp]; ok && prev != sub {
				t.Fatalf("%dx%dx%d: group %d spans two subarrays", g.banks, g.subs, g.cols, grp)
			}
			subOf[grp] = sub
			if prev, ok := groupOf[sub]; ok && prev != grp {
				t.Fatalf("%dx%dx%d: subarray of stripe %d maps to groups %d and %d",
					g.banks, g.subs, g.cols, s, prev, grp)
			}
			groupOf[sub] = grp
		}
		if aligned && len(subOf) != total {
			t.Fatalf("%dx%dx%d: %d groups discovered, want %d", g.banks, g.subs, g.cols, len(subOf), total)
		}
	}
}
