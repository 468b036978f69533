package drisa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
)

func testSubarray() *dram.Subarray {
	return dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 16, Columns: 256, DualContactRows: 0,
	})
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timing.Precharge = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted invalid timing")
	}
	cfg = DefaultConfig()
	cfg.Power.DrisaBackgroundFactor = 0.3
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted invalid power")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Timing.Clock = 0
	MustNew(cfg)
}

func TestMetadata(t *testing.T) {
	e := MustNew(DefaultConfig())
	if e.Name() != "Drisa_nor" {
		t.Errorf("name = %q", e.Name())
	}
	if e.ReservedRows() != 0 {
		t.Error("DRISA needs no reserved rows")
	}
	if e.AreaOverheadPercent() != 24 {
		t.Error("DRISA area overhead must be 24%")
	}
	if e.BackgroundFactor() <= 1 {
		t.Error("DRISA background factor must exceed 1")
	}
}

func TestAllOpsMatchGolden(t *testing.T) {
	e := MustNew(DefaultConfig())
	for _, op := range engine.BasicOps() {
		sub := testSubarray()
		rng := rand.New(rand.NewSource(int64(op)))
		a := bitvec.Random(rng, sub.Columns())
		b := bitvec.Random(rng, sub.Columns())
		sub.LoadRow(0, a)
		sub.LoadRow(1, b)
		if err := e.Execute(sub, op, 2, 0, 1); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		want := bitvec.New(sub.Columns())
		op.Golden(want, a, b)
		if !sub.RowData(2).Equal(want) {
			t.Errorf("%v: result mismatch", op)
		}
		if !sub.RowData(0).Equal(a) || !sub.RowData(1).Equal(b) {
			t.Errorf("%v: operand clobbered", op)
		}
	}
}

func TestCyclesAndLatency(t *testing.T) {
	e := MustNew(DefaultConfig())
	// One NOR cycle is 60 ns under the DDR3-1600 phase model.
	cyc := e.OpStats(engine.OpCOPY).LatencyNS
	if cyc < 55 || cyc > 65 {
		t.Fatalf("NOR cycle = %v ns, want ~60", cyc)
	}
	for _, tc := range []struct {
		op     engine.Op
		cycles int
	}{
		{engine.OpNOT, 2}, {engine.OpNOR, 2}, {engine.OpOR, 3},
		{engine.OpAND, 4}, {engine.OpNAND, 5}, {engine.OpXOR, 6}, {engine.OpXNOR, 7},
	} {
		if got := e.Cycles(tc.op); got != tc.cycles {
			t.Errorf("%v cycles = %d, want %d", tc.op, got, tc.cycles)
		}
		if got := e.OpStats(tc.op).LatencyNS; got != cyc*float64(tc.cycles) {
			t.Errorf("%v latency = %v, want %v", tc.op, got, cyc*float64(tc.cycles))
		}
	}
}

func TestDrisaFastestOnNOR(t *testing.T) {
	// §6.2: DRISA beats the others only on its native gate op.
	e := MustNew(DefaultConfig())
	nor := e.OpStats(engine.OpNOR).LatencyNS
	and := e.OpStats(engine.OpAND).LatencyNS
	if nor >= and {
		t.Error("NOR must be DRISA's fastest binary op")
	}
}

func TestChainStats(t *testing.T) {
	e := MustNew(DefaultConfig())
	andChain, err := e.ChainStats(engine.OpAND)
	if err != nil {
		t.Fatal(err)
	}
	orChain, err := e.ChainStats(engine.OpOR)
	if err != nil {
		t.Fatal(err)
	}
	if andChain.Commands != 3 || orChain.Commands != 2 {
		t.Errorf("chain commands = %d/%d, want 3/2", andChain.Commands, orChain.Commands)
	}
	if _, err := e.ChainStats(engine.OpXOR); err == nil {
		t.Error("chained XOR must be rejected")
	}
	// Chaining must beat the full three-operand op.
	if andChain.LatencyNS >= e.OpStats(engine.OpAND).LatencyNS {
		t.Error("chained AND must be cheaper than the full op")
	}
}

func TestExecuteRejectsTinySubarray(t *testing.T) {
	e := MustNew(DefaultConfig())
	tiny := dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 4, Columns: 64,
	})
	if err := e.Execute(tiny, engine.OpAND, 2, 0, 1); err == nil {
		t.Fatal("tiny subarray must be rejected")
	}
}

func TestMaxWordlinesPerEventIsOne(t *testing.T) {
	// DRISA never multi-row activates.
	e := MustNew(DefaultConfig())
	for _, op := range engine.BasicOps() {
		if e.OpStats(op).MaxWordlinesPerEvent != 1 {
			t.Errorf("%v peak wordlines/event != 1", op)
		}
	}
}

func TestExecuteMatchesGoldenProperty(t *testing.T) {
	e := MustNew(DefaultConfig())
	f := func(seed int64, opRaw uint8) bool {
		op := engine.BasicOps()[int(opRaw)%7]
		sub := testSubarray()
		rng := rand.New(rand.NewSource(seed))
		a := bitvec.Random(rng, sub.Columns())
		b := bitvec.Random(rng, sub.Columns())
		sub.LoadRow(3, a)
		sub.LoadRow(6, b)
		if err := e.Execute(sub, op, 8, 3, 6); err != nil {
			return false
		}
		want := bitvec.New(sub.Columns())
		op.Golden(want, a, b)
		return sub.RowData(8).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqHelpers(t *testing.T) {
	e := MustNew(DefaultConfig())
	if got := len(e.Seq(engine.OpXOR)); got != e.Cycles(engine.OpXOR) {
		t.Errorf("Seq length %d != cycles %d", got, e.Cycles(engine.OpXOR))
	}
	q, err := e.ChainSeq(engine.OpAND)
	if err != nil || len(q) != 3 {
		t.Errorf("ChainSeq = %v, %v", q, err)
	}
	if _, err := e.ChainSeq(engine.OpNOT); err == nil {
		t.Error("ChainSeq(NOT) accepted")
	}
	nq, err := e.NotChainSeq(engine.OpOR)
	if err != nil || len(nq) != 3 {
		t.Errorf("NotChainSeq = %v, %v", nq, err)
	}
	if _, err := e.NotChainSeq(engine.OpXOR); err == nil {
		t.Error("NotChainSeq(XOR) accepted")
	}
	if e.CompoundOverheadFactor() <= 1 {
		t.Error("DRISA compound overhead must exceed 1")
	}
	if e.Cycles(engine.OpCOPY) != 1 {
		t.Error("COPY cycles wrong")
	}
}

func TestCyclesPanicsOnUnknownOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op did not panic")
		}
	}()
	MustNew(DefaultConfig()).Cycles(engine.Op(99))
}

// TestDeviceActivationsMatchStats cross-checks the NOR-gate emulation's
// activation and wordline counters against OpStats for every op.
func TestDeviceActivationsMatchStats(t *testing.T) {
	e := MustNew(DefaultConfig())
	for _, op := range append(engine.BasicOps(), engine.OpCOPY) {
		sub := testSubarray()
		rng := rand.New(rand.NewSource(int64(op)))
		sub.LoadRow(0, bitvec.Random(rng, sub.Columns()))
		sub.LoadRow(1, bitvec.Random(rng, sub.Columns()))
		sub.ResetStats()
		if err := e.Execute(sub, op, 2, 0, 1); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		st := e.OpStats(op)
		if sub.Activations != st.ActivateEvents || sub.Wordlines != st.Wordlines {
			t.Errorf("%v: device %d activations / %d wordlines, model %d / %d",
				op, sub.Activations, sub.Wordlines, st.ActivateEvents, st.Wordlines)
		}
	}
}
