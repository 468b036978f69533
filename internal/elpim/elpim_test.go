package elpim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ambit"
	"repro/internal/bitvec"
	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/primitive"
	"repro/internal/timing"
)

func testSubarray(dcc int) *dram.Subarray {
	return dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 16, Columns: 256, DualContactRows: dcc,
	})
}

func newEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReservedRows = 3
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted 3 reserved rows")
	}
	cfg = DefaultConfig()
	cfg.Timing.Precharge = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted invalid timing")
	}
	cfg = DefaultConfig()
	cfg.Power.ActivateEnergy = 0
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
	cfg.ReservedRows = 0
	MustNew(cfg)
}

// loadOperands fills rows 0 (A), 1 (B) with random data and returns them.
func loadOperands(sub *dram.Subarray, seed int64) (a, b *bitvec.Vector) {
	rng := rand.New(rand.NewSource(seed))
	a = bitvec.Random(rng, sub.Columns())
	b = bitvec.Random(rng, sub.Columns())
	sub.LoadRow(0, a)
	sub.LoadRow(1, b)
	return a, b
}

// TestAllOpsMatchGolden executes every basic operation through the real
// command interpreter and compares against the host golden model.
func TestAllOpsMatchGolden(t *testing.T) {
	for _, reserved := range []int{1, 2} {
		e := newEngine(t, func(c *Config) { c.ReservedRows = reserved })
		for _, op := range engine.BasicOps() {
			sub := testSubarray(reserved)
			a, b := loadOperands(sub, int64(reserved)*100+int64(op))
			if err := e.Execute(sub, op, 2, 0, 1); err != nil {
				t.Fatalf("reserved=%d %v: %v", reserved, op, err)
			}
			want := bitvec.New(sub.Columns())
			op.Golden(want, a, b)
			if !sub.RowData(2).Equal(want) {
				t.Errorf("reserved=%d %v: result mismatch", reserved, op)
			}
		}
	}
}

// TestOperandPreservation: with one reserved row, every sequence preserves
// both operand rows (the two-buffer XOR/XNOR documentedly consume A).
func TestOperandPreservation(t *testing.T) {
	e := newEngine(t, nil)
	for _, op := range engine.BasicOps() {
		sub := testSubarray(1)
		a, b := loadOperands(sub, 7+int64(op))
		if err := e.Execute(sub, op, 2, 0, 1); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if !sub.RowData(0).Equal(a) {
			t.Errorf("%v clobbered operand A", op)
		}
		if !sub.RowData(1).Equal(b) {
			t.Errorf("%v clobbered operand B", op)
		}
	}
}

func TestTwoBufferXORConsumesOnlyA(t *testing.T) {
	e := newEngine(t, func(c *Config) { c.ReservedRows = 2 })
	for _, op := range []engine.Op{engine.OpXOR, engine.OpXNOR} {
		sub := testSubarray(2)
		_, b := loadOperands(sub, 11+int64(op))
		if err := e.Execute(sub, op, 2, 0, 1); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if !sub.RowData(1).Equal(b) {
			t.Errorf("%v clobbered operand B (only A may be consumed)", op)
		}
	}
}

func TestCopyOp(t *testing.T) {
	e := newEngine(t, nil)
	sub := testSubarray(1)
	a, _ := loadOperands(sub, 3)
	if err := e.Execute(sub, engine.OpCOPY, 4, 0, -1); err != nil {
		t.Fatal(err)
	}
	if !sub.RowData(4).Equal(a) {
		t.Fatal("COPY mismatch")
	}
}

func TestInPlaceANDOR(t *testing.T) {
	e := newEngine(t, nil)
	for _, op := range []engine.Op{engine.OpAND, engine.OpOR} {
		sub := testSubarray(1)
		a, b := loadOperands(sub, 17+int64(op))
		if err := e.ExecuteInPlace(sub, op, 0, 1); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		want := bitvec.New(sub.Columns())
		op.Golden(want, a, b)
		if !sub.RowData(1).Equal(want) {
			t.Errorf("in-place %v mismatch", op)
		}
		if !sub.RowData(0).Equal(a) {
			t.Errorf("in-place %v clobbered the read operand", op)
		}
	}
}

func TestNotChainMatchesGolden(t *testing.T) {
	// acc = acc op ¬src through the dual-contact row.
	e := newEngine(t, nil)
	for _, op := range []engine.Op{engine.OpAND, engine.OpOR} {
		sub := testSubarray(1)
		a, b := loadOperands(sub, 41+int64(op))
		if err := e.ExecuteNotChain(sub, op, 0, 1); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		notA := bitvec.New(sub.Columns()).Not(a)
		want := bitvec.New(sub.Columns())
		op.Golden(want, notA, b)
		if !sub.RowData(1).Equal(want) {
			t.Errorf("complement fold %v mismatch", op)
		}
		if !sub.RowData(0).Equal(a) {
			t.Errorf("complement fold %v clobbered the source", op)
		}
	}
}

func TestNotChainRejectsNonANDOR(t *testing.T) {
	e := newEngine(t, nil)
	if _, err := e.NotChainSeq(engine.OpXOR); err == nil {
		t.Fatal("complement-fold XOR must be rejected")
	}
}

func TestNotChainCheaperThanNotPlusChain(t *testing.T) {
	// The fused fold must beat NOT + chained AND.
	e := newEngine(t, nil)
	fold, err := e.NotChainSeq(engine.OpAND)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := e.ChainSeq(engine.OpAND)
	if err != nil {
		t.Fatal(err)
	}
	tp := e.Config().Timing
	separate := e.Compile(engine.OpNOT).Duration(tp) + chain.Duration(tp)
	if fold.Duration(tp) >= separate {
		t.Errorf("fused fold %v must beat NOT+chain %v", fold.Duration(tp), separate)
	}
}

func TestInPlaceRejectsNonANDOR(t *testing.T) {
	e := newEngine(t, nil)
	if _, err := e.InPlaceSeq(engine.OpXOR); err == nil {
		t.Fatal("in-place XOR must be rejected")
	}
	if err := e.ExecuteInPlace(testSubarray(1), engine.OpNOT, 0, 1); err == nil {
		t.Fatal("in-place NOT must be rejected")
	}
	if _, err := e.InPlaceStats(engine.OpXNOR); err == nil {
		t.Fatal("in-place XNOR stats must be rejected")
	}
}

func TestHighThroughputModeMatchesGolden(t *testing.T) {
	e := newEngine(t, func(c *Config) { c.Mode = HighThroughput })
	for _, op := range engine.BasicOps() {
		sub := testSubarray(1)
		a, b := loadOperands(sub, 23+int64(op))
		if err := e.Execute(sub, op, 2, 0, 1); err != nil {
			t.Fatalf("HT %v: %v", op, err)
		}
		want := bitvec.New(sub.Columns())
		op.Golden(want, a, b)
		if !sub.RowData(2).Equal(want) {
			t.Errorf("HT %v: result mismatch", op)
		}
	}
}

func TestAblationsMatchGolden(t *testing.T) {
	// Disabling the §4.2 optimizations changes timing, never results.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.UseIsolation = false },
		func(c *Config) { c.UseRestoreTruncation = false },
		func(c *Config) { c.UseIsolation = false; c.UseRestoreTruncation = false },
	} {
		e := newEngine(t, mutate)
		for _, op := range engine.BasicOps() {
			sub := testSubarray(1)
			a, b := loadOperands(sub, 31+int64(op))
			if err := e.Execute(sub, op, 2, 0, 1); err != nil {
				t.Fatalf("%v: %v", op, err)
			}
			want := bitvec.New(sub.Columns())
			op.Golden(want, a, b)
			if !sub.RowData(2).Equal(want) {
				t.Errorf("ablated %v: result mismatch", op)
			}
		}
	}
}

// TestPaperLatencies pins per-op latencies to the paper's numbers.
func TestPaperLatencies(t *testing.T) {
	e := newEngine(t, nil)
	cases := []struct {
		op   engine.Op
		want float64
		tol  float64
	}{
		{engine.OpNOT, 106, 1}, // 2 oAAPs
		{engine.OpAND, 173, 1}, // oAAP-APP-oAAP (§3.3: 3 primitives)
		{engine.OpOR, 173, 1},  //
		{engine.OpXOR, 346, 2}, // Figure 8 sequence 5: ~346 ns
	}
	for _, tc := range cases {
		got := e.OpStats(tc.op).LatencyNS
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%v latency = %.1f ns, want ~%.0f", tc.op, got, tc.want)
		}
	}
}

func TestXORSequence6Latency(t *testing.T) {
	// Figure 8 sequence 6: two reserved rows bring XOR to ~297 ns.
	e := newEngine(t, func(c *Config) { c.ReservedRows = 2 })
	got := e.OpStats(engine.OpXOR).LatencyNS
	if got < 285 || got > 300 {
		t.Errorf("2-buffer XOR latency = %.1f ns, want ~297 (paper, sequence 6)", got)
	}
	if cmds := e.OpStats(engine.OpXOR).Commands; cmds != 6 {
		t.Errorf("2-buffer XOR uses %d primitives, want 6", cmds)
	}
}

func TestXORSequence5Shape(t *testing.T) {
	e := newEngine(t, nil)
	st := e.OpStats(engine.OpXOR)
	if st.Commands != 7 {
		t.Errorf("1-buffer XOR uses %d primitives, want 7 (sequence 5)", st.Commands)
	}
	if st.MaxWordlinesPerEvent > 2 {
		t.Errorf("ELP2IM peak wordlines/event = %d; must never exceed 2 (charge-pump friendly)", st.MaxWordlinesPerEvent)
	}
}

func TestInPlaceLatency(t *testing.T) {
	// Figure 5(a): APP-AP ≈ 67 + 49 = 116 ns; ~18% over AP-AP.
	e := newEngine(t, func(c *Config) { c.UseIsolation = false })
	st, err := e.InPlaceStats(engine.OpOR)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.LatencyNS-116.2) > 1 {
		t.Errorf("APP-AP latency = %.1f, want ~116", st.LatencyNS)
	}
}

func TestIsolationAblationSlowsXOR(t *testing.T) {
	with := newEngine(t, nil).OpStats(engine.OpXOR).LatencyNS
	without := newEngine(t, func(c *Config) { c.UseIsolation = false }).OpStats(engine.OpXOR).LatencyNS
	if with >= without {
		t.Errorf("isolation transistor must shorten XOR: with=%v without=%v", with, without)
	}
}

func TestRestoreTruncationAblationSlowsXOR(t *testing.T) {
	with := newEngine(t, nil).OpStats(engine.OpXOR).LatencyNS
	without := newEngine(t, func(c *Config) { c.UseRestoreTruncation = false }).OpStats(engine.OpXOR).LatencyNS
	if with >= without {
		t.Errorf("restore truncation must shorten XOR: with=%v without=%v", with, without)
	}
}

func TestHighThroughputRaisesFewerWordlines(t *testing.T) {
	// The HT mode's reason to exist: fewer wordlines per op than RL mode.
	rl := newEngine(t, nil)
	ht := newEngine(t, func(c *Config) { c.Mode = HighThroughput })
	for _, op := range []engine.Op{engine.OpAND, engine.OpOR} {
		if ht.OpStats(op).Wordlines >= rl.OpStats(op).Wordlines {
			t.Errorf("%v: HT wordlines %d !< RL %d", op,
				ht.OpStats(op).Wordlines, rl.OpStats(op).Wordlines)
		}
		if ht.OpStats(op).LatencyNS <= rl.OpStats(op).LatencyNS {
			t.Errorf("%v: HT should trade latency for power", op)
		}
	}
}

func TestEngineMetadata(t *testing.T) {
	e := newEngine(t, nil)
	if e.Name() != "ELP2IM" {
		t.Errorf("name = %q", e.Name())
	}
	if e.ReservedRows() != 1 {
		t.Errorf("reserved rows = %d", e.ReservedRows())
	}
	if e.BackgroundFactor() != 1 {
		t.Errorf("background factor = %v", e.BackgroundFactor())
	}
	if a := e.AreaOverheadPercent(); a <= 0 || a > 5 {
		t.Errorf("area overhead = %v%%, want small positive", a)
	}
	if ModeString := ReducedLatency.String(); ModeString != "reduced-latency" {
		t.Errorf("mode string = %q", ModeString)
	}
	if HighThroughput.String() != "high-throughput" {
		t.Error("HT mode string wrong")
	}
}

func TestBindingErrors(t *testing.T) {
	e := newEngine(t, nil)
	sub := testSubarray(1)
	// A sequence that needs R1 on a 1-reserved-row engine must fail:
	// its R1 slot stays unbound.
	cfg2 := DefaultConfig()
	cfg2.ReservedRows = 2
	seq := MustNew(cfg2).Compile(engine.OpXOR) // uses R1
	if err := e.run(sub, seq, 0, 1, 2); err == nil {
		t.Fatal("sequence using R1 with 1-row binding must fail")
	}
}

// Property test: every op on random operands, random rows, both reserved
// configurations, matches the golden model.
func TestExecuteMatchesGoldenProperty(t *testing.T) {
	f := func(seed int64, opRaw, rowsRaw uint8) bool {
		op := engine.BasicOps()[int(opRaw)%7]
		reserved := int(rowsRaw)%2 + 1
		cfg := DefaultConfig()
		cfg.ReservedRows = reserved
		e := MustNew(cfg)
		sub := testSubarray(reserved)
		rng := rand.New(rand.NewSource(seed))
		a := bitvec.Random(rng, sub.Columns())
		b := bitvec.Random(rng, sub.Columns())
		// Spread rows around the data region.
		ra, rb, rc := 3, 9, 14
		sub.LoadRow(ra, a)
		sub.LoadRow(rb, b)
		if err := e.Execute(sub, op, rc, ra, rb); err != nil {
			return false
		}
		want := bitvec.New(sub.Columns())
		op.Golden(want, a, b)
		return sub.RowData(rc).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: chained in-place ANDs implement a multi-operand reduction.
func TestInPlaceReductionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%5 + 2
		e := MustNew(DefaultConfig())
		sub := testSubarray(1)
		rng := rand.New(rand.NewSource(seed))
		vs := make([]*bitvec.Vector, n)
		for i := range vs {
			vs[i] = bitvec.Random(rng, sub.Columns())
			sub.LoadRow(i, vs[i])
		}
		// Reduce rows 1..n-1 into row n-1's accumulator... fold into row 0.
		for i := 1; i < n; i++ {
			if err := e.ExecuteInPlace(sub, engine.OpAND, i, 0); err != nil {
				return false
			}
		}
		want := vs[0].Clone()
		for i := 1; i < n; i++ {
			want.And(want, vs[i])
		}
		return sub.RowData(0).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqAndChainAccessors(t *testing.T) {
	e := newEngine(t, nil)
	if len(e.Seq(engine.OpAND)) != 3 {
		t.Error("Seq(AND) should be 3 primitives")
	}
	st, err := e.ChainStats(engine.OpOR)
	if err != nil || st.Commands != 2 {
		t.Errorf("ChainStats = %+v, %v", st, err)
	}
	if _, err := e.ChainStats(engine.OpXOR); err == nil {
		t.Error("ChainStats(XOR) accepted")
	}
	if e.CompoundOverheadFactor() != 1 {
		t.Error("ELP2IM compound overhead must be 1")
	}
}

func TestCompilePanicsOnUnknownOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op did not panic")
		}
	}()
	newEngine(t, nil).Compile(engine.Op(99))
}

func TestDDR4PortabilityPreservesOrdering(t *testing.T) {
	// §6.2: the designs are DRAM-generation agnostic — ELP2IM's latency
	// advantage over both baselines must hold on DDR4-2400 too.
	ecfg := DefaultConfig()
	ecfg.Timing = timing.DDR42400()
	e := MustNew(ecfg)
	acfg := ambit.DefaultConfig()
	acfg.Timing = timing.DDR42400()
	a := ambit.MustNew(acfg)
	for _, op := range []engine.Op{engine.OpAND, engine.OpOR, engine.OpNAND, engine.OpXOR} {
		if e.OpStats(op).LatencyNS >= a.OpStats(op).LatencyNS {
			t.Errorf("DDR4 %v: ELP2IM %v !< Ambit %v", op,
				e.OpStats(op).LatencyNS, a.OpStats(op).LatencyNS)
		}
	}
	// And everything is faster in absolute terms than on DDR3.
	e3 := MustNew(DefaultConfig())
	if e.OpStats(engine.OpXOR).LatencyNS >= e3.OpStats(engine.OpXOR).LatencyNS {
		t.Error("DDR4 XOR must be faster than DDR3-1600")
	}
}

// allConfigs lists every engine configuration: 1–2 reserved rows × both
// modes × the §4.2 isolation and truncation optimizations on and off.
func allConfigs() []Config {
	var out []Config
	for _, reserved := range []int{1, 2} {
		for _, mode := range []Mode{ReducedLatency, HighThroughput} {
			for _, iso := range []bool{true, false} {
				for _, trunc := range []bool{true, false} {
					cfg := DefaultConfig()
					cfg.ReservedRows, cfg.Mode = reserved, mode
					cfg.UseIsolation, cfg.UseRestoreTruncation = iso, trunc
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

// TestDeviceActivationsMatchStats cross-checks the two accounting paths:
// the device model's activation and wordline counters after one run must
// equal the cost model's counts for the same sequence — every op's
// three-operand form, the in-place fold against ChainStats and the
// complement fold against NotChainSeq, in every configuration.
func TestDeviceActivationsMatchStats(t *testing.T) {
	check := func(what string, sub *dram.Subarray, st engine.Stats) {
		t.Helper()
		if sub.Activations != st.ActivateEvents || sub.Wordlines != st.Wordlines {
			t.Errorf("%s: device %d activations / %d wordlines, model %d / %d",
				what, sub.Activations, sub.Wordlines, st.ActivateEvents, st.Wordlines)
		}
	}
	for _, cfg := range allConfigs() {
		e := MustNew(cfg)
		name := fmt.Sprintf("reserved=%d %v isolation=%v truncation=%v",
			cfg.ReservedRows, cfg.Mode, cfg.UseIsolation, cfg.UseRestoreTruncation)
		for _, op := range append(engine.BasicOps(), engine.OpCOPY) {
			sub := testSubarray(cfg.ReservedRows)
			loadOperands(sub, 77+int64(op))
			sub.ResetStats()
			if err := e.Execute(sub, op, 2, 0, 1); err != nil {
				t.Fatalf("%s %v: %v", name, op, err)
			}
			check(fmt.Sprintf("%s %v", name, op), sub, e.OpStats(op))
		}
		for _, op := range []engine.Op{engine.OpAND, engine.OpOR} {
			sub := testSubarray(cfg.ReservedRows)
			loadOperands(sub, 91+int64(op))
			sub.ResetStats()
			if err := e.ExecuteInPlace(sub, op, 0, 1); err != nil {
				t.Fatalf("%s in-place %v: %v", name, op, err)
			}
			chain, err := e.ChainStats(op)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s in-place %v", name, op), sub, chain)

			sub.ResetStats()
			if err := e.ExecuteNotChain(sub, op, 0, 1); err != nil {
				t.Fatalf("%s complement fold %v: %v", name, op, err)
			}
			q, err := e.NotChainSeq(op)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s complement fold %v", name, op), sub, engine.SeqStats(q, cfg.Timing, cfg.Power))
		}
	}
}

// TestSequencesAssemble: every sequence the engine compiles, rendered with
// the slot names, is a controller program that assembles back to the
// same text.
func TestSequencesAssemble(t *testing.T) {
	names := SlotNames()
	for _, cfg := range allConfigs() {
		e := MustNew(cfg)
		seqs := []primitive.Seq{}
		for _, op := range append(engine.BasicOps(), engine.OpCOPY) {
			seqs = append(seqs, e.Compile(op))
		}
		for _, op := range []engine.Op{engine.OpAND, engine.OpOR} {
			in, err := e.InPlaceSeq(op)
			if err != nil {
				t.Fatal(err)
			}
			not, err := e.NotChainSeq(op)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, in, not)
		}
		for _, q := range seqs {
			text := q.Format(names)
			p, err := controller.Assemble(text)
			if err != nil {
				t.Errorf("%+v: %q does not assemble: %v", cfg, text, err)
				continue
			}
			if got := p.Seq.Format(p.Symbols); got != text {
				t.Errorf("%q re-assembles as %q", text, got)
			}
		}
	}
}

// TestExecuteAllocFree pins the command-accurate executor at zero
// allocations per call: the row table lives on the stack.
func TestExecuteAllocFree(t *testing.T) {
	for _, reserved := range []int{1, 2} {
		e := newEngine(t, func(c *Config) { c.ReservedRows = reserved })
		sub := testSubarray(reserved)
		loadOperands(sub, 5)
		for _, op := range []engine.Op{engine.OpAND, engine.OpXOR} {
			allocs := testing.AllocsPerRun(50, func() {
				if err := e.Execute(sub, op, 2, 0, 1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("reserved=%d %v: Execute allocates %.1f/call, want 0", reserved, op, allocs)
			}
		}
	}
}
