package tablescan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ambit"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/timing"
)

func designs(t *testing.T) (engine.Engine, engine.Engine, engine.Engine) {
	t.Helper()
	return elpim.MustNew(elpim.DefaultConfig()),
		ambit.MustNew(ambit.DefaultConfig()),
		drisa.MustNew(drisa.DefaultConfig())
}

func run(t *testing.T, d engine.Engine, width int) Result {
	t.Helper()
	r, err := Run(Default(width), d, dram.Default(), timing.DDR31600(), cpu.KabyLake())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWorkloadValidate(t *testing.T) {
	if err := Default(8).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []Workload{
		{Tuples: 0, Width: 8},
		{Tuples: 100, Width: 0},
		{Tuples: 100, Width: 65},
	} {
		if err := w.Validate(); err == nil {
			t.Errorf("invalid workload %+v accepted", w)
		}
	}
}

func TestConstBits(t *testing.T) {
	w := Workload{Tuples: 1, Width: 4, Constant: 0b0101}
	for i, want := range []bool{true, false, true, false} {
		if w.ConstBit(i) != want {
			t.Errorf("bit %d = %v, want %v", i, w.ConstBit(i), want)
		}
	}
}

func TestELP2IMHighestThroughput(t *testing.T) {
	// Figure 14(a): "ELP2IM has the highest throughput" at every width.
	e, a, d := designs(t)
	for _, width := range []int{4, 8, 12, 16} {
		re, ra, rd := run(t, e, width), run(t, a, width), run(t, d, width)
		if re.TuplesPerSec <= ra.TuplesPerSec {
			t.Errorf("width %d: ELP2IM (%.3g) must beat Ambit (%.3g)",
				width, re.TuplesPerSec, ra.TuplesPerSec)
		}
		if re.TuplesPerSec <= rd.TuplesPerSec {
			t.Errorf("width %d: ELP2IM (%.3g) must beat Drisa (%.3g)",
				width, re.TuplesPerSec, rd.TuplesPerSec)
		}
	}
}

func TestDrisaBeatsAmbitUnderConstraint(t *testing.T) {
	// Figure 14(b): "the throughput of Drisa_nor outperforms Ambit,
	// because Ambit is hindered by the multiple row activates under power
	// constraint" — even though Drisa's latency is the largest.
	_, a, d := designs(t)
	ra, rd := run(t, a, 8), run(t, d, 8)
	if rd.TuplesPerSec <= ra.TuplesPerSec {
		t.Errorf("Drisa device throughput (%.3g) must beat Ambit (%.3g) under constraint",
			rd.TuplesPerSec, ra.TuplesPerSec)
	}
	if rd.PredicateLatencyNS <= ra.PredicateLatencyNS {
		t.Errorf("Drisa latency (%v) must still be the largest (Ambit %v)",
			rd.PredicateLatencyNS, ra.PredicateLatencyNS)
	}
}

func TestImprovementGrowsWithWidth(t *testing.T) {
	// Figure 14(a): ELP2IM's improvement over CPU grows with data width
	// (the CPU count proportion shrinks).
	e, _, _ := designs(t)
	prev := 0.0
	for _, width := range []int{4, 8, 12, 16} {
		base, err := RunCPU(Default(width), cpu.KabyLake())
		if err != nil {
			t.Fatal(err)
		}
		s := run(t, e, width).SpeedupOver(base)
		if s <= 1 {
			t.Errorf("width %d: speedup %v must exceed 1", width, s)
		}
		if s <= prev {
			t.Errorf("width %d: speedup %v must grow from %v", width, s, prev)
		}
		prev = s
	}
}

func TestReservedSpace(t *testing.T) {
	// Figure 14(c): Ambit 8 rows, ELP2IM 1 row, Drisa 0.
	e, a, d := designs(t)
	if got := run(t, e, 8).ReservedRows; got != 1 {
		t.Errorf("ELP2IM reserved rows = %d, want 1", got)
	}
	if got := run(t, a, 8).ReservedRows; got != 8 {
		t.Errorf("Ambit reserved rows = %d, want 8", got)
	}
	if got := run(t, d, 8).ReservedRows; got != 0 {
		t.Errorf("Drisa reserved rows = %d, want 0", got)
	}
}

func TestRunErrors(t *testing.T) {
	e, _, _ := designs(t)
	if _, err := Run(Workload{}, e, dram.Default(), timing.DDR31600(), cpu.KabyLake()); err == nil {
		t.Error("invalid workload accepted")
	}
	if _, err := Run(Default(8), e, dram.Config{}, timing.DDR31600(), cpu.KabyLake()); err == nil {
		t.Error("invalid module accepted")
	}
	if _, err := Run(Default(8), e, dram.Default(), timing.DDR31600(), cpu.Model{}); err == nil {
		t.Error("invalid cpu model accepted")
	}
	if _, err := RunCPU(Workload{}, cpu.KabyLake()); err == nil {
		t.Error("invalid workload accepted by CPU baseline")
	}
}

func TestVerticalizeRoundTrip(t *testing.T) {
	values := []uint64{0b1010, 0b0011, 0b1111, 0b0000, 0b0110}
	cols := Verticalize(values, 4)
	if len(cols) != 4 {
		t.Fatalf("columns = %d, want 4", len(cols))
	}
	for j, v := range values {
		for i := 0; i < 4; i++ {
			want := v>>uint(i)&1 == 1
			if cols[i].Bit(j) != want {
				t.Errorf("value %d bit %d = %v, want %v", j, i, cols[i].Bit(j), want)
			}
		}
	}
}

func TestGoldenPredicate(t *testing.T) {
	w := Workload{Tuples: 4, Width: 4, Constant: 0b0110}
	got := w.GoldenPredicate([]uint64{0b0101, 0b0110, 0b0111, 0b0000})
	want := []bool{true, false, false, true}
	for j, wantBit := range want {
		if got.Bit(j) != wantBit {
			t.Errorf("tuple %d predicate = %v, want %v", j, got.Bit(j), wantBit)
		}
	}
}

// TestFunctionalPredicateAllEngines executes the bit-serial LESS-THAN on
// the device model through every engine and checks tuple-exact results.
func TestFunctionalPredicateAllEngines(t *testing.T) {
	const tuples, width = 256, 6
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 24, Columns: tuples, DualContactRows: 2,
	}
	rng := rand.New(rand.NewSource(5))
	values := make([]uint64, tuples)
	for j := range values {
		values[j] = rng.Uint64() & (1<<width - 1)
	}
	w := Workload{Tuples: tuples, Width: width, Constant: 0b101101}

	engines := []engine.Executor{
		elpim.MustNew(elpim.DefaultConfig()),
		ambit.MustNew(ambit.DefaultConfig()),
		drisa.MustNew(drisa.DefaultConfig()),
	}
	names := []string{"ELP2IM", "Ambit", "Drisa"}
	for i, ex := range engines {
		sub := dram.NewSubarray(cfg)
		cols := Verticalize(values, width)
		rows := PredicateRows{Bits: make([]int, width), LT: 10, EQ: 11, T1: 12, T2: 13}
		for b := 0; b < width; b++ {
			rows.Bits[b] = b
			sub.LoadRow(b, cols[b])
		}
		if err := ExecutePredicate(sub, ex, w, rows); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want := w.GoldenPredicate(values)
		if !sub.RowData(rows.LT).Equal(want) {
			t.Errorf("%s: predicate result mismatch (got %d matches, want %d)",
				names[i], sub.RowData(rows.LT).Popcount(), want.Popcount())
		}
	}
}

// Property: the functional predicate matches the golden model for random
// constants and values on the ELP2IM engine.
func TestFunctionalPredicateProperty(t *testing.T) {
	const tuples = 128
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 24, Columns: tuples, DualContactRows: 1,
	}
	ex := elpim.MustNew(elpim.DefaultConfig())
	f := func(seed int64, constRaw uint16, widthRaw uint8) bool {
		width := int(widthRaw)%8 + 1
		w := Workload{Tuples: tuples, Width: width, Constant: uint64(constRaw) & (1<<uint(width) - 1)}
		rng := rand.New(rand.NewSource(seed))
		values := make([]uint64, tuples)
		for j := range values {
			values[j] = rng.Uint64() & (1<<uint(width) - 1)
		}
		sub := dram.NewSubarray(cfg)
		cols := Verticalize(values, width)
		rows := PredicateRows{Bits: make([]int, width), LT: 15, EQ: 16, T1: 17, T2: 18}
		for b := 0; b < width; b++ {
			rows.Bits[b] = b
			sub.LoadRow(b, cols[b])
		}
		if err := ExecutePredicate(sub, ex, w, rows); err != nil {
			return false
		}
		return sub.RowData(rows.LT).Equal(w.GoldenPredicate(values))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
