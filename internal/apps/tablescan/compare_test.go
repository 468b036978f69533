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

func allCmpOps() []CmpOp {
	return []CmpOp{CmpLT, CmpLE, CmpGT, CmpGE, CmpEQ, CmpNE}
}

func TestCmpOpStrings(t *testing.T) {
	want := map[CmpOp]string{
		CmpLT: "<", CmpLE: "<=", CmpGT: ">", CmpGE: ">=", CmpEQ: "=", CmpNE: "<>",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("op string = %q, want %q", op.String(), s)
		}
	}
	if CmpOp(99).String() == "" {
		t.Error("unknown op must render")
	}
}

func TestGoldenCompareTruthTable(t *testing.T) {
	w := Workload{Tuples: 5, Width: 4, Constant: 6}
	values := []uint64{3, 6, 9, 0, 15}
	want := map[CmpOp][]bool{
		CmpLT: {true, false, false, true, false},
		CmpLE: {true, true, false, true, false},
		CmpGT: {false, false, true, false, true},
		CmpGE: {false, true, true, false, true},
		CmpEQ: {false, true, false, false, false},
		CmpNE: {true, false, true, true, true},
	}
	for op, bits := range want {
		got := w.GoldenCompare(values, op)
		for j, b := range bits {
			if got.Bit(j) != b {
				t.Errorf("%d %s 6: got %v, want %v", values[j], op, got.Bit(j), b)
			}
		}
	}
}

// TestFunctionalCompareAllOpsAllEngines executes every comparison
// operator on the device model through every engine, tuple-exact.
func TestFunctionalCompareAllOpsAllEngines(t *testing.T) {
	const tuples, width = 192, 5
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 24, Columns: tuples, DualContactRows: 2,
	}
	rng := rand.New(rand.NewSource(8))
	values := make([]uint64, tuples)
	for j := range values {
		values[j] = rng.Uint64() & (1<<width - 1)
	}
	w := Workload{Tuples: tuples, Width: width, Constant: 0b01101}

	engines := map[string]engine.Executor{
		"elpim": elpim.MustNew(elpim.DefaultConfig()),
		"ambit": ambit.MustNew(ambit.DefaultConfig()),
		"drisa": drisa.MustNew(drisa.DefaultConfig()),
	}
	for name, ex := range engines {
		for _, op := range allCmpOps() {
			t.Run(name+"/"+op.String(), func(t *testing.T) {
				sub := dram.NewSubarray(cfg)
				cols := Verticalize(values, width)
				rows := PredicateRows{Bits: make([]int, width), LT: 10, EQ: 11, T1: 12, T2: 13}
				for b := 0; b < width; b++ {
					rows.Bits[b] = b
					sub.LoadRow(b, cols[b])
				}
				if err := ExecuteCompare(sub, ex, w, op, rows); err != nil {
					t.Fatal(err)
				}
				want := w.GoldenCompare(values, op)
				if !sub.RowData(rows.LT).Equal(want) {
					t.Errorf("result mismatch: got %d matches, want %d",
						sub.RowData(rows.LT).Popcount(), want.Popcount())
				}
			})
		}
	}
}

func TestExecuteCompareErrors(t *testing.T) {
	ex := elpim.MustNew(elpim.DefaultConfig())
	sub := dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 24, Columns: 64, DualContactRows: 1,
	})
	bad := Workload{Tuples: 0, Width: 4}
	if err := ExecuteCompare(sub, ex, bad, CmpEQ, PredicateRows{Bits: make([]int, 4)}); err == nil {
		t.Error("invalid workload accepted")
	}
	w := Workload{Tuples: 64, Width: 4, Constant: 5}
	if err := ExecuteCompare(sub, ex, w, CmpEQ, PredicateRows{Bits: make([]int, 2)}); err == nil {
		t.Error("wrong bit-row count accepted")
	}
}

func TestRunCompareCosts(t *testing.T) {
	e := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	tp := timing.DDR31600()
	m := cpu.KabyLake()
	w := Default(8)

	lt, err := RunCompare(w, CmpLT, e, mod, tp, m)
	if err != nil {
		t.Fatal(err)
	}
	// CmpLT through RunCompare equals the Figure 14 Run.
	fig14, err := Run(w, e, mod, tp, m)
	if err != nil {
		t.Fatal(err)
	}
	if lt.PredicateLatencyNS != fig14.PredicateLatencyNS {
		t.Errorf("RunCompare(LT) latency %v != Run latency %v",
			lt.PredicateLatencyNS, fig14.PredicateLatencyNS)
	}
	// EQ only advances the equality chain: cheapest of the set.
	eq, err := RunCompare(w, CmpEQ, e, mod, tp, m)
	if err != nil {
		t.Fatal(err)
	}
	if eq.PredicateLatencyNS >= lt.PredicateLatencyNS {
		t.Errorf("EQ latency %v must be below LT %v", eq.PredicateLatencyNS, lt.PredicateLatencyNS)
	}
	// LE = LT + final OR.
	le, err := RunCompare(w, CmpLE, e, mod, tp, m)
	if err != nil {
		t.Fatal(err)
	}
	if le.PredicateLatencyNS <= lt.PredicateLatencyNS {
		t.Errorf("LE latency %v must exceed LT %v", le.PredicateLatencyNS, lt.PredicateLatencyNS)
	}
	if _, err := RunCompare(Workload{}, CmpEQ, e, mod, tp, m); err == nil {
		t.Error("invalid workload accepted")
	}
}

// Property: every operator matches the golden model on random constants
// through the ELP2IM engine.
func TestCompareProperty(t *testing.T) {
	const tuples = 96
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 24, Columns: tuples, DualContactRows: 1,
	}
	ex := elpim.MustNew(elpim.DefaultConfig())
	ops := allCmpOps()
	f := func(seed int64, constRaw uint16, opRaw, widthRaw uint8) bool {
		width := int(widthRaw)%7 + 1
		op := ops[int(opRaw)%len(ops)]
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
		if err := ExecuteCompare(sub, ex, w, op, rows); err != nil {
			return false
		}
		return sub.RowData(rows.LT).Equal(w.GoldenCompare(values, op))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBetweenFunctional(t *testing.T) {
	const tuples, width = 160, 6
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 24, Columns: tuples, DualContactRows: 1,
	}
	rng := rand.New(rand.NewSource(10))
	values := make([]uint64, tuples)
	for j := range values {
		values[j] = rng.Uint64() & (1<<width - 1)
	}
	w := Workload{Tuples: tuples, Width: width}
	const lo, hi = 13, 41
	ex := elpim.MustNew(elpim.DefaultConfig())
	sub := dram.NewSubarray(cfg)
	cols := Verticalize(values, width)
	rows := PredicateRows{Bits: make([]int, width), LT: 10, EQ: 11, T1: 12, T2: 13}
	for b := 0; b < width; b++ {
		rows.Bits[b] = b
		sub.LoadRow(b, cols[b])
	}
	if err := ExecuteBetween(sub, ex, w, lo, hi, rows, 14); err != nil {
		t.Fatal(err)
	}
	got := sub.RowData(rows.LT)
	for j, v := range values {
		want := v >= lo && v <= hi
		if got.Bit(j) != want {
			t.Fatalf("tuple %d (%d in [%d,%d]): got %v", j, v, lo, hi, got.Bit(j))
		}
	}
	// Empty range rejected.
	if err := ExecuteBetween(sub, ex, w, 41, 13, rows, 14); err == nil {
		t.Error("empty range accepted")
	}
}

func TestRunBetweenCost(t *testing.T) {
	e := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	tp := timing.DDR31600()
	m := cpu.KabyLake()
	w := Default(8)
	between, err := RunBetween(w, 20, 200, e, mod, tp, m)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := RunCompare(Workload{Tuples: w.Tuples, Width: w.Width, Constant: 20}, CmpGE, e, mod, tp, m)
	if err != nil {
		t.Fatal(err)
	}
	// A range costs roughly two single-bound scans.
	if between.PredicateLatencyNS <= ge.PredicateLatencyNS {
		t.Errorf("between latency %v must exceed one bound %v",
			between.PredicateLatencyNS, ge.PredicateLatencyNS)
	}
	if _, err := RunBetween(w, 200, 20, e, mod, tp, m); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := RunBetween(Workload{}, 1, 2, e, mod, tp, m); err == nil {
		t.Error("invalid workload accepted")
	}
}
