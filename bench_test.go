package elp2im

// One benchmark per table and figure of the paper's evaluation (§6).
// Each bench regenerates its artifact's underlying computation and
// reports the paper-relevant modeled quantities via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction run.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/ambit"
	"repro/internal/analog"
	"repro/internal/apps/bitmap"
	"repro/internal/apps/cnn"
	"repro/internal/apps/tablescan"
	"repro/internal/bitvec"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/sched"
	"repro/internal/timing"
)

// BenchmarkTable1Primitives regenerates Table 1's primitive latencies.
func BenchmarkTable1Primitives(b *testing.B) {
	tp := timing.DDR31600()
	kinds := []primitive.Kind{
		primitive.AP, primitive.AAP, primitive.OAAP,
		primitive.APP, primitive.OAPP, primitive.TAPP, primitive.OTAPP,
	}
	var total float64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, k := range kinds {
			total += k.Duration(tp)
		}
	}
	b.ReportMetric(total, "sum_ns")
	b.ReportMetric(primitive.AP.Duration(tp), "AP_ns")
	b.ReportMetric(primitive.APP.Duration(tp), "APP_ns")
}

// BenchmarkFig8XORSequences regenerates the Figure 8 optimization ladder.
func BenchmarkFig8XORSequences(b *testing.B) {
	cfg1 := elpim.DefaultConfig()
	cfg2 := elpim.DefaultConfig()
	cfg2.ReservedRows = 2
	e1 := elpim.MustNew(cfg1)
	e2 := elpim.MustNew(cfg2)
	var seq5, seq6 float64
	for i := 0; i < b.N; i++ {
		seq5 = e1.OpStats(engine.OpXOR).LatencyNS
		seq6 = e2.OpStats(engine.OpXOR).LatencyNS
	}
	b.ReportMetric(seq5, "seq5_ns") // paper: ~346
	b.ReportMetric(seq6, "seq6_ns") // paper: ~297
}

// BenchmarkFig10Waveform simulates the APP-AP circuit traces.
func BenchmarkFig10Waveform(b *testing.B) {
	c := analog.Default()
	tp := timing.DDR31600()
	var samples int
	for i := 0; i < b.N; i++ {
		wf := analog.SimulateAPPAP(c, tp, analog.TwoCycleOR, true, false)
		samples = len(wf.Samples)
	}
	b.ReportMetric(float64(samples), "samples")
}

// BenchmarkFig11ErrorRate runs the Monte-Carlo reliability comparison at
// σ = 6% under random process variation.
func BenchmarkFig11ErrorRate(b *testing.B) {
	c := analog.Default()
	const trials = 4000
	var ambitRate, elpRate float64
	for i := 0; i < b.N; i++ {
		ambitRate = analog.ErrorRate(c, analog.DeviceAmbit, analog.VariationRandom, 0.06, trials, 42)
		elpRate = analog.ErrorRate(c, analog.DeviceELP2IM, analog.VariationRandom, 0.06, trials, 42)
	}
	b.ReportMetric(ambitRate, "ambit_err")
	b.ReportMetric(elpRate, "elp2im_err")
}

// fig12 engines shared by the basic-op benches.
func fig12Engines(b *testing.B) (engine.Engine, engine.Engine, engine.Engine) {
	b.Helper()
	return drisa.MustNew(drisa.DefaultConfig()),
		ambit.MustNew(ambit.DefaultConfig()),
		elpim.MustNew(elpim.DefaultConfig())
}

// BenchmarkFig12BasicOps regenerates the latency/power comparison and
// exercises each engine's functional execution of every basic op on the
// device model.
func BenchmarkFig12BasicOps(b *testing.B) {
	dr, am, el := fig12Engines(b)
	pp := power.DDR31600()
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 16, Columns: 2048, DualContactRows: 2,
	}
	engines := []engine.Engine{dr, am, el}
	rng := rand.New(rand.NewSource(1))

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range engines {
			sub := dram.NewSubarray(cfg)
			sub.LoadRow(0, randomRow(rng, cfg.Columns))
			sub.LoadRow(1, randomRow(rng, cfg.Columns))
			for _, op := range engine.BasicOps() {
				if err := e.Execute(sub, op, 2, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()

	avgSpeedup := func(base engine.Engine) float64 {
		total := 0.0
		for _, op := range engine.BasicOps() {
			total += base.OpStats(op).LatencyNS / el.OpStats(op).LatencyNS
		}
		return total / 7
	}
	b.ReportMetric(avgSpeedup(am), "vsAmbit_x") // paper: 1.17
	b.ReportMetric(avgSpeedup(dr), "vsDrisa_x") // paper: 1.12
	// Per-op average power (Figure 12(b)): ELP2IM a few percent below Ambit.
	avgPower := func(e engine.Engine) float64 {
		total := 0.0
		for _, op := range engine.BasicOps() {
			st := e.OpStats(op)
			total += (st.EnergyNJ + pp.BackgroundPower*e.BackgroundFactor()*st.LatencyNS) / st.LatencyNS
		}
		return total / 7
	}
	b.ReportMetric(avgPower(el), "elp2im_W")
	b.ReportMetric(avgPower(am), "ambit_W")
}

// BenchmarkFig13Bitmap regenerates the bitmap case study (both power
// regimes).
func BenchmarkFig13Bitmap(b *testing.B) {
	wl := bitmap.Default()
	mod := dram.Default()
	tp := timing.DDR31600()
	m := cpu.KabyLake()
	e := elpim.MustNew(elpim.DefaultConfig())
	acfg := ambit.DefaultConfig()
	am := ambit.MustNew(acfg)

	var eCon, aCon bitmap.Result
	for i := 0; i < b.N; i++ {
		var err error
		eCon, err = bitmap.Run(wl, e, mod, tp, power.DDR31600(), m, true)
		if err != nil {
			b.Fatal(err)
		}
		aCon, err = bitmap.Run(wl, am, mod, tp, power.DDR31600(), m, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	base, err := bitmap.RunCPU(wl, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(eCon.SpeedupOver(base), "elp2im_vs_cpu_x")
	b.ReportMetric(aCon.SpeedupOver(base), "ambit_vs_cpu_x")
	b.ReportMetric(eCon.EffectiveBanks, "elp2im_banks")
	b.ReportMetric(aCon.EffectiveBanks, "ambit_banks")
}

// BenchmarkFig14TableScan regenerates the table-scan sweep at width 8.
func BenchmarkFig14TableScan(b *testing.B) {
	wl := tablescan.Default(8)
	mod := dram.Default()
	tp := timing.DDR31600()
	m := cpu.KabyLake()
	designs := []engine.Engine{
		elpim.MustNew(elpim.DefaultConfig()),
		ambit.MustNew(ambit.DefaultConfig()),
		drisa.MustNew(drisa.DefaultConfig()),
	}
	results := make([]tablescan.Result, len(designs))
	for i := 0; i < b.N; i++ {
		for j, d := range designs {
			r, err := tablescan.Run(wl, d, mod, tp, m)
			if err != nil {
				b.Fatal(err)
			}
			results[j] = r
		}
	}
	base, err := tablescan.RunCPU(wl, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(results[0].SpeedupOver(base), "elp2im_vs_cpu_x")
	b.ReportMetric(results[1].SpeedupOver(base), "ambit_vs_cpu_x")
	b.ReportMetric(results[2].SpeedupOver(base), "drisa_vs_cpu_x")
}

func cnnDesigns(b *testing.B) (engine.Engine, engine.Engine, engine.Engine) {
	b.Helper()
	ecfg := elpim.DefaultConfig()
	ecfg.ReservedRows = 2
	return ambit.MustNew(ambit.DefaultConfig()),
		elpim.MustNew(ecfg),
		drisa.MustNew(drisa.DefaultConfig())
}

// BenchmarkTable2Dracc regenerates the ternary-weight CNN table.
func BenchmarkTable2Dracc(b *testing.B) {
	a, e, d := cnnDesigns(b)
	var rows []cnn.TableRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cnn.Table2(a, e, d, cnn.DefaultAccel())
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := 0.0
	for _, r := range rows {
		avg += r.ELP2IMImprovement
	}
	b.ReportMetric(avg/float64(len(rows)), "elp2im_improve_x") // paper: ~1.12
}

// BenchmarkTable3NID regenerates the binary CNN table.
func BenchmarkTable3NID(b *testing.B) {
	a, e, d := cnnDesigns(b)
	var rows []cnn.TableRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = cnn.Table3(a, e, d, cnn.DefaultAccel())
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := 0.0
	for _, r := range rows {
		avg += r.ELP2IMImprovement
	}
	b.ReportMetric(avg/float64(len(rows)), "elp2im_improve_x") // paper: ~1.26
}

// BenchmarkAcceleratorBulkAND measures the library's end-to-end bulk-op
// throughput (simulator performance, not modeled DRAM time): one 8 Mbit
// AND through the full device model per iteration.
func BenchmarkAcceleratorBulkAND(b *testing.B) {
	acc, err := New()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 23
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	dst := NewBitVector(n)
	b.SetBytes(n / 8)
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		st, err = acc.Op(OpAnd, dst, x, y)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.LatencyNS/1e3, "modeled_us")
}

// BenchmarkAcceleratorBulkANDFallback is the same 8 Mbit AND forced
// through the command-accurate device model (the engine installed with
// SetExecutor) — the pre-kernel baseline the fast path's speedup is
// measured against.
func BenchmarkAcceleratorBulkANDFallback(b *testing.B) {
	acc, err := New()
	if err != nil {
		b.Fatal(err)
	}
	acc.SetExecutor(acc.BaseExecutor())
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 23
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	dst := NewBitVector(n)
	b.SetBytes(n / 8)
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		st, err = acc.Op(OpAnd, dst, x, y)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.LatencyNS/1e3, "modeled_us")
}

// BenchmarkOp measures the facade's per-call overhead on a small vector
// (one stripe per bank): the observability acceptance gate — with the
// default no-op tracer this path must allocate nothing in obs code and
// stay within noise of the pre-observability baseline.
func BenchmarkOp(b *testing.B) {
	acc, err := New()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 16
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	dst := NewBitVector(n)
	b.SetBytes(n / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentHarness regenerates every §6 artifact end to end.
func BenchmarkExperimentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.RunAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// randomRow builds a random device-model row.
func randomRow(rng *rand.Rand, cols int) *bitvec.Vector {
	return bitvec.Random(rng, cols)
}

// BenchmarkAblationIsolation quantifies the §4.2.1 isolation-transistor
// optimization (APP → oAPP) on the XOR sequence.
func BenchmarkAblationIsolation(b *testing.B) {
	with := elpim.MustNew(elpim.DefaultConfig())
	cfg := elpim.DefaultConfig()
	cfg.UseIsolation = false
	without := elpim.MustNew(cfg)
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = with.OpStats(engine.OpXOR).LatencyNS
		off = without.OpStats(engine.OpXOR).LatencyNS
	}
	b.ReportMetric(on, "with_ns")
	b.ReportMetric(off, "without_ns")
	b.ReportMetric(1-on/off, "saving_frac")
}

// BenchmarkAblationRestoreTruncation quantifies the §4.2.2 tAPP/otAPP
// optimization on the XOR sequence.
func BenchmarkAblationRestoreTruncation(b *testing.B) {
	with := elpim.MustNew(elpim.DefaultConfig())
	cfg := elpim.DefaultConfig()
	cfg.UseRestoreTruncation = false
	without := elpim.MustNew(cfg)
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = with.OpStats(engine.OpXOR).LatencyNS
		off = without.OpStats(engine.OpXOR).LatencyNS
	}
	b.ReportMetric(on, "with_ns")
	b.ReportMetric(off, "without_ns")
	b.ReportMetric(1-on/off, "saving_frac")
}

// BenchmarkAblationSecondReservedRow quantifies the §4.2.3 extra buffer
// (XOR sequence 5 → sequence 6).
func BenchmarkAblationSecondReservedRow(b *testing.B) {
	one := elpim.MustNew(elpim.DefaultConfig())
	cfg := elpim.DefaultConfig()
	cfg.ReservedRows = 2
	two := elpim.MustNew(cfg)
	var s5, s6 float64
	for i := 0; i < b.N; i++ {
		s5 = one.OpStats(engine.OpXOR).LatencyNS
		s6 = two.OpStats(engine.OpXOR).LatencyNS
	}
	b.ReportMetric(s5, "seq5_ns")
	b.ReportMetric(s6, "seq6_ns")
}

// BenchmarkAblationExecutionModes compares the reduced-latency and
// high-throughput modes under the power constraint — the Figure 5 strategy
// trade-off.
func BenchmarkAblationExecutionModes(b *testing.B) {
	tp := timing.DDR31600()
	rl := elpim.MustNew(elpim.DefaultConfig())
	cfg := elpim.DefaultConfig()
	cfg.Mode = elpim.HighThroughput
	ht := elpim.MustNew(cfg)
	var rlRate, htRate float64
	for i := 0; i < b.N; i++ {
		for _, pair := range []struct {
			e    *elpim.Engine
			rate *float64
		}{{rl, &rlRate}, {ht, &htRate}} {
			p := sched.ProfileFromSeq(pair.e.Compile(engine.OpAND), tp)
			res, err := sched.Simulate(p, sched.Config{
				Banks: 8, Timing: tp, PowerConstrained: true,
			}, 200_000)
			if err != nil {
				b.Fatal(err)
			}
			*pair.rate = res.OpsPerSecond / 1e6
		}
	}
	b.ReportMetric(rlRate, "reduced_latency_Mops")
	b.ReportMetric(htRate, "high_throughput_Mops")
}

// BenchmarkAblationStrategyReliability compares the regular and
// complementary pseudo-precharge strategies' error rates (§4.1).
func BenchmarkAblationStrategyReliability(b *testing.B) {
	c := analog.Default()
	var reg, comp float64
	for i := 0; i < b.N; i++ {
		reg = analog.ErrorRate(c, analog.DeviceELP2IM, analog.VariationRandom, 0.12, 4000, 42)
		comp = analog.ErrorRate(c, analog.DeviceELP2IMComplementary, analog.VariationRandom, 0.12, 4000, 42)
	}
	b.ReportMetric(reg, "regular_err")
	b.ReportMetric(comp, "complementary_err")
}

// BenchmarkAblationRefresh quantifies the refresh-tax extension.
func BenchmarkAblationRefresh(b *testing.B) {
	tp := timing.DDR31600()
	e := elpim.MustNew(elpim.DefaultConfig())
	p := sched.ProfileFromSeq(e.Compile(engine.OpAND), tp)
	var base, withRef float64
	for i := 0; i < b.N; i++ {
		r1, err := sched.Simulate(p, sched.Config{Banks: 8, Timing: tp}, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sched.Simulate(p, sched.Config{Banks: 8, Timing: tp, ModelRefresh: true}, 200_000)
		if err != nil {
			b.Fatal(err)
		}
		base, withRef = r1.OpsPerSecond, r2.OpsPerSecond
	}
	b.ReportMetric(1-withRef/base, "refresh_loss_frac")
}

// BenchmarkEngineSimulation measures the simulator's functional execution
// throughput per design: one full basic-op sweep on an 8K-column subarray
// per iteration.
func BenchmarkEngineSimulation(b *testing.B) {
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 16, Columns: 8192, DualContactRows: 2,
	}
	engines := map[string]engine.Engine{
		"ELP2IM": elpim.MustNew(elpim.DefaultConfig()),
		"Ambit":  ambit.MustNew(ambit.DefaultConfig()),
		"Drisa":  drisa.MustNew(drisa.DefaultConfig()),
	}
	for name, e := range engines {
		b.Run(name, func(b *testing.B) {
			sub := dram.NewSubarray(cfg)
			rng := rand.New(rand.NewSource(1))
			sub.LoadRow(0, randomRow(rng, cfg.Columns))
			sub.LoadRow(1, randomRow(rng, cfg.Columns))
			b.SetBytes(int64(cfg.Columns / 8 * 7)) // bits processed per sweep
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, op := range engine.BasicOps() {
					if err := e.Execute(sub, op, 2, 0, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// benchAcc builds a full-size accelerator for the per-call benchmarks.
func benchAcc(b *testing.B) *Accelerator {
	b.Helper()
	acc, err := New()
	if err != nil {
		b.Fatal(err)
	}
	return acc
}

// BenchmarkOpSchedUncached is the seed-equivalent baseline: every Op
// re-simulates its scheduling profile, because both cost memo layers —
// the process-wide scheduler memo and the accelerator's cost units — are
// cleared before each call.
func BenchmarkOpSchedUncached(b *testing.B) {
	acc := benchAcc(b)
	n := acc.cfg.Module.Columns
	rng := rand.New(rand.NewSource(1))
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	dst := NewBitVector(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetCostMemo(acc)
		if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpSchedCached: the per-call Op with both cost memo layers
// serving every call after the first.
func BenchmarkOpSchedCached(b *testing.B) {
	acc := benchAcc(b)
	n := acc.cfg.Module.Columns
	rng := rand.New(rand.NewSource(1))
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	dst := NewBitVector(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// evalBenchExpr builds a complete binary gate tree of the given depth
// over variables a–h. Leaves cycle through the eight variables and the
// operator cycles &, |, ^ per gate in post order, so sibling subtrees
// are structurally distinct up to depth 4 (15 gates); deeper trees
// repeat subtrees, which CSE shares (depth 5 compiles to 16 gates,
// depth 6 to 26).
func evalBenchExpr(depth int) string {
	leaf, gate := 0, 0
	ops := []string{"&", "|", "^"}
	var build func(d int) string
	build = func(d int) string {
		if d == 0 {
			v := string(rune('a' + leaf%8))
			leaf++
			return v
		}
		l, r := build(d-1), build(d-1)
		op := ops[gate%3]
		gate++
		return "(" + l + " " + op + " " + r + ")"
	}
	return build(depth)
}

// BenchmarkEvalDAG sweeps expression-DAG depth (a depth-d tree has up to
// 2^d-1 gates) through the fused tier, reporting each depth's passes per block
// beside its ns/op: the word loops are bound by memory traffic, so the
// time tracks the pass count, not the gate count. Every call evaluates
// into one reused result vector (EvalExprInto), so the allocator stays
// out of the measurement. bench.sh part 5 turns this sweep into
// BENCH_eval.json.
func BenchmarkEvalDAG(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4, 5, 6} {
		src := evalBenchExpr(depth)
		ce, err := CompileExpr(src)
		if err != nil {
			b.Fatal(err)
		}
		const n = 1 << 20
		rng := rand.New(rand.NewSource(int64(depth)))
		vars := map[string]*BitVector{}
		for _, name := range ce.Vars() {
			vars[name] = RandomBitVector(rng, n)
		}
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			acc, err := New()
			if err != nil {
				b.Fatal(err)
			}
			passes, err := planPasses(acc, ce.plan)
			if err != nil {
				b.Fatal(err)
			}
			out := NewBitVector(n)
			b.SetBytes(n / 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := acc.EvalExprInto(ce, vars, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(passes), "passes")
		})
	}
}
