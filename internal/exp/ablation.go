package exp

import (
	"fmt"
	"io"

	"repro/internal/analog"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/timing"
)

// Ablation isolates each ELP2IM design choice (beyond the paper).
type Ablation struct {
	Variants []Series          // (a) per configuration: AND, XOR and XNOR latency (ns), XOR wordlines
	Modes    []Series          // (b) per mode, AND on 8 constrained banks: latency (ns), effective banks, ops/s
	Strategy []StrategyError   // (c) pseudo-precharge strategies under random PV
	Refresh  [2]float64        // (d) throughput lost to refresh, and tRFC/tREFI, as fractions
	Ratios   []StrategyCorrect // (e) worst-case two-cycle OR across Cb/Cc
	DDR4     []Series          // (f) per op: latency (ns) on DDR3-1600, then DDR4-2400
}

// StrategyError is each pseudo-precharge strategy's error rate at one σ.
type StrategyError struct{ Sigma, Regular, Complementary float64 }

// StrategyCorrect is whether each strategy gets the OR right at one Cb/Cc.
type StrategyCorrect struct {
	Ratio                  float64
	Regular, Complementary bool
}

// RunAblation computes the ablations.
func RunAblation() (Ablation, error) {
	var a Ablation
	variant := func(name string, mutate func(*elpim.Config)) {
		e := elpimWith(mutate)
		a.Variants = append(a.Variants, Series{name, []float64{e.OpStats(engine.OpAND).LatencyNS,
			e.OpStats(engine.OpXOR).LatencyNS, e.OpStats(engine.OpXNOR).LatencyNS, float64(e.OpStats(engine.OpXOR).Wordlines)}})
	}
	variant("full (paper default)", nil)
	variant("- isolation transistor (no oAPP, §4.2.1)", noIsolation)
	variant("- restore truncation (no tAPP, §4.2.2)", noTruncation)
	variant("- both §4.2 optimizations", noOptimizations)
	variant("+ second reserved row (§4.2.3)", twoRows)
	variant("high-throughput mode (Fig 5(b))", func(c *elpim.Config) { c.Mode = elpim.HighThroughput })

	tp := timing.DDR31600()
	for _, mode := range []elpim.Mode{elpim.ReducedLatency, elpim.HighThroughput} {
		p := sched.ProfileFromSeq(elpimWith(func(c *elpim.Config) { c.Mode = mode }).Compile(engine.OpAND), tp)
		res, err := sched.Simulate(p, sched.Config{Banks: 8, Timing: tp, PowerConstrained: true}, 300_000)
		if err != nil {
			return a, err
		}
		a.Modes = append(a.Modes, Series{mode.String(), []float64{p.LatencyNS, res.EffectiveBanks, res.OpsPerSecond}})
	}

	c := analog.Default()
	for _, sigma := range []float64{0.08, 0.12, 0.16} {
		a.Strategy = append(a.Strategy, StrategyError{sigma,
			analog.ErrorRate(c, analog.DeviceELP2IM, analog.VariationRandom, sigma, mcTrials, mcSeed),
			analog.ErrorRate(c, analog.DeviceELP2IMComplementary, analog.VariationRandom, sigma, mcTrials, mcSeed)})
	}

	p := sched.ProfileFromSeq(elpimWith(nil).Compile(engine.OpAND), tp)
	var rate [2]float64 // without, then with refresh
	for i := range rate {
		res, err := sched.Simulate(p, sched.Config{Banks: 8, Timing: tp, ModelRefresh: i == 1}, 300_000)
		if err != nil {
			return a, err
		}
		rate[i] = res.OpsPerSecond
	}
	a.Refresh = [2]float64{1 - rate[1]/rate[0], tp.RefreshOverhead()}

	for _, ratio := range []float64{0.5, 0.8, 1.0, 1.2, 2.0, 3.0} {
		cc := c
		cc.Cb = cc.Cc * ratio
		a.Ratios = append(a.Ratios, StrategyCorrect{ratio,
			analog.TwoCycleCorrect(cc, analog.TwoCycleOR, analog.StrategyRegular, true, false),
			analog.TwoCycleCorrect(cc, analog.TwoCycleOR, analog.StrategyComplementary, true, false)})
	}

	ddr3, ddr4 := elpimWith(nil), elpimWith(func(c *elpim.Config) { c.Timing = timing.DDR42400() })
	for _, op := range []engine.Op{engine.OpAND, engine.OpOR, engine.OpXOR} {
		a.DDR4 = append(a.DDR4, Series{op.String(), []float64{ddr3.OpStats(op).LatencyNS, ddr4.OpStats(op).LatencyNS}})
	}
	return a, nil
}

// WriteText implements Result.
func (a Ablation) WriteText(w io.Writer) {
	fmt.Fprintln(w, "(a) primitive-level optimizations — per-op latency (ns) and wordlines")
	fmt.Fprintf(w, "%-42s %9s %9s %9s %7s\n", "variant", "AND", "XOR", "XNOR", "XOR-WL")
	for _, v := range a.Variants {
		fmt.Fprintf(w, "%-42s %9.1f %9.1f %9.1f %7.0f\n", v.Name, v.Values[0], v.Values[1], v.Values[2], v.Values[3])
	}

	fmt.Fprintln(w, "\n(b) execution-mode ablation under the power constraint (AND, 8 banks)")
	for _, m := range a.Modes {
		fmt.Fprintf(w, "%-22s latency %6.1f ns  eff-banks %5.2f  module rate %6.2f Mop/s\n",
			m.Name, m.Values[0], m.Values[1], m.Values[2]/1e6)
	}

	fmt.Fprintln(w, "\n(c) pseudo-precharge strategy ablation — error rate at sigma, random PV")
	for _, s := range a.Strategy {
		fmt.Fprintf(w, "sigma %4.0f%%: regular %9.2e  complementary %9.2e\n", s.Sigma*100, s.Regular, s.Complementary)
	}

	fmt.Fprintln(w, "\n(d) refresh tax (extension; not modeled in the paper)")
	fmt.Fprintf(w, "throughput loss to refresh: %.1f%% (tRFC/tREFI = %.1f%%)\n",
		a.Refresh[0]*100, a.Refresh[1]*100)

	fmt.Fprintln(w, "\n(e) Cb/Cc ratio sweep — worst-case two-cycle OR correctness per strategy (§4.1)")
	fmt.Fprintf(w, "%10s %12s %16s\n", "Cb/Cc", "regular", "complementary")
	for _, r := range a.Ratios {
		fmt.Fprintf(w, "%10.1f %12v %16v\n", r.Ratio, r.Regular, r.Complementary)
	}
	fmt.Fprintln(w, "(regular needs Cb > Cc; the complementary strategy is ratio-independent)")

	fmt.Fprintln(w, "\n(f) DDR4-2400 portability (§6.2: \"other type of DRAM is also compatible\")")
	fmt.Fprintf(w, "%-8s %14s %14s\n", "op", "DDR3-1600(ns)", "DDR4-2400(ns)")
	for _, s := range a.DDR4 {
		fmt.Fprintf(w, "%-8s %14.1f %14.1f\n", s.Name, s.Values[0], s.Values[1])
	}
}
