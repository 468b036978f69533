package elp2im

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/plan"
	"repro/internal/vertical"
)

// planPasses sums the pass counts of p's fused cluster kernels on acc:
// the word loops the fused tier runs per block of an eval of p.
func planPasses(acc *Accelerator, p *plan.Plan) (int, error) {
	n := 0
	for i := range p.Clusters {
		f, err := acc.fused.Fused(p.Clusters[i].Spec)
		if err != nil {
			return 0, err
		}
		n += f.Passes()
	}
	return n, nil
}

// arithPasses sums planPasses over a µProgram's steps.
func arithPasses(acc *Accelerator, ca *CompiledArith) (int, error) {
	n := 0
	for i := range ca.prog.Steps {
		m, err := planPasses(acc, ca.prog.Steps[i].Plan)
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, nil
}

// arithWireOps and arithWireWidths are the operations and element
// widths of the µPrograms perfbench's arith_wire workload serves.
var (
	arithWireOps    = []ArithOp{ArithAdd, ArithSub, ArithLt, ArithEq, ArithPopcount, ArithSelect}
	arithWireWidths = []int{8, 16, 32}
)

// fig13Predicates returns Fig 13's queries over the last 2–8 of eight
// weekly bitmaps w0–w7, in the form the query_json workload sends them:
// Q1 is the left-deep AND of the weeks, Q2 ANDs the gender bitmap g
// onto Q1.
func fig13Predicates() []string {
	var preds []string
	for weeks := 2; weeks <= 8; weeks++ {
		q1 := fmt.Sprintf("w%d", 8-weeks)
		for i := 9 - weeks; i < 8; i++ {
			q1 = fmt.Sprintf("(%s & w%d)", q1, i)
		}
		preds = append(preds, q1, "(g & "+q1+")")
	}
	return preds
}

// adhocPredicates are the 12 most frequent ad-hoc predicates of
// query_json's mix at seed 13 — 25.6% of its requests — with the passes
// each packs to.
var adhocPredicates = []struct {
	src    string
	passes int
}{
	{"((~w5 & w1) | g)", 2},
	{"(((w2 | g) ^ w3) & w4)", 2},
	{"((w0 | w1) ^ ((w5 ^ w4) & g))", 2},
	{"(~w3 | ((w2 & w1) & (w4 ^ (g | w5))))", 3},
	{"(w6 | ((w3 ^ w5) & g))", 2},
	{"((w5 | w1) ^ g)", 1},
	{"(((~w3 | w2) ^ w6) & (w0 & w5))", 2},
	{"(((w7 ^ (w4 | w5)) | (w0 & w1)) ^ w6)", 3},
	{"((w0 ^ w3) & w4)", 1},
	{"(~w6 ^ (w1 | (w2 & w3)))", 2},
	{"(((~w6 ^ w7) & w1) | ((w5 & w4) | w2))", 3},
	{"((((g ^ w0) & w1) | w7) & (w5 ^ w2))", 2},
}

// TestPassCounts pins how the fused tier packs the served traffic, by
// count: the total passes of arith_wire's 18 µPrograms, of Fig 13's 14
// predicates (query_json's fixed half), of the ad-hoc half's 12 most
// frequent predicates, and of each BenchmarkEvalDAG depth. A pass is
// one word loop over a block, so these totals are the host work of the
// fused tier, deterministic and free of timing noise.
// It also pins the modeled DRAM latency and energy of the 18 µPrograms
// over arith_wire's 1 Mi elements on the default module, so a dearer
// µProgram fails here and not only in a benchmark run.
func TestPassCounts(t *testing.T) {
	acc := newAcc(t)
	arith, stripes := 0, acc.stripes(benchElems)
	var cost Stats
	for _, op := range arithWireOps {
		for _, w := range arithWireWidths {
			ca, err := CompileArith(op, w)
			if err != nil {
				t.Fatal(err)
			}
			n, err := arithPasses(acc, ca)
			if err != nil {
				t.Fatalf("%s/%d: %v", op, w, err)
			}
			pr := acc.getRunner(false, "", "")
			for i := range ca.prog.Steps {
				pr.step(ca.prog.Steps[i].Plan, nil)
			}
			st, err := pr.price(stripes)
			acc.putRunner(pr)
			if err != nil {
				t.Fatalf("%s/%d: %v", op, w, err)
			}
			t.Logf("%s/%d: %d passes, %.0f modeled ns", op, w, n, st.LatencyNS)
			arith += n
			cost.add(st)
		}
	}
	if arith != 792 {
		t.Errorf("arith_wire µPrograms take %d passes, want 792", arith)
	}
	if ns, nj := math.Round(cost.LatencyNS), math.Round(cost.EnergyNJ); ns != 4093802 || nj != 2769615 {
		t.Errorf("arith_wire µPrograms model %.0f ns and %.0f nJ, want 4093802 ns and 2769615 nJ", ns, nj)
	}

	preds := fig13Predicates()
	if len(preds) != 14 {
		t.Fatalf("%d Fig 13 predicates, want 14", len(preds))
	}
	fig13 := 0
	for _, src := range preds {
		ce, err := CompileExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		n, err := planPasses(acc, ce.plan)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		fig13 += n
	}
	if fig13 != 28 {
		t.Errorf("Fig 13 predicates take %d passes, want 28", fig13)
	}

	adhoc := 0
	for _, pred := range adhocPredicates {
		ce, err := CompileExpr(pred.src)
		if err != nil {
			t.Fatal(err)
		}
		n, err := planPasses(acc, ce.plan)
		if err != nil {
			t.Fatalf("%s: %v", pred.src, err)
		}
		if n != pred.passes {
			t.Errorf("ad-hoc predicate %s takes %d passes, want %d", pred.src, n, pred.passes)
		}
		adhoc += n
	}
	if adhoc != 25 {
		t.Errorf("ad-hoc predicates take %d passes, want 25", adhoc)
	}

	for depth, want := range []int{1: 1, 2: 1, 3: 4, 4: 5, 5: 6, 6: 12} {
		if depth == 0 {
			continue
		}
		ce, err := CompileExpr(evalBenchExpr(depth))
		if err != nil {
			t.Fatal(err)
		}
		n, err := planPasses(acc, ce.plan)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if n != want {
			t.Errorf("BenchmarkEvalDAG depth %d takes %d passes, want %d", depth, n, want)
		}
	}
}

// TestArithClustersDerive checks that every cluster of every arith
// µProgram at widths 1–64 derives a fused kernel on all three designs
// (and ELP2IM's high-throughput sequences), so the fused tier serves
// every arith step on a word-aligned module without falling back.
func TestArithClustersDerive(t *testing.T) {
	configs := map[string]func(*Config){
		"elp2im":         func(c *Config) { c.Design = DesignELP2IM },
		"elp2im/highthr": func(c *Config) { c.Design, c.HighThroughputMode = DesignELP2IM, true },
		"ambit":          func(c *Config) { c.Design = DesignAmbit },
		"drisa":          func(c *Config) { c.Design = DesignDrisaNOR },
	}
	accs := map[string]*Accelerator{}
	for name, cfg := range configs {
		accs[name] = newAcc(t, cfg)
	}
	clusters := 0
	for op := ArithOp(0); int(op) < vertical.NumOps; op++ {
		for w := 1; w <= 64; w++ {
			ca, err := CompileArith(op, w)
			if err != nil {
				t.Fatal(err)
			}
			for si := range ca.prog.Steps {
				p := ca.prog.Steps[si].Plan
				for ci := range p.Clusters {
					clusters++
					for name, acc := range accs {
						if _, err := acc.fused.Fused(p.Clusters[ci].Spec); err != nil {
							t.Fatalf("%s: %s/%d step %d cluster %d does not derive: %v", name, op, w, si, ci, err)
						}
					}
				}
			}
		}
	}
	t.Logf("%d clusters derived on %d configurations", clusters, len(accs))
}
