package elp2im

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ambit"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/sched"
)

// resetCostMemo clears both cost memo layers — the process-wide scheduler
// memo and a's per-row cost units — so a's next cost query re-simulates
// its scheduling profile.
func resetCostMemo(a *Accelerator) {
	sched.ResetCache()
	a.costMu.Lock()
	clear(a.costUnits)
	a.costMu.Unlock()
}

// TestCachedCostEqualsFreshAllDesigns compares every memoized cost — each
// op's three-operand form and the chained AND and OR folds, on every
// design — with the cost recomputed after both memo layers are cleared,
// and with a second accelerator's cost served by the scheduler memo
// alone. It also compares the process-wide scheduler memo against fresh
// simulations of every engine's compiled profile, constrained and
// unconstrained.
func TestCachedCostEqualsFreshAllDesigns(t *testing.T) {
	keys := []costKey{{op: engine.OpAND, chained: true}, {op: engine.OpOR, chained: true}}
	for op := engine.OpNOT; op <= engine.OpCOPY; op++ {
		keys = append(keys, costKey{op: op})
	}
	for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		design := func(c *Config) { c.Design = d }
		acc := newAcc(t, smallModule, design)
		for _, k := range keys {
			var memo [2]Stats
			for pass := range memo { // first fills the memo, second hits it
				st, err := acc.cost(k, 7)
				if err != nil {
					t.Fatal(err)
				}
				memo[pass] = st
			}
			resetCostMemo(acc)
			fresh, err := acc.cost(k, 7)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := newAcc(t, smallModule, design).cost(k, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range []Stats{memo[0], memo[1], shared} {
				if st != fresh {
					t.Fatalf("%v %+v: memoized cost %+v != fresh %+v", d, k, st, fresh)
				}
			}
		}
	}

	// The raw scheduler memo over every engine's compiled sequences.
	tp := DefaultConfig().Timing
	profiles := map[string]func(engine.Op) sched.OpProfile{
		"elpim": func(op engine.Op) sched.OpProfile {
			return sched.ProfileFromSeq(elpim.MustNew(elpim.DefaultConfig()).Seq(op), tp)
		},
		"ambit": func(op engine.Op) sched.OpProfile {
			return sched.ProfileFromSeq(ambit.MustNew(ambit.DefaultConfig()).Seq(op), tp)
		},
		"drisa": func(op engine.Op) sched.OpProfile {
			return sched.ProfileFromSeq(drisa.MustNew(drisa.DefaultConfig()).Seq(op), tp)
		},
	}
	for name, mk := range profiles {
		for op := engine.OpNOT; op <= engine.OpCOPY; op++ {
			p := mk(op)
			for _, constrained := range []bool{false, true} {
				cfg := sched.Config{Banks: 8, Timing: tp, PowerConstrained: constrained}
				want, err := sched.Simulate(p, cfg, 200_000)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sched.CachedSimulate(p, cfg, 200_000)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s %v constrained=%v: cached %+v != fresh %+v",
						name, op, constrained, got, want)
				}
			}
		}
	}
}

// TestSetPowerConstrainedInvalidates: toggling the constraint invalidates
// the per-accelerator cost memo and matches an accelerator built with the
// flag from the start.
func TestSetPowerConstrainedInvalidates(t *testing.T) {
	acc := newAcc(t)
	andKey := costKey{op: engine.OpAND}
	un, err := acc.cost(andKey, 64)
	if err != nil {
		t.Fatal(err)
	}
	acc.SetPowerConstrained(true)
	con, err := acc.cost(andKey, 64)
	if err != nil {
		t.Fatal(err)
	}
	if con.LatencyNS <= un.LatencyNS {
		t.Fatalf("constrained latency %v not above unconstrained %v (stale cache?)",
			con.LatencyNS, un.LatencyNS)
	}
	ref := newAcc(t, func(c *Config) { c.PowerConstrained = true })
	want, err := ref.cost(andKey, 64)
	if err != nil {
		t.Fatal(err)
	}
	if con != want {
		t.Fatalf("post-toggle cost %+v != fresh constrained cost %+v", con, want)
	}
}

// TestFoldNeverPricesAboveGate: the two rules by which expr's Schedule
// lowers AND/OR chains never price a program above the three-operand
// schedule. On every design, for AND and OR, one chained fold, and a
// staging COPY plus one, cost no more latency, energy or wordlines per
// row op than the three-operand op, through the accelerator's own cost
// units.
func TestFoldNeverPricesAboveGate(t *testing.T) {
	for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		acc := newAcc(t, func(c *Config) { c.Design = d })
		cp, err := acc.cost(costKey{op: engine.OpCOPY}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []engine.Op{engine.OpAND, engine.OpOR} {
			gate, err := acc.cost(costKey{op: op}, 1)
			if err != nil {
				t.Fatal(err)
			}
			fold, err := acc.cost(costKey{op: op, chained: true}, 1)
			if err != nil {
				t.Fatal(err)
			}
			staged := cp
			staged.add(fold)
			for name, st := range map[string]Stats{"fold": fold, "COPY + fold": staged} {
				if st.LatencyNS > gate.LatencyNS || st.EnergyNJ > gate.EnergyNJ || st.Wordlines > gate.Wordlines {
					t.Errorf("%v %v: %s costs %.1f ns, %.2f nJ, %d wordlines; the three-operand op %.1f ns, %.2f nJ, %d wordlines",
						d, op, name, st.LatencyNS, st.EnergyNJ, st.Wordlines, gate.LatencyNS, gate.EnergyNJ, gate.Wordlines)
				}
			}
		}
	}
}

// TestChainEvalPricesAsReduce: an Eval of a left- or right-deep AND/OR
// chain of n = 3..8 operands lowers to one COPY and n-1 folds, the steps
// of Reduce over the same vectors, so it returns Reduce's bits and
// struct-equal Stats on every design and both tiers.
func TestChainEvalPricesAsReduce(t *testing.T) {
	for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		design := func(c *Config) { c.Design = d }
		for _, build := range []func(*testing.T, ...func(*Config)) *Accelerator{newAcc, newCmdAcc} {
			acc := build(t, evalDiffModule, design)
			rng := rand.New(rand.NewSource(int64(d)))
			n := 3*acc.cfg.Module.Columns + 17
			for _, op := range []Op{OpAnd, OpOr} {
				sym := map[Op]string{OpAnd: " & ", OpOr: " | "}[op]
				for k := 3; k <= 8; k++ {
					vs := make([]*BitVector, k)
					vars := map[string]*BitVector{}
					for i := range vs {
						vs[i] = RandomBitVector(rng, n)
						vars[fmt.Sprintf("v%d", i)] = vs[i]
					}
					left, right := "v0", fmt.Sprintf("v%d", k-1)
					for i := 1; i < k; i++ {
						left = fmt.Sprintf("(%s%sv%d)", left, sym, i)
						right = fmt.Sprintf("(v%d%s%s)", k-1-i, sym, right)
					}
					want := NewBitVector(n)
					wantSt, err := acc.Reduce(op, want, vs...)
					if err != nil {
						t.Fatal(err)
					}
					for _, src := range []string{left, right} {
						got, st, err := acc.Eval(src, vars)
						if err != nil {
							t.Fatalf("%v %s: %v", d, src, err)
						}
						if !got.Equal(want) {
							t.Fatalf("%v %s: bits differ from Reduce", d, src)
						}
						if st != wantSt {
							t.Fatalf("%v %s: stats %+v, Reduce %+v", d, src, st, wantSt)
						}
					}
				}
			}
		}
	}
}
