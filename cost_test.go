package elp2im

import (
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
