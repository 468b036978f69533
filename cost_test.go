package elp2im

import (
	"testing"

	"repro/internal/ambit"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/sched"
)

// TestCachedCostEqualsFreshAllDesigns compares the memoized cost path
// against a cache-disabled accelerator for every (design, op) pair, and
// the process-wide scheduler memo against fresh simulations of every
// engine's compiled profile, constrained and unconstrained.
func TestCachedCostEqualsFreshAllDesigns(t *testing.T) {
	allOps := []Op{OpNot, OpAnd, OpOr, OpNand, OpNor, OpXor, OpXnor, OpCopy}
	for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		cached := newAcc(t, smallModule, func(c *Config) { c.Design = d })
		fresh := newAcc(t, smallModule, func(c *Config) {
			c.Design = d
			c.DisableSchedCache = true
		})
		for _, op := range allOps {
			iop := op.internal()
			for pass := 0; pass < 2; pass++ { // first fills the memo, second hits it
				cs, err := cached.opCost(iop, 7)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := fresh.opCost(iop, 7)
				if err != nil {
					t.Fatal(err)
				}
				if cs != fs {
					t.Fatalf("%v %v pass %d: cached cost %+v != fresh %+v", d, op, pass, cs, fs)
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
	un, err := acc.opCost(engine.OpAND, 64)
	if err != nil {
		t.Fatal(err)
	}
	acc.SetPowerConstrained(true)
	con, err := acc.opCost(engine.OpAND, 64)
	if err != nil {
		t.Fatal(err)
	}
	if con.LatencyNS <= un.LatencyNS {
		t.Fatalf("constrained latency %v not above unconstrained %v (stale cache?)",
			con.LatencyNS, un.LatencyNS)
	}
	ref := newAcc(t, func(c *Config) { c.PowerConstrained = true })
	want, err := ref.opCost(engine.OpAND, 64)
	if err != nil {
		t.Fatal(err)
	}
	if con != want {
		t.Fatalf("post-toggle cost %+v != fresh constrained cost %+v", con, want)
	}
}
