// Package ambit implements the Ambit baseline (Seshadri et al., MICRO'17)
// at the fidelity the ELP2IM paper compares against: triple-row-activation
// (TRA) bitwise operations staged through a reserved B-group of rows served
// by a special multi-row decoder.
//
// The standard B-group holds (Figure 9): four designated rows T0–T3 for
// TRA, two dual-contact-cell rows DCC0/DCC1 (occupying four physical rows)
// for NOT, and two control rows C0 (all zeros) and C1 (all ones) — eight
// physical rows in total. The Figure 13 sensitivity study varies the
// reserved count: 4 rows (T0–T2 + C0; AND/OR only, no accumulator
// residency), 6 rows (adds T3 + C1; an accumulator can stay resident in
// the B-group, saving one copy per chained op), 8 (the full group), and
// 10 (two spare rows that let one intermediate stay resident across
// expressions).
package ambit

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// Config parameterizes the Ambit baseline.
type Config struct {
	// Timing is the DRAM timing parameter set.
	Timing timing.Params
	// Power is the DRAM energy parameter set.
	Power power.Params
	// ReservedRows is the B-group size: 4, 6, 8 or 10.
	ReservedRows int
}

// DefaultConfig returns the canonical 8-row B-group at DDR3-1600.
func DefaultConfig() Config {
	return Config{
		Timing:       timing.DDR31600(),
		Power:        power.DDR31600(),
		ReservedRows: 8,
	}
}

// Engine is the Ambit design.
type Engine struct {
	cfg Config
	// seqs memoizes the canonical command sequence per op; the engine is
	// immutable after New, so the cached (read-only) sequences are shared.
	seqs [engine.OpCOPY + 1]primitive.Seq
	// obs holds the pre-resolved per-op observability series (process
	// global by default; Instrument re-points it).
	obs *engine.ObsSeries
}

// The design implements the whole engine contract.
var _ engine.Engine = (*Engine)(nil)

// New returns an engine for cfg.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Timing.Validate(); err != nil {
		return nil, fmt.Errorf("ambit: %w", err)
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, fmt.Errorf("ambit: %w", err)
	}
	switch cfg.ReservedRows {
	case 4, 6, 8, 10:
	default:
		return nil, errors.New("ambit: ReservedRows must be 4, 6, 8 or 10")
	}
	e := &Engine{cfg: cfg}
	for op := engine.OpNOT; op <= engine.OpCOPY; op++ {
		e.seqs[op] = e.build(op)
	}
	e.obs = engine.NewObsSeries(nil, e.Name())
	return e, nil
}

// Instrument re-points the engine's observability series at ctx (the
// accelerator-local context when owned by a facade Accelerator).
func (e *Engine) Instrument(ctx *obs.Context) {
	e.obs = engine.NewObsSeries(ctx, e.Name())
}

// MustNew returns New's engine and panics on configuration errors.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Name implements engine.Engine; the Figure legends use the reserved-row
// count as a suffix for the sensitivity variants.
func (e *Engine) Name() string {
	if e.cfg.ReservedRows == 8 {
		return "Ambit"
	}
	return fmt.Sprintf("Ambit_%d", e.cfg.ReservedRows)
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// ReservedRows implements engine.Engine.
func (e *Engine) ReservedRows() int { return e.cfg.ReservedRows }

// AreaOverheadPercent implements engine.Engine. The B-group's
// half-density region plus the special row decoder; ELP2IM's total array
// overhead is 22% less than this (§5.2).
func (e *Engine) AreaOverheadPercent() float64 {
	return 1.8 * float64(e.cfg.ReservedRows) / 8
}

// BackgroundFactor implements engine.Engine: no standby logic added.
func (e *Engine) BackgroundFactor() float64 { return 1.0 }

// CompoundOverheadFactor is 1: AAP/TRA sequences can be merged and
// reordered by the memory controller.
func (e *Engine) CompoundOverheadFactor() float64 { return 1.0 }

// Supports reports whether the operation is implementable with the
// configured B-group: without the dual-contact rows (4- and 6-row
// configurations) the complement-based ops are unavailable.
func (e *Engine) Supports(op engine.Op) bool {
	switch op {
	case engine.OpCOPY, engine.OpAND, engine.OpOR:
		return true
	case engine.OpNOT, engine.OpNAND, engine.OpNOR, engine.OpXOR, engine.OpXNOR:
		return e.cfg.ReservedRows >= 8
	default:
		return false
	}
}

// seq returns the memoized canonical command sequence for the
// three-operand form (read-only).
func (e *Engine) seq(op engine.Op) primitive.Seq {
	if op >= 0 && int(op) < len(e.seqs) && e.seqs[op] != nil {
		return e.seqs[op]
	}
	return e.build(op)
}

// build constructs the canonical command sequence for the three-operand
// form. All copies into/out of the B-group use the special decoder and
// overlap (oAAP-class, 53 ns); the TRA command itself is AP-class (49 ns).
func (e *Engine) build(op engine.Op) primitive.Seq {
	oaap := func() primitive.Step { return primitive.Step{Kind: primitive.OAAP} }
	switch op {
	case engine.OpCOPY:
		return primitive.Seq{oaap()}
	case engine.OpNOT:
		// AAP(A→DCC0); AAP(~DCC0→C)
		return primitive.Seq{oaap(), oaap()}
	case engine.OpAND, engine.OpOR:
		// AAP(A→T0); AAP(B→T1); AAP(C0/1→T2); TRA-AAP([C],T0,T1,T2)
		return primitive.Seq{oaap(), oaap(), oaap(), {Kind: primitive.TRAAAP}}
	case engine.OpNAND, engine.OpNOR:
		// The TRA result is routed through DCC0 and copied out negated.
		return primitive.Seq{oaap(), oaap(), oaap(), {Kind: primitive.TRAAAP}, oaap()}
	case engine.OpXOR, engine.OpXNOR:
		// The paper: "an XOR operation requires 7 commands ... ∼363 ns":
		// five AAPs and two TRAs.
		return primitive.Seq{oaap(), oaap(), oaap(), oaap(), oaap(),
			{Kind: primitive.TRAAP}, {Kind: primitive.TRAAP}}
	default:
		panic(fmt.Sprintf("ambit: unknown op %v", op))
	}
}

// Seq returns the canonical command sequence for op (for scheduling
// profiles and inspection).
func (e *Engine) Seq(op engine.Op) primitive.Seq { return e.seq(op) }

// ChainSeq returns the canonical per-element command sequence of the
// chained (accumulator-resident) form.
func (e *Engine) ChainSeq(op engine.Op) (primitive.Seq, error) {
	if op != engine.OpAND && op != engine.OpOR {
		return nil, fmt.Errorf("ambit: no chained form for %v", op)
	}
	if e.cfg.ReservedRows >= 6 {
		return primitive.Seq{
			{Kind: primitive.OAAP},
			{Kind: primitive.OAAP},
			{Kind: primitive.TRAAP},
		}, nil
	}
	return e.seq(op), nil
}

// NotChainSeq returns the sequence folding the complement of an operand
// into a B-group-resident accumulator: acc = acc op ¬src. The operand is
// staged through DCC0 for negation, then a TRA folds it: copy src → DCC0;
// copy ¬DCC0 → T1; copy control → T2; TRA with the accumulator triple.
// Requires the dual-contact rows (≥8 reserved).
func (e *Engine) NotChainSeq(op engine.Op) (primitive.Seq, error) {
	if op != engine.OpAND && op != engine.OpOR {
		return nil, fmt.Errorf("ambit: no complement-fold for %v", op)
	}
	if e.cfg.ReservedRows < 8 {
		return nil, fmt.Errorf("ambit: complement fold needs the dual-contact rows (have %d reserved)", e.cfg.ReservedRows)
	}
	return primitive.Seq{
		{Kind: primitive.OAAP},
		{Kind: primitive.OAAP},
		{Kind: primitive.OAAP},
		{Kind: primitive.TRAAP},
	}, nil
}

// OpStats implements engine.Engine.
func (e *Engine) OpStats(op engine.Op) engine.Stats {
	q := e.seq(op)
	return engine.Stats{
		LatencyNS:            q.Duration(e.cfg.Timing),
		EnergyNJ:             q.Energy(e.cfg.Power),
		Commands:             len(q),
		ActivateEvents:       q.ActivateEvents(),
		Wordlines:            q.Wordlines(),
		MaxWordlinesPerEvent: q.MaxWordlinesPerEvent(),
	}
}

// ChainStats implements engine.Engine: the cost of folding one more
// operand into a resident accumulator (acc = acc op v), the inner loop of
// the Bitmap and BitWeaving case studies.
//
// With ≥6 reserved rows the accumulator stays resident in the B-group
// (triple T1,T2,T3 with the accumulator surviving in T3):
// AAP(v→T1); AAP(C→T2); TRA — 3 commands. With only 4 rows the
// accumulator must be copied in each iteration — the full 4-command op.
func (e *Engine) ChainStats(op engine.Op) (engine.Stats, error) {
	q, err := e.ChainSeq(op)
	if err != nil {
		return engine.Stats{}, err
	}
	return engine.Stats{
		LatencyNS:            q.Duration(e.cfg.Timing),
		EnergyNJ:             q.Energy(e.cfg.Power),
		Commands:             len(q),
		ActivateEvents:       q.ActivateEvents(),
		Wordlines:            q.Wordlines(),
		MaxWordlinesPerEvent: q.MaxWordlinesPerEvent(),
	}, nil
}

// CanHoldIntermediate reports whether the B-group has spare rows to keep
// an expression intermediate resident across operations (the 10-row
// configuration's advantage in Figure 13).
func (e *Engine) CanHoldIntermediate() bool { return e.cfg.ReservedRows >= 10 }

// FusedChainSeq returns the per-element command sequence that folds one
// operand into TWO resident accumulators at once — the 10-row B-group's
// advantage: the operand staging copy is paid once for both reductions
// (copy operand → T1; copy control → T2; TRA into triple A; copy control →
// T2'; TRA into triple B). Smaller B-groups cannot host two accumulator
// triples.
func (e *Engine) FusedChainSeq(op engine.Op) (primitive.Seq, error) {
	if op != engine.OpAND && op != engine.OpOR {
		return nil, fmt.Errorf("ambit: no chained form for %v", op)
	}
	if !e.CanHoldIntermediate() {
		return nil, fmt.Errorf("ambit: %d reserved rows cannot host two accumulator triples", e.cfg.ReservedRows)
	}
	return primitive.Seq{
		{Kind: primitive.OAAP}, // operand → T1 (shared by both triples)
		{Kind: primitive.OAAP}, // control row → T2
		{Kind: primitive.TRAAP},
		{Kind: primitive.OAAP}, // control row → T2'
		{Kind: primitive.TRAAP},
	}, nil
}
