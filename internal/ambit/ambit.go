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
	// seqs memoizes the canonical (priced) command sequence per op, and
	// runs the sequence Execute runs; the engine is immutable after New,
	// so the cached (read-only) sequences are shared.
	seqs, runs [engine.OpCOPY + 1]primitive.Seq
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
		e.runs[op] = e.buildRun(op)
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

// Steps over the B-group slots: a copy (AAP through the special decoder,
// oAAP-class, 53 ns), a copy out of a dual-contact row's negated wordline,
// and TRAs over a triple (AP-class, 49 ns), plain or with the majority
// copied into dst.
func copyStep(dst, src int) primitive.Step {
	return primitive.Step{Kind: primitive.OAAP, Src: src, Dst: dst}
}

func notStep(dst, dcc int) primitive.Step {
	return primitive.Step{Kind: primitive.OAAP, Src: dcc, SrcNegated: true, Dst: dst}
}

func traStep(r0, r1, r2 int) primitive.Step {
	return primitive.Step{Kind: primitive.TRAAP, Src: r0, Aux2: r1, Aux3: r2}
}

func traCopyStep(dst, r0, r1, r2 int) primitive.Step {
	return primitive.Step{Kind: primitive.TRAAAP, Src: r0, Aux2: r1, Aux3: r2, Dst: dst}
}

// control returns the control row that turns a TRA into AND (C0, all
// zeros) or into OR (C1, all ones).
func control(op engine.Op) int {
	if op == engine.OpAND || op == engine.OpNAND {
		return slotC0
	}
	return slotC1
}

// build constructs the canonical command sequence for the three-operand
// form C = op(A, B), the one OpStats prices. Every op but XOR and XNOR
// also runs exactly this sequence (see buildRun).
func (e *Engine) build(op engine.Op) primitive.Seq {
	switch op {
	case engine.OpCOPY:
		return primitive.Seq{copyStep(slotC, slotA)}
	case engine.OpNOT:
		return primitive.Seq{copyStep(slotDCC0, slotA), notStep(slotC, slotDCC0)}
	case engine.OpAND, engine.OpOR:
		return primitive.Seq{
			copyStep(slotT0, slotA), copyStep(slotT1, slotB), copyStep(slotT2, control(op)),
			traCopyStep(slotC, slotT0, slotT1, slotT2),
		}
	case engine.OpNAND, engine.OpNOR:
		// The TRA result is routed through DCC0 and copied out negated.
		return primitive.Seq{
			copyStep(slotT0, slotA), copyStep(slotT1, slotB), copyStep(slotT2, control(op)),
			traCopyStep(slotDCC0, slotT0, slotT1, slotT2), notStep(slotC, slotDCC0),
		}
	case engine.OpXOR, engine.OpXNOR:
		// The paper: "an XOR operation requires 7 commands ... ∼363 ns":
		// AAP(A,B8) AAP(B,B9) AAP(C0,B10) AP(B14) AP(B15) AAP(C1,B2)
		// AAP(B12,C), priced as five copies and two TRAs, copies first.
		// It is priced, not run: its B-group addresses B8, B9, B10 and
		// B12 raise two or three rows at once (21 wordlines where the
		// price counts 16), which single-row slots cannot express, so
		// the rows below name each command's main target only.
		// XNOR swaps the control rows: the TRAs give ¬A+B and A+¬B, and
		// the last one ANDs them.
		ctl, fill := slotC0, slotC1
		if op == engine.OpXNOR {
			ctl, fill = slotC1, slotC0
		}
		return primitive.Seq{
			copyStep(slotT0, slotA), copyStep(slotT1, slotB), copyStep(slotT2, ctl),
			copyStep(slotT2, fill), copyStep(slotC, slotT0),
			traStep(slotDCC0, slotT1, slotT2), traStep(slotDCC1, slotT0, slotT3),
		}
	default:
		panic(fmt.Sprintf("ambit: unknown op %v", op))
	}
}

// buildRun constructs the sequence Execute runs for op: the priced one,
// except for XOR and XNOR, whose paper sequence needs multi-row B-group
// addresses. They stage instead through single-row copies — a·¬b into
// T3, ¬a·b into the triple, then OR them — 13 commands for XOR and 14
// for XNOR, raising 25 and 27 activations and 31 and 33 wordlines where
// the price counts 12 and 16 (DESIGN.md §9).
func (e *Engine) buildRun(op engine.Op) primitive.Seq {
	if op != engine.OpXOR && op != engine.OpXNOR {
		return e.seq(op)
	}
	q := primitive.Seq{
		copyStep(slotDCC0, slotB), copyStep(slotT0, slotA), notStep(slotT1, slotDCC0),
		copyStep(slotT2, slotC0), traCopyStep(slotT3, slotT0, slotT1, slotT2), // T3 = a·¬b
		copyStep(slotDCC0, slotA), notStep(slotT0, slotDCC0), copyStep(slotT1, slotB),
		copyStep(slotT2, slotC0), traStep(slotT0, slotT1, slotT2), // triple = ¬a·b
		copyStep(slotT1, slotT3), copyStep(slotT2, slotC1),
	}
	if op == engine.OpXOR {
		return append(q, traCopyStep(slotC, slotT0, slotT1, slotT2))
	}
	return append(q, traCopyStep(slotDCC1, slotT0, slotT1, slotT2), notStep(slotC, slotDCC1))
}

// Seq returns the canonical command sequence for op (for scheduling
// profiles and inspection).
func (e *Engine) Seq(op engine.Op) primitive.Seq { return e.seq(op) }

// ChainSeq returns the canonical per-element command sequence of the
// chained form acc = acc op A. With ≥6 reserved rows the accumulator stays
// resident in the B-group (the triple T1,T2,T3 with the accumulator in
// T3): copy A → T1; copy the control row → T2; TRA. With only 4 rows the
// accumulator must be copied in each iteration — the full 4-command op.
func (e *Engine) ChainSeq(op engine.Op) (primitive.Seq, error) {
	if op != engine.OpAND && op != engine.OpOR {
		return nil, fmt.Errorf("ambit: no chained form for %v", op)
	}
	if e.cfg.ReservedRows >= 6 {
		return primitive.Seq{
			copyStep(slotT1, slotA), copyStep(slotT2, control(op)),
			traStep(slotT1, slotT2, slotT3),
		}, nil
	}
	return e.seq(op), nil
}

// NotChainSeq returns the sequence folding the complement of an operand
// into a B-group-resident accumulator: acc = acc op ¬A. The operand is
// staged through DCC0 for negation, then a TRA folds it: copy A → DCC0;
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
		copyStep(slotDCC0, slotA), notStep(slotT1, slotDCC0), copyStep(slotT2, control(op)),
		traStep(slotT1, slotT2, slotT3),
	}, nil
}

// OpStats implements engine.Engine.
func (e *Engine) OpStats(op engine.Op) engine.Stats {
	return engine.SeqStats(e.seq(op), e.cfg.Timing, e.cfg.Power)
}

// ChainStats implements engine.Engine: the cost of folding one more
// operand into a resident accumulator (acc = acc op v, ChainSeq), the
// inner loop of the Bitmap and BitWeaving case studies.
func (e *Engine) ChainStats(op engine.Op) (engine.Stats, error) {
	q, err := e.ChainSeq(op)
	if err != nil {
		return engine.Stats{}, err
	}
	return engine.SeqStats(q, e.cfg.Timing, e.cfg.Power), nil
}

// CanHoldIntermediate reports whether the B-group has spare rows to keep
// an expression intermediate resident across operations (the 10-row
// configuration's advantage in Figure 13).
func (e *Engine) CanHoldIntermediate() bool { return e.cfg.ReservedRows >= 10 }

// FusedChainSeq returns the per-element command sequence that folds one
// operand into TWO resident accumulators at once — the 10-row B-group's
// advantage: the operand staging copy is paid once for both reductions
// (copy A → T1; copy control → T2; TRA into triple A (T1,T2,T3); copy
// control → S0; TRA into triple B (T0,S0,S1), S0 and S1 being the two
// spare rows). Smaller B-groups cannot host two accumulator triples. It
// is priced, not run: the one operand copy stands for a multi-row
// B-group address that also stages the operand in T0.
func (e *Engine) FusedChainSeq(op engine.Op) (primitive.Seq, error) {
	if op != engine.OpAND && op != engine.OpOR {
		return nil, fmt.Errorf("ambit: no chained form for %v", op)
	}
	if !e.CanHoldIntermediate() {
		return nil, fmt.Errorf("ambit: %d reserved rows cannot host two accumulator triples", e.cfg.ReservedRows)
	}
	return primitive.Seq{
		copyStep(slotT1, slotA), copyStep(slotT2, control(op)), traStep(slotT1, slotT2, slotT3),
		copyStep(slotS0, control(op)), traStep(slotT0, slotS0, slotS1),
	}, nil
}
