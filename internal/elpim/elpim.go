// Package elpim implements the paper's contribution: the ELP2IM engine,
// which performs bulk bitwise operations in DRAM using the pseudo-precharge
// states of the sense amplifier.
//
// The engine compiles each logic operation into a primitive sequence
// (§3.3 and Figure 8), executes the sequence bit-accurately on the
// functional DRAM model, and reports canonical latency/energy/activation
// statistics from the timing and power models.
//
// Row roles inside a subarray follow Figure 8(b): operand rows A and B and
// destination row C live in the regular data region; R0 (and optionally R1)
// are reserved dual-contact rows at the bottom of the array with a separate
// wordline driver, which is what lets oAAP overlap a data-row activate with
// a reserved-row activate.
package elpim

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// Mode selects the execution strategy of §3.3.
type Mode int

const (
	// ReducedLatency uses oAAP-APP-oAAP class sequences, exploiting the
	// reserved dual-contact row's separate wordline driver to overlap
	// activations. It is the latency-optimal mode.
	ReducedLatency Mode = iota
	// HighThroughput uses AAP-APP-AP class sequences within one decoder
	// domain, raising fewer wordlines per op — the mode of choice when
	// bank-level parallelism is limited by the power constraint.
	HighThroughput
)

// String returns the mode name.
func (m Mode) String() string {
	if m == HighThroughput {
		return "high-throughput"
	}
	return "reduced-latency"
}

// Row slots of the compiled sequences: the indices of the per-call row
// table Execute binds them through (see primitive.Step).
const (
	SlotA  = iota // first operand row
	SlotB         // second operand row
	SlotC         // destination row
	SlotR0        // first reserved dual-contact row
	SlotR1        // second reserved dual-contact row (2-buffer config only)
	numSlots
)

// SlotNames returns the names of the row slots, indexed by slot, as
// controller programs and Seq.Format write them.
func SlotNames() []string { return []string{"A", "B", "C", "R0", "R1"} }

// Config parameterizes an ELP2IM engine.
type Config struct {
	// Timing is the DRAM timing parameter set.
	Timing timing.Params
	// Power is the DRAM energy parameter set.
	Power power.Params
	// Mode selects reduced-latency or high-throughput sequences.
	Mode Mode
	// ReservedRows is 1 (default, Figure 8 sequence 5) or 2 (sequence 6,
	// used in the CNN accelerator case studies).
	ReservedRows int
	// UseIsolation enables the row-buffer-decoupling isolation transistor
	// (§4.2.1): APP steps become oAPP. Disabling it is the ablation of the
	// oAPP optimization.
	UseIsolation bool
	// UseRestoreTruncation enables tAPP/otAPP for dead intermediates
	// (§4.2.2). Disabling it is the ablation of the tAPP optimization.
	UseRestoreTruncation bool
}

// DefaultConfig returns the paper's standard configuration: DDR3-1600,
// reduced-latency mode, one reserved row, both §4.2 optimizations on.
func DefaultConfig() Config {
	return Config{
		Timing:               timing.DDR31600(),
		Power:                power.DDR31600(),
		Mode:                 ReducedLatency,
		ReservedRows:         1,
		UseIsolation:         true,
		UseRestoreTruncation: true,
	}
}

// Engine is the ELP2IM design.
type Engine struct {
	cfg Config
	// seqs memoizes the compiled sequence of every operation: the engine
	// is immutable after New, so each op compiles exactly once and every
	// later Compile/Seq call is a table lookup. The cached sequences are
	// shared — callers must treat them as read-only.
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
		return nil, fmt.Errorf("elpim: %w", err)
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, fmt.Errorf("elpim: %w", err)
	}
	if cfg.ReservedRows != 1 && cfg.ReservedRows != 2 {
		return nil, errors.New("elpim: ReservedRows must be 1 or 2")
	}
	e := &Engine{cfg: cfg}
	for op := engine.OpNOT; op <= engine.OpCOPY; op++ {
		e.seqs[op] = e.compile(op)
	}
	e.obs = engine.NewObsSeries(nil, e.Name())
	return e, nil
}

// Instrument re-points the engine's observability series at ctx (the
// accelerator-local context when owned by a facade Accelerator).
func (e *Engine) Instrument(ctx *obs.Context) {
	e.obs = engine.NewObsSeries(ctx, e.Name())
}

// MustNew returns a New engine and panics on configuration errors.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "ELP2IM" }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// ConsumesOperandA implements engine.OperandConsumer: the two-buffer
// XOR/XNOR sequences (Figure 8 sequences 6/7) compute a partial product
// in place in operand A's row, destroying it.
func (e *Engine) ConsumesOperandA(op engine.Op) bool {
	return e.cfg.ReservedRows >= 2 && (op == engine.OpXOR || op == engine.OpXNOR)
}

// ReservedRows implements engine.Engine (Figure 13(c)/14(c): 1 row, or 2
// in the accelerator configuration).
func (e *Engine) ReservedRows() int { return e.cfg.ReservedRows }

// AreaOverheadPercent implements engine.Engine. §5.2: one reserved
// dual-contact row, split-EQ metal change, and the ~0.8% isolation
// transistor; in total 22% less than Ambit's B-group overhead.
func (e *Engine) AreaOverheadPercent() float64 {
	base := 0.4 + 0.2*float64(e.cfg.ReservedRows) // reserved DCC rows + EQ split
	if e.cfg.UseIsolation {
		base += 0.8 // isolation transistor per bitline, from [31]
	}
	return base
}

// BackgroundFactor implements engine.Engine: ELP2IM adds no standby logic.
func (e *Engine) BackgroundFactor() float64 { return 1.0 }

// CompoundOverheadFactor is 1: the six primitive types make compound
// command sequences freely optimizable (§6.3.3: "it contains 6 different
// primitives, which makes the optimization quite flexible").
func (e *Engine) CompoundOverheadFactor() float64 { return 1.0 }

// app returns the engine's APP-class primitive after applying the
// isolation-transistor optimization.
func (e *Engine) app() primitive.Kind {
	if e.cfg.UseIsolation {
		return primitive.OAPP
	}
	return primitive.APP
}

// tapp returns the trimmed APP-class primitive for dead intermediates.
func (e *Engine) tapp() primitive.Kind {
	switch {
	case e.cfg.UseRestoreTruncation && e.cfg.UseIsolation:
		return primitive.OTAPP
	case e.cfg.UseRestoreTruncation:
		return primitive.TAPP
	default:
		return e.app()
	}
}

// appMerged returns the merged copy + pseudo-precharge primitive of
// Figure 8 sequence 6 (two activations: the read plus the overlapped
// reserved-row copy, then the supply shift).
func (e *Engine) appMerged() primitive.Kind {
	if e.cfg.UseIsolation && e.cfg.Mode != HighThroughput {
		return primitive.OAPPM
	}
	return primitive.APPM
}

// copyPrim returns the row-copy primitive for the current mode: oAAP
// across decoder domains in reduced-latency mode, full AAP within one
// domain in high-throughput mode.
func (e *Engine) copyPrim() primitive.Kind {
	if e.cfg.Mode == HighThroughput {
		return primitive.AAP
	}
	return primitive.OAAP
}

// Compile returns the primitive sequence implementing the three-operand
// form C = op(A, B) (B unused for unary ops). The sequences are the §3.3 /
// Figure 8 constructions; see doc.go for the step-by-step dataflow.
// The returned sequence is memoized and must be treated as read-only.
func (e *Engine) Compile(op engine.Op) primitive.Seq {
	if op >= 0 && int(op) < len(e.seqs) && e.seqs[op] != nil {
		return e.seqs[op]
	}
	return e.compile(op)
}

// compile builds the sequence afresh (the memo's producer).
func (e *Engine) compile(op engine.Op) primitive.Seq {
	cp := e.copyPrim()
	app := e.app()
	// In high-throughput mode the pseudo primitives are never overlapped
	// (no isolation transistor in the conservative power mode).
	if e.cfg.Mode == HighThroughput {
		app = primitive.APP
	}
	tapp := e.tapp()
	if e.cfg.Mode == HighThroughput && tapp == primitive.OTAPP {
		tapp = primitive.TAPP
	}

	switch op {
	case engine.OpCOPY:
		return primitive.Seq{
			{Kind: cp, Src: SlotA, Dst: SlotC},
		}

	case engine.OpNOT:
		// Through the dual-contact reserved row: copy A in, read the
		// complement out (same mechanism as Ambit's NOT).
		return primitive.Seq{
			{Kind: cp, Src: SlotA, Dst: SlotR0},
			{Kind: cp, Src: SlotR0, SrcNegated: true, Dst: SlotC},
		}

	case engine.OpAND, engine.OpOR:
		retainZeros := op == engine.OpAND
		if e.cfg.Mode == HighThroughput {
			// Figure 5(b): AAP(B→C); APP(A); AP(C) — one decoder domain.
			return primitive.Seq{
				{Kind: primitive.AAP, Src: SlotB, Dst: SlotC},
				{Kind: app, Src: SlotA, RetainZeros: retainZeros},
				{Kind: primitive.AP, Src: SlotC},
			}
		}
		// Figure 5(c): oAAP(B→R0); APP(A); oAAP(R0→C). The third
		// primitive's first activate computes the op in place in R0; the
		// overlapped second activate copies the result to C.
		return primitive.Seq{
			{Kind: cp, Src: SlotB, Dst: SlotR0},
			{Kind: primitive.APP, Src: SlotA, RetainZeros: retainZeros},
			{Kind: cp, Src: SlotR0, Dst: SlotC},
		}

	case engine.OpNAND, engine.OpNOR:
		// Compute the AND/OR in place in the dual-contact reserved row,
		// then copy the complement out.
		retainZeros := op == engine.OpNAND
		return primitive.Seq{
			{Kind: cp, Src: SlotB, Dst: SlotR0},
			{Kind: app, Src: SlotA, RetainZeros: retainZeros},
			{Kind: primitive.AP, Src: SlotR0},
			{Kind: cp, Src: SlotR0, SrcNegated: true, Dst: SlotC},
		}

	case engine.OpXOR:
		if e.cfg.ReservedRows >= 2 {
			return e.xorTwoBuffers(cp, app, e.appMerged(), tapp)
		}
		return e.xorOneBuffer(cp, app, tapp)

	case engine.OpXNOR:
		if e.cfg.ReservedRows >= 2 {
			return e.xnorTwoBuffers(cp, app, e.appMerged(), tapp)
		}
		return e.xnorOneBuffer(cp, app, tapp)

	default:
		panic(fmt.Sprintf("elpim: unknown op %v", op))
	}
}

// xorOneBuffer is Figure 8 sequence 5 (~346 ns): C = A·¬B + ¬A·B with one
// reserved dual-contact row.
func (e *Engine) xorOneBuffer(cp, app, tapp primitive.Kind) primitive.Seq {
	return primitive.Seq{
		// C = A·¬B
		{Kind: cp, Src: SlotB, Dst: SlotR0},                   // R0 = B
		{Kind: app, Src: SlotA, RetainZeros: true},            // retain A's zeros
		{Kind: cp, Src: SlotR0, SrcNegated: true, Dst: SlotC}, // C = A·¬B (R0 dead)
		// pseudo-regulate ¬A·B, then OR into C
		{Kind: cp, Src: SlotA, Dst: SlotR0},                             // R0 = A
		{Kind: app, Src: SlotB, RetainZeros: true},                      // retain B's zeros
		{Kind: tapp, Src: SlotR0, SrcNegated: true, RetainZeros: false}, // regulate ¬A·B (retain ones)
		{Kind: primitive.AP, Src: SlotC},                                // C = A·¬B + ¬A·B
	}
}

// xorTwoBuffers is Figure 8 sequence 6 (~297 ns): the second buffer lets
// the copy of B merge with its pseudo-precharge access, dropping one
// primitive. The sequence consumes operand A's row (the in-place partial
// product lands there); callers that must preserve A re-stage it first.
func (e *Engine) xorTwoBuffers(cp, app, merged, tapp primitive.Kind) primitive.Seq {
	return primitive.Seq{
		{Kind: cp, Src: SlotA, Dst: SlotR0},                           // R0 = A
		{Kind: merged, Src: SlotB, Dst: SlotR1, RetainZeros: true},    // R1 = B, retain B's zeros (merged copy)
		{Kind: cp, Src: SlotR0, SrcNegated: true, Dst: SlotC},         // C = ¬A·B (R0 dead)
		{Kind: app, Src: SlotR1, SrcNegated: true, RetainZeros: true}, // retain ¬B's zeros
		{Kind: tapp, Src: SlotA, RetainZeros: false},                  // A = A·¬B in place, regulate (retain ones)
		{Kind: primitive.AP, Src: SlotC},                              // C = ¬A·B + A·¬B
	}
}

// xnorOneBuffer computes C = ¬(A+B) + A·B with one reserved row (~396 ns).
func (e *Engine) xnorOneBuffer(cp, app, tapp primitive.Kind) primitive.Seq {
	return primitive.Seq{
		// C = ¬(A+B)
		{Kind: cp, Src: SlotA, Dst: SlotR0},                   // R0 = A
		{Kind: app, Src: SlotB, RetainZeros: false},           // retain B's ones
		{Kind: primitive.AP, Src: SlotR0},                     // R0 = A+B in place
		{Kind: cp, Src: SlotR0, SrcNegated: true, Dst: SlotC}, // C = ¬(A+B)
		// regulate A·B, then OR into C
		{Kind: cp, Src: SlotA, Dst: SlotR0},           // R0 = A
		{Kind: app, Src: SlotB, RetainZeros: true},    // retain B's zeros
		{Kind: tapp, Src: SlotR0, RetainZeros: false}, // regulate A·B (retain ones)
		{Kind: primitive.AP, Src: SlotC},              // C = ¬(A+B) + A·B
	}
}

// xnorTwoBuffers computes C = ¬(A+B) + A·B with two reserved rows
// (~347 ns). Like sequence 6, it consumes operand A's row.
func (e *Engine) xnorTwoBuffers(cp, app, merged, tapp primitive.Kind) primitive.Seq {
	return primitive.Seq{
		{Kind: cp, Src: SlotA, Dst: SlotR0},                         // R0 = A
		{Kind: merged, Src: SlotB, Dst: SlotR1, RetainZeros: false}, // R1 = B, retain B's ones
		{Kind: primitive.AP, Src: SlotR0},                           // R0 = A+B
		{Kind: cp, Src: SlotR0, SrcNegated: true, Dst: SlotC},       // C = ¬(A+B)
		{Kind: app, Src: SlotR1, RetainZeros: true},                 // retain B's zeros
		{Kind: tapp, Src: SlotA, RetainZeros: false},                // A = A·B in place, regulate
		{Kind: primitive.AP, Src: SlotC},                            // C = ¬(A+B) + A·B
	}
}

// InPlaceSeq returns the APP-AP sequence of Figure 5(a) for the in-place
// form B = op(A, B): read A with an APP, then the destination's activate
// either overwrites or senses. Only AND and OR have in-place forms.
func (e *Engine) InPlaceSeq(op engine.Op) (primitive.Seq, error) {
	if op != engine.OpAND && op != engine.OpOR {
		return nil, fmt.Errorf("elpim: no in-place sequence for %v", op)
	}
	app := e.app()
	if e.cfg.Mode == HighThroughput {
		app = primitive.APP
	}
	return primitive.Seq{
		{Kind: app, Src: SlotA, RetainZeros: op == engine.OpAND},
		{Kind: primitive.AP, Src: SlotB},
	}, nil
}

// OpStats implements engine.Engine: cost of one three-operand row op.
func (e *Engine) OpStats(op engine.Op) engine.Stats {
	return engine.SeqStats(e.Compile(op), e.cfg.Timing, e.cfg.Power)
}

// InPlaceStats returns the cost of the in-place B = op(A,B) form.
func (e *Engine) InPlaceStats(op engine.Op) (engine.Stats, error) {
	q, err := e.InPlaceSeq(op)
	if err != nil {
		return engine.Stats{}, err
	}
	return engine.SeqStats(q, e.cfg.Timing, e.cfg.Power), nil
}

// ChainStats implements engine.Engine: ELP2IM folds an operand into a
// resident accumulator with the in-place APP-AP form of Figure 5(a) —
// two commands, two single-wordline activations.
func (e *Engine) ChainStats(op engine.Op) (engine.Stats, error) {
	return e.InPlaceStats(op)
}

// NotChainSeq returns the sequence folding the COMPLEMENT of an operand
// into a resident accumulator: acc = acc op ¬src. The operand is staged
// into the dual-contact reserved row, the APP reads it back negated while
// regulating the bitlines, and the accumulator's activate completes the
// fold in place — one copy plus the in-place pair (the compile the
// BitWeaving predicate's eq &= ¬a_i step uses).
func (e *Engine) NotChainSeq(op engine.Op) (primitive.Seq, error) {
	if op != engine.OpAND && op != engine.OpOR {
		return nil, fmt.Errorf("elpim: no complement-fold for %v", op)
	}
	app := e.app()
	if e.cfg.Mode == HighThroughput {
		app = primitive.APP
	}
	return primitive.Seq{
		{Kind: e.copyPrim(), Src: SlotA, Dst: SlotR0},
		{Kind: app, Src: SlotR0, SrcNegated: true, RetainZeros: op == engine.OpAND},
		{Kind: primitive.AP, Src: SlotB},
	}, nil
}

// Seq returns the compiled three-operand sequence for op (alias of Compile
// for scheduling profiles).
func (e *Engine) Seq(op engine.Op) primitive.Seq { return e.Compile(op) }

// ChainSeq returns the per-element sequence of the chained in-place form.
func (e *Engine) ChainSeq(op engine.Op) (primitive.Seq, error) {
	return e.InPlaceSeq(op)
}
