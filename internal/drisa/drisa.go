// Package drisa implements the Drisa_nor baseline (Li et al., MICRO'17,
// the 1T1C-NOR variant): a DRAM whose subarrays embed a NOR gate and a
// result latch next to the sense amplifiers. Every logic operation is
// decomposed into NOR compute cycles; the final latch value is driven back
// into the destination row by one more cycle.
//
// DRISA needs no reserved rows, but pays ~24% array area and a
// substantially higher background power for the in-array gates and latches
// (§2.2.3, §6.2 of the ELP2IM paper).
package drisa

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// Config parameterizes the DRISA baseline.
type Config struct {
	// Timing is the DRAM timing parameter set.
	Timing timing.Params
	// Power is the DRAM energy parameter set.
	Power power.Params
}

// DefaultConfig returns the DDR3-1600 configuration.
func DefaultConfig() Config {
	return Config{Timing: timing.DDR31600(), Power: power.DDR31600()}
}

// Engine is the Drisa_nor design.
type Engine struct {
	cfg Config
	// seqs memoizes the per-op NOR-cycle sequences; the engine is
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
		return nil, fmt.Errorf("drisa: %w", err)
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, fmt.Errorf("drisa: %w", err)
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

// Name implements engine.Engine.
func (e *Engine) Name() string { return "Drisa_nor" }

// ReservedRows implements engine.Engine: the latches replace reserved rows.
func (e *Engine) ReservedRows() int { return 0 }

// AreaOverheadPercent implements engine.Engine: "even for the simplest NOR
// based design, it still increases 24% area overhead".
func (e *Engine) AreaOverheadPercent() float64 { return 24 }

// BackgroundFactor implements engine.Engine: the embedded gates and
// latches "greatly increase background power".
func (e *Engine) BackgroundFactor() float64 { return e.cfg.Power.DrisaBackgroundFactor }

// CompoundOverheadFactor implements the cross-op inefficiency of the fixed
// NOR pipeline: in compound expressions (adder chains, reduction trees)
// every intermediate must be routed through the result latch to the next
// gate's operand rows, and the single gate type admits no cross-command
// merging — §6.3.3: "Drisa_nor is neither faster than Ambit in basic
// operations nor flexible in the optimization of command sequence".
func (e *Engine) CompoundOverheadFactor() float64 { return 1.35 }

// Cycles returns the number of NOR compute cycles the operation decomposes
// into, including the final latch-to-row drive. See the decompositions in
// exec.go; the counts are what make DRISA fastest on NOR/NOT and slowest
// on AND-class ops ("excepting the NOR operation", §6.2).
func (e *Engine) Cycles(op engine.Op) int {
	switch op {
	case engine.OpCOPY:
		return 1
	case engine.OpNOT, engine.OpNOR:
		return 2
	case engine.OpOR:
		return 3
	case engine.OpAND:
		return 4
	case engine.OpNAND:
		return 5
	case engine.OpXOR:
		return 6
	case engine.OpXNOR:
		return 7
	default:
		panic(fmt.Sprintf("drisa: unknown op %v", op))
	}
}

// cycleStats is the cost of one NOR compute cycle.
func (e *Engine) cycleStats() engine.Stats {
	k := primitive.NORCYCLE
	return engine.Stats{
		LatencyNS:            k.Duration(e.cfg.Timing),
		EnergyNJ:             k.Energy(e.cfg.Power),
		Commands:             1,
		ActivateEvents:       k.ActivateEvents(),
		Wordlines:            k.Wordlines(),
		MaxWordlinesPerEvent: 1,
	}
}

// OpStats implements engine.Engine.
func (e *Engine) OpStats(op engine.Op) engine.Stats {
	return e.cycleStats().Scale(e.Cycles(op))
}

// Seq returns the operation as a memoized (read-only) sequence of NOR
// compute cycles, for scheduling profiles.
func (e *Engine) Seq(op engine.Op) primitive.Seq {
	if op >= 0 && int(op) < len(e.seqs) && e.seqs[op] != nil {
		return e.seqs[op]
	}
	return e.build(op)
}

// build constructs the NOR-cycle sequence for op.
func (e *Engine) build(op engine.Op) primitive.Seq {
	q := make(primitive.Seq, e.Cycles(op))
	for i := range q {
		q[i] = primitive.Step{Kind: primitive.NORCYCLE}
	}
	return q
}

// NotChainSeq returns the cycles folding a complement into the resident
// accumulator: acc AND ¬src = NOR(¬acc, src) — 3 cycles including the
// accumulator complement; acc OR ¬src = ¬NOR(¬src... = NOT src, NOR,
// NOT — also 3 cycles.
func (e *Engine) NotChainSeq(op engine.Op) (primitive.Seq, error) {
	if op != engine.OpAND && op != engine.OpOR {
		return nil, fmt.Errorf("drisa: no complement-fold for %v", op)
	}
	q := make(primitive.Seq, 3)
	for i := range q {
		q[i] = primitive.Step{Kind: primitive.NORCYCLE}
	}
	return q, nil
}

// ChainSeq returns the per-element NOR cycles of the chained form.
func (e *Engine) ChainSeq(op engine.Op) (primitive.Seq, error) {
	st, err := e.ChainStats(op)
	if err != nil {
		return nil, err
	}
	q := make(primitive.Seq, st.Commands)
	for i := range q {
		q[i] = primitive.Step{Kind: primitive.NORCYCLE}
	}
	return q, nil
}

// ChainStats implements engine.Engine: with the accumulator resident in
// the compute region, AND costs three cycles per folded operand
// (¬acc, ¬v, NOR) and OR two (NOR, ¬).
func (e *Engine) ChainStats(op engine.Op) (engine.Stats, error) {
	switch op {
	case engine.OpAND:
		return e.cycleStats().Scale(3), nil
	case engine.OpOR:
		return e.cycleStats().Scale(2), nil
	default:
		return engine.Stats{}, fmt.Errorf("drisa: no chained form for %v", op)
	}
}

// Execute implements engine.Engine. The dram package models a commodity
// array without in-array gates, so the functional path emulates each NOR
// cycle (two row reads through the gate, one latch-driven row write) while
// the canonical statistics come from OpStats. Scratch intermediates live
// in the subarray's top rows; dst/a/b must not collide with the top four
// rows.
func (e *Engine) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	start := e.obs.Start()
	err := e.execute(sub, op, dst, a, b)
	e.obs.Record(op, e.OpStats(op), start, err)
	return err
}

// The executor's four scratch rows are the top scratchRows data rows of
// every subarray, and it refuses a subarray of fewer than minDataRows
// rows.
const (
	scratchRows = 4
	minDataRows = 8
)

// ReservedDataRows reports the data rows the functional executor keeps
// for itself: the four scratch rows at the top, which callers must leave
// free of operands, and the 8-row minimum Execute enforces.
func (e *Engine) ReservedDataRows() (top, minRows int) { return scratchRows, minDataRows }

// execute is Execute's uninstrumented body.
func (e *Engine) execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	n := sub.Rows()
	if n < minDataRows {
		return fmt.Errorf("drisa: subarray has %d rows; need at least %d", n, minDataRows)
	}
	s0, s1, s2, s3 := n-1, n-2, n-3, n-4

	// The gate result is written straight into the target row: the
	// word-wise bitvec ops are single-pass and the decompositions below
	// never alias a cycle's target with its operands, so no per-cycle
	// scratch vector (and no allocation) is needed.
	nor := func(into, x, y int) {
		sub.Activations += 2 // both operand rows are opened through the gate
		sub.Wordlines += 2
		sub.RowData(into).Nor(sub.RowData(x), sub.RowData(y))
	}
	move := func(into, x int) {
		sub.Activations += 2
		sub.Wordlines += 2
		sub.RowData(into).CopyFrom(sub.RowData(x))
	}

	switch op {
	case engine.OpCOPY:
		move(dst, a)
	case engine.OpNOT:
		nor(s0, a, a)
		move(dst, s0)
	case engine.OpNOR:
		nor(s0, a, b)
		move(dst, s0)
	case engine.OpOR:
		nor(s0, a, b)
		nor(s1, s0, s0)
		move(dst, s1)
	case engine.OpAND:
		nor(s0, a, a)
		nor(s1, b, b)
		nor(s2, s0, s1)
		move(dst, s2)
	case engine.OpNAND:
		nor(s0, a, a)
		nor(s1, b, b)
		nor(s2, s0, s1)
		nor(s3, s2, s2)
		move(dst, s3)
	case engine.OpXOR:
		nor(s0, a, a)   // ¬a
		nor(s1, b, b)   // ¬b
		nor(s2, a, b)   // ¬a·¬b
		nor(s3, s0, s1) // a·b
		nor(s0, s2, s3) // ¬(¬a¬b + ab) = xor
		move(dst, s0)
	case engine.OpXNOR:
		nor(s0, a, a)
		nor(s1, b, b)
		nor(s2, a, b)
		nor(s3, s0, s1)
		nor(s0, s2, s3)
		nor(s1, s0, s0) // ¬xor
		move(dst, s1)
	default:
		return fmt.Errorf("drisa: unknown op %v", op)
	}
	return nil
}
