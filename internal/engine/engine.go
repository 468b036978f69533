// Package engine defines the common abstraction all three reproduced
// in-DRAM bitwise designs (ELP2IM, Ambit, DRISA-NOR) implement: a compiler
// from logic operations to command costs, and a functional executor that
// performs the operation on the dram device model.
package engine

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// Op is a bulk bitwise logic operation over full DRAM rows.
type Op int

// The operation set of Figure 12.
const (
	OpNOT Op = iota
	OpAND
	OpOR
	OpNAND
	OpNOR
	OpXOR
	OpXNOR
	// OpCOPY is a row copy (RowClone); it is the staging building block
	// of the case studies.
	OpCOPY
)

// BasicOps lists the seven logic operations of Figure 12, in display order.
func BasicOps() []Op {
	return []Op{OpNOT, OpAND, OpOR, OpNAND, OpNOR, OpXOR, OpXNOR}
}

// String returns the operation mnemonic.
func (o Op) String() string {
	switch o {
	case OpNOT:
		return "NOT"
	case OpAND:
		return "AND"
	case OpOR:
		return "OR"
	case OpNAND:
		return "NAND"
	case OpNOR:
		return "NOR"
	case OpXOR:
		return "XOR"
	case OpXNOR:
		return "XNOR"
	case OpCOPY:
		return "COPY"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Unary reports whether the operation takes a single operand.
func (o Op) Unary() bool { return o == OpNOT || o == OpCOPY }

// Golden computes the operation on host bit-vectors — the correctness
// oracle for every engine. For unary ops b is ignored and may be nil.
func (o Op) Golden(dst, a, b *bitvec.Vector) {
	switch o {
	case OpNOT:
		dst.Not(a)
	case OpCOPY:
		dst.CopyFrom(a)
	case OpAND:
		dst.And(a, b)
	case OpOR:
		dst.Or(a, b)
	case OpNAND:
		dst.Nand(a, b)
	case OpNOR:
		dst.Nor(a, b)
	case OpXOR:
		dst.Xor(a, b)
	case OpXNOR:
		dst.Xnor(a, b)
	default:
		panic(fmt.Sprintf("engine: unknown op %d", int(o)))
	}
}

// Stats is the cost of one row-wide operation (or an aggregate of many).
type Stats struct {
	// LatencyNS is the command-sequence latency in ns.
	LatencyNS float64
	// EnergyNJ is the dynamic energy in nJ (background energy is a
	// function of latency and is added at reporting time).
	EnergyNJ float64
	// Commands is the number of DRAM command primitives issued.
	Commands int
	// ActivateEvents is the number of activation events (tFAW units are
	// per-event wordline counts).
	ActivateEvents int
	// Wordlines is the total number of wordlines raised.
	Wordlines int
	// MaxWordlinesPerEvent is the peak simultaneous wordline count of any
	// single activation (3 whenever a TRA is involved).
	MaxWordlinesPerEvent int
}

// SeqStats is the cost of one run of a command sequence under the timing
// and power parameters: what ELP2IM and Ambit price every sequence by.
func SeqStats(q primitive.Seq, tp timing.Params, pp power.Params) Stats {
	return Stats{
		LatencyNS:            q.Duration(tp),
		EnergyNJ:             q.Energy(pp),
		Commands:             len(q),
		ActivateEvents:       q.ActivateEvents(),
		Wordlines:            q.Wordlines(),
		MaxWordlinesPerEvent: q.MaxWordlinesPerEvent(),
	}
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.LatencyNS += other.LatencyNS
	s.EnergyNJ += other.EnergyNJ
	s.Commands += other.Commands
	s.ActivateEvents += other.ActivateEvents
	s.Wordlines += other.Wordlines
	if other.MaxWordlinesPerEvent > s.MaxWordlinesPerEvent {
		s.MaxWordlinesPerEvent = other.MaxWordlinesPerEvent
	}
}

// Scale returns s with the additive fields multiplied by n (for n
// identical row operations).
func (s Stats) Scale(n int) Stats {
	return Stats{
		LatencyNS:            s.LatencyNS * float64(n),
		EnergyNJ:             s.EnergyNJ * float64(n),
		Commands:             s.Commands * n,
		ActivateEvents:       s.ActivateEvents * n,
		Wordlines:            s.Wordlines * n,
		MaxWordlinesPerEvent: s.MaxWordlinesPerEvent,
	}
}

// OperandConsumer is implemented by engines whose command sequence for
// some operation destroys the A-operand row (ELP2IM's two-buffer
// XOR/XNOR land an in-place partial product there). Executors that must
// preserve a still-live operand re-stage it into a scratch row before
// issuing the consuming operation.
type OperandConsumer interface {
	// ConsumesOperandA reports whether executing op destroys row a.
	ConsumesOperandA(op Op) bool
}

// Executor is the functional command-level execution surface: everything
// that can perform dst = op(a, b) on a subarray of the device model. The
// engines implement it, as do the wrappers in internal/fault; the kernel
// prober, expression programs and case-study predicates run on it.
type Executor interface {
	// Execute performs the operation functionally on a subarray:
	// dst = op(a, b) at row granularity (b ignored for unary ops).
	// Data rows other than dst (and any reserved rows) are preserved
	// unless the engine documents otherwise.
	Execute(sub *dram.Subarray, op Op, dst, a, b int) error
}

// Engine is one in-DRAM bitwise design: the whole surface ELP2IM, Ambit
// and DRISA-NOR share. Capabilities only some designs have stay separate
// optional interfaces (OperandConsumer here; reserved data rows, in-place
// execution and fused scans where they are used).
type Engine interface {
	Executor
	// Name returns the design name as used in the paper's figures.
	Name() string
	// OpStats returns the canonical cost of one three-operand
	// (C = f(A,B)) row-wide operation.
	OpStats(op Op) Stats
	// Seq returns the canonical command sequence of the three-operand op,
	// the scheduler's and the power model's activation profile.
	Seq(op Op) primitive.Seq
	// ChainStats returns the cost of folding one more operand into a
	// resident accumulator (acc = acc op v) — ELP2IM's in-place APP-AP,
	// Ambit's B-group-resident TRA, DRISA's latched accumulator — the
	// inner loop of the Bitmap and BitWeaving case studies. It errors for
	// operations without a chained form.
	ChainStats(op Op) (Stats, error)
	// ChainSeq returns the command sequence of one chained fold.
	ChainSeq(op Op) (primitive.Seq, error)
	// NotChainSeq returns the command sequence folding the complement of
	// an operand into a resident accumulator (acc = acc op ¬src).
	NotChainSeq(op Op) (primitive.Seq, error)
	// ReservedRows is the number of subarray rows the design reserves
	// (Figure 13(c)/14(c)).
	ReservedRows() int
	// AreaOverheadPercent is the array area overhead versus commodity
	// DRAM (§5.2: ELP2IM < Ambit; DRISA 24%).
	AreaOverheadPercent() float64
	// BackgroundFactor scales the module background power (DRISA > 1).
	BackgroundFactor() float64
	// CompoundOverheadFactor scales compound-expression command sequences
	// for designs whose pipelines cannot merge commands (DRISA: > 1).
	CompoundOverheadFactor() float64
	// Instrument re-points the design's observability series (see
	// ObsSeries) at ctx, the accelerator-local context when a facade
	// Accelerator owns the engine.
	Instrument(ctx *obs.Context)
}
