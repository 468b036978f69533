// Package elp2im is a clean-room reproduction of "ELP2IM: Efficient and
// Low Power Bitwise Operation Processing in DRAM" (Xin, Zhang, Yang;
// HPCA 2020).
//
// It provides a bit-accurate functional model of in-DRAM bulk bitwise
// computing with cycle-level timing and command-level energy accounting,
// for three designs:
//
//   - ELP2IM — the paper's contribution: pseudo-precharge-state logic,
//   - Ambit — the triple-row-activation baseline (MICRO'17),
//   - DRISA-NOR — the in-array-gate baseline (MICRO'17).
//
// The top-level API is the Accelerator: it owns a DRAM module, spreads
// bulk bit-vectors across banks, executes every logic operation through
// the selected design's real command sequences on the device model, and
// reports latency (with or without the charge-pump power constraint),
// energy, and activation statistics.
//
//	acc, err := elp2im.New()                     // ELP2IM on DDR3-1600
//	x := elp2im.NewBitVector(1 << 20)
//	y := elp2im.NewBitVector(1 << 20)
//	dst := elp2im.NewBitVector(1 << 20)
//	stats, err := acc.Op(elp2im.OpAnd, dst, x, y)
//
// The internal packages expose the full substrate: internal/dram (device
// model), internal/analog (charge-sharing circuit model, Monte-Carlo
// reliability), internal/timing and internal/power (DDR3-1600 models),
// internal/elpim, internal/ambit, internal/drisa (the engines), and
// internal/apps/... (the paper's case studies).
package elp2im

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/ambit"
	"repro/internal/bitvec"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/sched"
	"repro/internal/timing"
)

// Op is a bulk bitwise operation.
type Op int

// The supported operations.
const (
	OpNot Op = iota
	OpAnd
	OpOr
	OpNand
	OpNor
	OpXor
	OpXnor
	OpCopy
)

// String returns the operation mnemonic.
func (o Op) String() string { return o.internal().String() }

func (o Op) internal() engine.Op {
	switch o {
	case OpNot:
		return engine.OpNOT
	case OpAnd:
		return engine.OpAND
	case OpOr:
		return engine.OpOR
	case OpNand:
		return engine.OpNAND
	case OpNor:
		return engine.OpNOR
	case OpXor:
		return engine.OpXOR
	case OpXnor:
		return engine.OpXNOR
	case OpCopy:
		return engine.OpCOPY
	default:
		panic(fmt.Sprintf("elp2im: unknown op %d", int(o)))
	}
}

// Unary reports whether the operation takes one operand.
func (o Op) Unary() bool { return o == OpNot || o == OpCopy }

// BitVector is a host-side bulk bit-vector.
type BitVector struct {
	v *bitvec.Vector
}

// NewBitVector returns an all-zero vector of n bits.
func NewBitVector(n int) *BitVector { return &BitVector{v: bitvec.New(n)} }

// RandomBitVector returns a vector with uniformly random contents.
func RandomBitVector(rng *rand.Rand, n int) *BitVector {
	return &BitVector{v: bitvec.Random(rng, n)}
}

// Len returns the length in bits.
func (b *BitVector) Len() int { return b.v.Len() }

// Bit returns bit i.
func (b *BitVector) Bit(i int) bool { return b.v.Bit(i) }

// SetBit sets bit i.
func (b *BitVector) SetBit(i int, val bool) { b.v.SetBit(i, val) }

// Fill sets every bit.
func (b *BitVector) Fill(val bool) { b.v.Fill(val) }

// Popcount returns the number of set bits.
func (b *BitVector) Popcount() int { return b.v.Popcount() }

// Equal reports whether two vectors match in length and contents.
func (b *BitVector) Equal(o *BitVector) bool { return b.v.Equal(o.v) }

// Words exposes the underlying 64-bit words (shared, LSB-first).
func (b *BitVector) Words() []uint64 { return b.v.Words() }

// Design selects which in-DRAM computing design the accelerator models.
type Design int

// The three reproduced designs.
const (
	// DesignELP2IM is the paper's pseudo-precharge design.
	DesignELP2IM Design = iota
	// DesignAmbit is the TRA baseline.
	DesignAmbit
	// DesignDrisaNOR is the in-array NOR-gate baseline.
	DesignDrisaNOR
)

// String returns the design name.
func (d Design) String() string {
	switch d {
	case DesignELP2IM:
		return "ELP2IM"
	case DesignAmbit:
		return "Ambit"
	case DesignDrisaNOR:
		return "Drisa_nor"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// Config parameterizes an Accelerator. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Design selects the in-DRAM computing design.
	Design Design
	// Module is the DRAM geometry.
	Module dram.Config
	// Timing is the DRAM timing parameter set.
	Timing timing.Params
	// Power is the DRAM energy parameter set.
	Power power.Params
	// PowerConstrained enforces the charge-pump/tFAW activation budget
	// when computing latency (bank-level parallelism shrinks).
	PowerConstrained bool
	// Ranks divides the banks into rank groups, each with its own charge
	// pump and tFAW window. Zero means 1. Only affects the constrained
	// latency model.
	Ranks int
	// ReservedRows configures ELP2IM's reserved dual-contact rows (1 or
	// 2) and Ambit's B-group size (4/6/8/10). Zero selects the design
	// default (1 and 8).
	ReservedRows int
	// HighThroughputMode selects ELP2IM's AAP-APP-AP sequences
	// (power-optimal) instead of the overlapped reduced-latency ones.
	HighThroughputMode bool
	// DisableSchedCache turns off the scheduler memoization layer, forcing
	// every operation to re-run the full 200k-ns scheduling simulation the
	// way the pre-pipeline code did. Only useful for benchmarking the
	// memoization win (scripts/bench.sh); cached results are bit-identical
	// to fresh ones.
	DisableSchedCache bool
	// DisableFastpath turns off the compiled word-level kernel fast path,
	// forcing every stripe through the command-accurate device model the
	// way the pre-kernel code did. Kernels are self-derived from the
	// device model (see internal/kernel), so results and modeled costs are
	// bit-identical either way; the knob exists for benchmarking the
	// compiled-execution win and for differential testing.
	DisableFastpath bool
	// DisableFusion turns off expression-DAG fusion, forcing Eval through
	// the node-at-a-time kernel path (one derived kernel per gate) instead
	// of one fused k-input kernel per plan cluster (see internal/plan).
	// Fused kernels are self-derived from the same device model, so
	// results and modeled costs are bit-identical either way; the knob
	// exists for benchmarking the fusion win and for differential testing.
	// DisableFastpath implies it.
	DisableFusion bool
}

// DefaultConfig returns ELP2IM on a DDR3-1600 module with 8 banks.
func DefaultConfig() Config {
	return Config{
		Design: DesignELP2IM,
		Module: dram.Default(),
		Timing: timing.DDR31600(),
		Power:  power.DDR31600(),
	}
}

// Stats reports the cost of one accelerator operation (or an accumulated
// session via Accelerator.Totals).
type Stats struct {
	// LatencyNS is the operation latency in ns, including any power-
	// constraint stalls and bank-level parallelism.
	LatencyNS float64
	// EnergyNJ is the total energy in nJ (dynamic + background).
	EnergyNJ float64
	// AveragePowerW is EnergyNJ / LatencyNS.
	AveragePowerW float64
	// RowOps is the number of row-wide operations executed.
	RowOps int
	// Commands is the number of DRAM command primitives issued.
	Commands int
	// Wordlines is the total number of wordlines raised.
	Wordlines int
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.LatencyNS += o.LatencyNS
	s.EnergyNJ += o.EnergyNJ
	s.RowOps += o.RowOps
	s.Commands += o.Commands
	s.Wordlines += o.Wordlines
	s.AveragePowerW = powerW(s.EnergyNJ, s.LatencyNS)
}

// powerW derives average power from accumulated energy and latency,
// guarding the zero-latency accumulation case (ResetTotals followed by a
// zero-cost operation must report 0 W, never NaN or a stale value).
func powerW(energyNJ, latencyNS float64) float64 {
	if latencyNS <= 0 {
		return 0
	}
	return energyNJ / latencyNS
}

// Accelerator executes bulk bitwise operations on a modeled DRAM module.
// It is safe for concurrent use: the synchronous Op, Reduce and Eval entry
// points, one or more Batches, and any mix of the two may run at the same
// time, as long as concurrently executing operations' vector arguments do
// not overlap. Stripe s of every vector lives in the same modeled subarray,
// so an accelerator-wide lock per subarray serializes the row-state of
// operations that would otherwise collide there (see execLocks); operations
// whose vectors overlap still need external ordering — within one Batch,
// submission order provides it.
type Accelerator struct {
	cfg    Config
	module *dram.Module
	eng    engine.Engine

	// kerns memoizes the compiled word-level kernels self-derived from the
	// engine (one probe per op; see internal/kernel). The fast path
	// dispatches stripes to these kernels directly on the vectors' words;
	// every fallback condition routes through the command-accurate model.
	kerns *kernel.Set

	// fused memoizes the k-input fused kernels self-derived from the
	// engine, keyed by cluster spec (see internal/kernel.FusedSet). The
	// eval fusion tier collapses each plan cluster into one of these.
	fused *kernel.FusedSet

	// execMu guards the functional executor. execr is the engine by
	// default; SetExecutor installs a wrapper (fault injection/detection),
	// which also forces command-level execution so the wrapper keeps
	// seeing real commands.
	execMu  sync.RWMutex
	execr   Executor
	wrapped bool

	// bufPool recycles row-width stripe buffers across forEachStripe
	// calls and Batch tasks on the command-level path.
	bufPool sync.Pool

	// scratchPool recycles the word tiers' per-worker scratch slabs
	// (*[]uint64) across eval and arith calls (see progRunner.lease).
	scratchPool sync.Pool

	// execLocks holds one mutex per serialization group (one per subarray;
	// stripeGroup indexes it). Every execution path — synchronous calls and
	// every Batch's worker pool — takes the group's lock around each stripe
	// operation, so concurrent contexts never interleave LoadRow/Execute/
	// RowData on a shared subarray. Per-stripe granularity is sufficient
	// because each stripe operation reloads its operand rows before
	// executing and stores its result row after.
	execLocks []sync.Mutex

	totalsMu sync.Mutex
	totals   Stats

	// costMu guards the memoized per-row cost units. The cache is keyed by
	// (op, chained) only because everything else it depends on — design,
	// timing, power, geometry, constraint flags — is fixed per accelerator;
	// SetPowerConstrained invalidates it when the one mutable knob changes.
	costMu    sync.Mutex
	costUnits map[costKey]costUnit

	// Observability (see observe.go): the accelerator-local obs context,
	// the pre-resolved per-op-kind series, and the lock/batch counters.
	obsc           *obs.Context
	series         opSeriesSet
	lockAcquire    *obs.Counter
	lockContended  *obs.Counter
	batchSubmitted *obs.Counter
	batchWaits     *obs.Counter
	fastHits       *obs.Counter
	fastFallbacks  *obs.Counter
	fusionHits     *obs.Counter
	fusionFalls    *obs.Counter

	// poolFree recycles drained batch worker pools across Batch
	// lifecycles (bounded by the channel's capacity; see Batch.Close).
	// Without recycling, every short-lived Batch would pay pool
	// construction — worker goroutine spawns plus a channel per worker.
	poolFree chan *pipeline.Pool
}

// costKey identifies one memoized cost unit.
type costKey struct {
	op      engine.Op
	chained bool
}

// costUnit is the stripe-independent part of an operation's cost: the
// per-row engine stats and the scheduler's effective-bank count.
type costUnit struct {
	per   engine.Stats
	banks float64
}

// New returns an accelerator for the configuration (DefaultConfig when
// no mutators are given).
func New(mutators ...func(*Config)) (*Accelerator, error) {
	cfg := DefaultConfig()
	for _, m := range mutators {
		m(&cfg)
	}
	return NewWithConfig(cfg)
}

// NewWithConfig returns an accelerator for an explicit configuration.
func NewWithConfig(cfg Config) (*Accelerator, error) {
	if err := cfg.Module.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, err
	}

	var eng engine.Engine
	switch cfg.Design {
	case DesignELP2IM:
		ecfg := elpim.Config{
			Timing:               cfg.Timing,
			Power:                cfg.Power,
			ReservedRows:         cfg.ReservedRows,
			UseIsolation:         true,
			UseRestoreTruncation: true,
		}
		if ecfg.ReservedRows == 0 {
			ecfg.ReservedRows = 1
		}
		if cfg.HighThroughputMode {
			ecfg.Mode = elpim.HighThroughput
		}
		e, err := elpim.New(ecfg)
		if err != nil {
			return nil, err
		}
		eng = e
		if cfg.Module.DualContactRows < ecfg.ReservedRows {
			cfg.Module.DualContactRows = ecfg.ReservedRows
		}
	case DesignAmbit:
		acfg := ambit.Config{Timing: cfg.Timing, Power: cfg.Power, ReservedRows: cfg.ReservedRows}
		if acfg.ReservedRows == 0 {
			acfg.ReservedRows = 8
		}
		a, err := ambit.New(acfg)
		if err != nil {
			return nil, err
		}
		eng = a
		if cfg.Module.DualContactRows < 2 {
			cfg.Module.DualContactRows = 2
		}
	case DesignDrisaNOR:
		d, err := drisa.New(drisa.Config{Timing: cfg.Timing, Power: cfg.Power})
		if err != nil {
			return nil, err
		}
		eng = d
	default:
		return nil, errors.New("elp2im: unknown design")
	}

	module := dram.NewModule(cfg.Module)
	a := &Accelerator{
		cfg:       cfg,
		module:    module,
		eng:       eng,
		kerns:     kernel.NewSet(eng, cfg.Module),
		fused:     kernel.NewFusedSet(eng, cfg.Module),
		execr:     eng,
		execLocks: make([]sync.Mutex, module.Banks()*module.Bank(0).Subarrays()),
		costUnits: make(map[costKey]costUnit),
		poolFree:  make(chan *pipeline.Pool, poolFreeCap),
	}
	a.initObs()
	return a, nil
}

// Executor is the functional command-level execution surface: everything
// that can perform dst = op(a, b) on a subarray of the device model. The
// engines implement it, as do the wrappers in internal/fault.
type Executor interface {
	Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error
}

// BaseExecutor returns the engine's own command-level executor — the
// inner executor to hand to a wrapper such as fault.New or
// fault.NewDetecting before installing it with SetExecutor.
func (a *Accelerator) BaseExecutor() Executor { return a.eng }

// SetExecutor installs exec as the accelerator's functional executor
// (nil restores the engine). Installing a non-nil wrapper forces every
// operation onto the command-accurate path — wrappers observe and mutate
// real per-command row state, which the compiled kernels bypass — until
// SetExecutor(nil) re-enables the fast path. The swap takes effect for
// operations started after the call; modeled costs are unaffected either
// way.
func (a *Accelerator) SetExecutor(exec Executor) {
	a.execMu.Lock()
	defer a.execMu.Unlock()
	if exec == nil {
		a.execr, a.wrapped = a.eng, false
		return
	}
	a.execr, a.wrapped = exec, true
}

// executor returns the current functional executor and whether it is a
// wrapper (a wrapper disables the fast path).
func (a *Accelerator) executor() (Executor, bool) {
	a.execMu.RLock()
	defer a.execMu.RUnlock()
	return a.execr, a.wrapped
}

// fastKernel returns op's compiled kernel when the fast path is eligible:
// word-aligned rows, no wrapped executor, fast path not disabled, and the
// kernel derivable from the engine. A nil return means "use the
// command-level path" (where unsupported ops also surface their real
// errors).
func (a *Accelerator) fastKernel(op engine.Op, wrapped bool) *kernel.Kernel {
	if a.cfg.DisableFastpath || wrapped || a.cfg.Module.Columns%64 != 0 {
		return nil
	}
	k, err := a.kerns.Kernel(op)
	if err != nil {
		return nil
	}
	return k
}

// getBuf leases a row-width stripe buffer from the pool. Callers must not
// assume it is zeroed — loadStripe overwrites every word.
func (a *Accelerator) getBuf() *bitvec.Vector {
	if v := a.bufPool.Get(); v != nil {
		return v.(*bitvec.Vector)
	}
	return bitvec.New(a.cfg.Module.Columns)
}

// putBuf returns a leased stripe buffer.
func (a *Accelerator) putBuf(v *bitvec.Vector) { a.bufPool.Put(v) }

// getScratch leases a scratch slab of at least words words from the
// pool, replacing a pooled slab that is too small. Callers must not
// assume it is zeroed: every word-tier step writes a slot before reading
// it.
func (a *Accelerator) getScratch(words int) *[]uint64 {
	if s, ok := a.scratchPool.Get().(*[]uint64); ok && len(*s) >= words {
		return s
	}
	s := make([]uint64, words)
	return &s
}

// putScratch returns a leased scratch slab.
func (a *Accelerator) putScratch(s *[]uint64) { a.scratchPool.Put(s) }

// Design returns the modeled design's name.
func (a *Accelerator) Design() string { return a.eng.Name() }

// ReservedRows returns the design's reserved-row count.
func (a *Accelerator) ReservedRows() int { return a.eng.ReservedRows() }

// AreaOverheadPercent returns the design's array area overhead.
func (a *Accelerator) AreaOverheadPercent() float64 { return a.eng.AreaOverheadPercent() }

// Totals returns the accumulated statistics of every operation executed
// on this accelerator. It is safe to call while a batch is running;
// batched operations fold into the totals at Batch.Wait.
func (a *Accelerator) Totals() Stats {
	a.totalsMu.Lock()
	defer a.totalsMu.Unlock()
	return a.totals
}

// ResetTotals clears the accumulated statistics.
func (a *Accelerator) ResetTotals() {
	a.totalsMu.Lock()
	a.totals = Stats{}
	a.totalsMu.Unlock()
}

// addTotals accumulates st into the session totals.
func (a *Accelerator) addTotals(st Stats) {
	a.totalsMu.Lock()
	a.totals.add(st)
	a.totalsMu.Unlock()
}

// SetPowerConstrained toggles the charge-pump/tFAW latency constraint and
// invalidates the memoized cost units (the one configuration knob that can
// change after construction). The process-wide scheduler memo needs no
// invalidation — its keys embed the full configuration.
func (a *Accelerator) SetPowerConstrained(v bool) {
	a.costMu.Lock()
	defer a.costMu.Unlock()
	if a.cfg.PowerConstrained != v {
		a.cfg.PowerConstrained = v
		a.costUnits = make(map[costKey]costUnit)
	}
}

// operand rows inside each working subarray.
const (
	rowA = 0
	rowB = 1
	rowC = 2
)

// validateOp checks an Op call's operands — the one validation shared by
// the synchronous path, Batch.Submit, and the Shard router, so all three
// reject malformed calls with identical errors.
func validateOp(op Op, dst, x, y *BitVector) error {
	if x == nil || dst == nil {
		return errors.New("elp2im: nil vector")
	}
	if !op.Unary() {
		if y == nil {
			return fmt.Errorf("elp2im: %v needs two operands", op)
		}
		if y.Len() != x.Len() {
			return errors.New("elp2im: operand length mismatch")
		}
	}
	if dst.Len() != x.Len() {
		return errors.New("elp2im: destination length mismatch")
	}
	return nil
}

// validateReduce checks a Reduce call's operands (shared exactly like
// validateOp).
func validateReduce(op Op, dst *BitVector, vs []*BitVector) error {
	if op != OpAnd && op != OpOr {
		return fmt.Errorf("elp2im: no reduction for %v", op)
	}
	if len(vs) < 2 {
		return errors.New("elp2im: reduction needs at least two vectors")
	}
	for _, v := range vs {
		if v == nil || v.Len() != dst.Len() {
			return errors.New("elp2im: reduction operand nil or length mismatch")
		}
	}
	return nil
}

// Op executes dst = op(x, y) as a bulk operation: the vectors are split
// into row-wide stripes, spread round-robin across banks, executed
// through the design's real command sequences on the device model, and
// the results read back. For unary ops y may be nil.
func (a *Accelerator) Op(op Op, dst, x, y *BitVector) (Stats, error) {
	iop := op.internal()
	if err := validateOp(op, dst, x, y); err != nil {
		return Stats{}, err
	}

	cols := a.cfg.Module.Columns
	n := x.Len()
	stripes := (n + cols - 1) / cols
	start := a.obsc.SpanStart()

	// Functional execution, stripe by stripe, round-robin over banks;
	// distinct subarrays run concurrently (the simulator's mirror of
	// bank-level parallelism). Word-aligned configurations dispatch each
	// stripe to the compiled kernel directly on the vectors' words; the
	// command-accurate device model remains the fallback.
	var yv *bitvec.Vector
	if y != nil {
		yv = y.v
	}
	ex, wrapped := a.executor()
	var err error
	if k := a.fastKernel(iop, wrapped); k != nil {
		a.fastHits.Inc()
		a.fastForEachRange(stripes, func(lo, hi int) {
			fastOpRange(k, dst.v, x.v, yv, lo, hi, cols)
		})
	} else {
		a.fastFallbacks.Inc()
		err = a.forEachStripe(stripes, func(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
			return a.opStripe(ex, iop, dst.v, x.v, yv, s, sub, buf)
		})
	}
	if err != nil {
		a.opSpan(start, iop, stripes, Stats{}, err)
		return Stats{}, err
	}

	st, err := a.opCost(iop, stripes)
	if err != nil {
		a.opSpan(start, iop, stripes, Stats{}, err)
		return Stats{}, err
	}
	a.addTotals(st)
	a.record(iop, st)
	a.opSpan(start, iop, stripes, st, nil)
	return st, nil
}

// chainProvider is implemented by engines with a cheaper chained
// (accumulator-resident) fold: ELP2IM's in-place APP-AP, Ambit's
// B-group-resident TRA, DRISA's latched accumulator.
type chainProvider interface {
	ChainStats(op engine.Op) (engine.Stats, error)
	ChainSeq(op engine.Op) (primitive.Seq, error)
}

// inPlaceExecutor is implemented by engines whose chained fold executes
// literally in place on the device model (ELP2IM).
type inPlaceExecutor interface {
	ExecuteInPlace(sub *dram.Subarray, op engine.Op, a, b int) error
}

// Reduce folds vs[1:] into an accumulator initialized with vs[0] and
// stores the result in dst: dst = vs[0] op vs[1] op ... Only OpAnd and
// OpOr have chained forms. The fold uses the design's chained sequences
// (ELP2IM: the in-place APP-AP of Figure 5(a)), which is what makes
// reductions the paper's headline workload.
func (a *Accelerator) Reduce(op Op, dst *BitVector, vs ...*BitVector) (Stats, error) {
	if err := validateReduce(op, dst, vs); err != nil {
		return Stats{}, err
	}
	iop := op.internal()
	start := a.obsc.SpanStart()

	var total Stats
	st, err := a.Op(OpCopy, dst, vs[0], nil)
	if err != nil {
		a.reduceSpan(start, iop, 0, Stats{}, err)
		return Stats{}, err
	}
	total.add(st)

	cp, chained := a.eng.(chainProvider)
	ipe, inPlace := a.eng.(inPlaceExecutor)
	ex, wrapped := a.executor()
	k := a.fastKernel(iop, wrapped)
	if k != nil {
		a.fastHits.Inc()
	} else {
		a.fastFallbacks.Inc()
	}

	cols := a.cfg.Module.Columns
	stripes := (dst.Len() + cols - 1) / cols

	if k != nil {
		// Compiled fold: one sweep applies every operand to each stripe of
		// the accumulator in place (each stripe's words stay hot across the
		// whole chain).
		a.fastForEachRange(stripes, func(lo, hi int) {
			for _, v := range vs[1:] {
				fastFoldRange(k, dst.v, v.v, lo, hi, cols)
			}
		})
	}
	for _, v := range vs[1:] {
		// Functional fold on the command-level path, stripe by stripe.
		if k == nil {
			err := a.forEachStripe(stripes, func(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
				return a.foldStripe(ex, iop, ipe, inPlace, dst.v, v.v, s, sub, buf)
			})
			if err != nil {
				a.reduceSpan(start, iop, stripes, Stats{}, err)
				return Stats{}, err
			}
		}
		// Cost of this fold: chained stats where available.
		var st Stats
		var err error
		if chained {
			st, err = a.chainCost(cp, iop, stripes)
		} else {
			st, err = a.opCost(iop, stripes)
		}
		if err != nil {
			a.reduceSpan(start, iop, stripes, Stats{}, err)
			return Stats{}, err
		}
		total.add(st)
		a.addTotals(st)
		a.record(iop, st)
	}
	a.reduceSpan(start, iop, stripes, total, nil)
	return total, nil
}

// schedHorizonNS is the steady-state horizon of the bank-parallelism
// simulation behind every op-cost query.
const schedHorizonNS = 200_000

// simulate runs the scheduler for seq's profile, through the process-wide
// memo unless the configuration disables it.
func (a *Accelerator) simulate(seq primitive.Seq) (sched.Result, error) {
	profile := sched.ProfileFromSeq(seq, a.cfg.Timing)
	cfg := sched.Config{
		Banks:            a.module.Banks(),
		Timing:           a.cfg.Timing,
		PowerConstrained: a.cfg.PowerConstrained,
		Ranks:            a.cfg.Ranks,
	}
	if a.cfg.DisableSchedCache {
		return sched.Simulate(profile, cfg, schedHorizonNS)
	}
	return sched.CachedSimulate(profile, cfg, schedHorizonNS)
}

// chainUnit returns the memoized per-row cost unit of the chained fold.
func (a *Accelerator) chainUnit(cp chainProvider, op engine.Op) (costUnit, error) {
	a.costMu.Lock()
	defer a.costMu.Unlock()
	k := costKey{op: op, chained: true}
	if u, ok := a.costUnits[k]; ok && !a.cfg.DisableSchedCache {
		return u, nil
	}
	per, err := cp.ChainStats(op)
	if err != nil {
		return costUnit{}, err
	}
	seq, err := cp.ChainSeq(op)
	if err != nil {
		return costUnit{}, err
	}
	res, err := a.simulate(seq)
	if err != nil {
		return costUnit{}, err
	}
	banks := res.EffectiveBanks
	if banks <= 0 {
		banks = 1
	}
	u := costUnit{per: per, banks: banks}
	a.costUnits[k] = u
	return u, nil
}

// chainCost computes the scheduled cost of `stripes` chained folds.
func (a *Accelerator) chainCost(cp chainProvider, op engine.Op, stripes int) (Stats, error) {
	u, err := a.chainUnit(cp, op)
	if err != nil {
		return Stats{}, err
	}
	return a.scaleUnit(u, stripes), nil
}

// scaleUnit expands a per-row cost unit to `stripes` row operations.
func (a *Accelerator) scaleUnit(u costUnit, stripes int) Stats {
	latency := float64(stripes) * u.per.LatencyNS / u.banks
	energy := u.per.EnergyNJ*float64(stripes) +
		a.cfg.Power.BackgroundPower*a.eng.BackgroundFactor()*latency
	st := Stats{
		LatencyNS:     latency,
		EnergyNJ:      energy,
		AveragePowerW: powerW(energy, latency),
		RowOps:        stripes,
		Commands:      u.per.Commands * stripes,
		Wordlines:     u.per.Wordlines * stripes,
	}
	return st
}

// stripeCoord is the one place the round-robin stripe placement is
// derived: stripe s lives in bank s mod B, subarray (s div B) mod S of
// that bank. subarrayFor and stripeGroup are both expressed through it so
// the lock-group index can never drift from the physical placement (two
// stripes locking different groups while sharing a subarray's row state
// would silently break the serialization invariant).
func (a *Accelerator) stripeCoord(s int) (bank, sub int) {
	banks := a.module.Banks()
	bank = s % banks
	sub = (s / banks) % a.module.Bank(bank).Subarrays()
	return bank, sub
}

// subarrayFor returns stripe s's home subarray.
func (a *Accelerator) subarrayFor(s int) *dram.Subarray {
	bank, sub := a.stripeCoord(s)
	return a.module.Bank(bank).Subarray(sub)
}

// stripeGroup returns stripe s's serialization-group id: a stable index of
// its home subarray. Every vector's stripe s maps to the same group, so
// FIFO order within a group is exactly the order data dependencies need.
// Non-word-aligned rows collapse to a single group because neighbouring
// stripes then share destination words.
func (a *Accelerator) stripeGroup(s int) int {
	if a.cfg.Module.Columns%64 != 0 {
		return 0
	}
	bank, sub := a.stripeCoord(s)
	return sub*a.module.Banks() + bank
}

// opStripe executes one stripe of dst = op(x, y) through the
// command-accurate device model (y nil for unary ops) — the fallback
// per-stripe body shared by the synchronous and batched paths.
func (a *Accelerator) opStripe(ex Executor, iop engine.Op, dst, x, y *bitvec.Vector, s int, sub *dram.Subarray, buf *bitvec.Vector) error {
	cols := a.cfg.Module.Columns
	loadStripe(buf, x, s, cols)
	sub.LoadRow(rowA, buf)
	if !iop.Unary() {
		loadStripe(buf, y, s, cols)
		sub.LoadRow(rowB, buf)
	}
	if err := ex.Execute(sub, iop, rowC, rowA, rowB); err != nil {
		return err
	}
	storeStripe(dst, sub.RowData(rowC), s, cols)
	return nil
}

// foldStripe executes one stripe of the reduction fold dst = op(v, dst)
// on the device model, via the engine's in-place form when available. A
// wrapped executor takes the three-operand form instead, so the wrapper
// observes (and may corrupt) the fold like any other operation.
func (a *Accelerator) foldStripe(ex Executor, iop engine.Op, ipe inPlaceExecutor, inPlace bool, dst, v *bitvec.Vector, s int, sub *dram.Subarray, buf *bitvec.Vector) error {
	cols := a.cfg.Module.Columns
	loadStripe(buf, v, s, cols)
	sub.LoadRow(rowA, buf)
	loadStripe(buf, dst, s, cols)
	sub.LoadRow(rowB, buf)
	var err error
	if _, isEngine := ex.(engine.Engine); inPlace && isEngine {
		err = ipe.ExecuteInPlace(sub, iop, rowA, rowB)
	} else {
		err = ex.Execute(sub, iop, rowB, rowA, rowB)
	}
	if err != nil {
		return err
	}
	storeStripe(dst, sub.RowData(rowB), s, cols)
	return nil
}

// fastOpRange applies a compiled kernel to the contiguous stripe range
// [lo, hi) of dst = op(x, y) directly on the vectors' word storage — no
// row buffer, no device-model copies, no allocation. y is nil for unary
// kernels. The destination's canonical tail is re-masked when the range
// covers the final word.
func fastOpRange(k *kernel.Kernel, dst, x, y *bitvec.Vector, lo, hi, cols int) {
	wpr := cols / 64
	dw := dst.Words()
	wlo := lo * wpr
	if wlo >= len(dw) {
		return
	}
	whi := hi * wpr
	if whi > len(dw) {
		whi = len(dw)
	}
	var yw []uint64
	if y != nil {
		yw = y.Words()[wlo:whi]
	}
	k.Apply(dw[wlo:whi], x.Words()[wlo:whi], yw)
	if whi == len(dw) {
		dst.MaskTail()
	}
}

// fastStripe applies a compiled kernel to the single stripe s (the
// per-stripe form used where stripes are not contiguous, e.g. a batch
// group's strided stripe list).
func fastStripe(k *kernel.Kernel, dst, x, y *bitvec.Vector, s, cols int) {
	fastOpRange(k, dst, x, y, s, s+1, cols)
}

// fastFoldRange applies a compiled kernel to the contiguous stripe range
// [lo, hi) of the reduction fold dst = op(v, dst), in place on the
// accumulator words.
func fastFoldRange(k *kernel.Kernel, dst, v *bitvec.Vector, lo, hi, cols int) {
	wpr := cols / 64
	dw := dst.Words()
	wlo := lo * wpr
	if wlo >= len(dw) {
		return
	}
	whi := hi * wpr
	if whi > len(dw) {
		whi = len(dw)
	}
	k.Apply(dw[wlo:whi], v.Words()[wlo:whi], dw[wlo:whi])
	if whi == len(dw) {
		dst.MaskTail()
	}
}

// fastFoldStripe is fastFoldRange for a single stripe.
func fastFoldStripe(k *kernel.Kernel, dst, v *bitvec.Vector, s, cols int) {
	fastFoldRange(k, dst, v, s, s+1, cols)
}

// fastSerialThresholdWords is the total word count below which the fast
// path runs single-threaded: under ~64 KiB of destination data the kernel
// loops finish faster than goroutine fan-out costs.
const fastSerialThresholdWords = 8192

// fastForEachRange runs a pure word-level body over [0, stripes),
// partitioned into contiguous stripe ranges — the whole-vector case of
// fastForEachRuns.
func (a *Accelerator) fastForEachRange(stripes int, body func(lo, hi int)) {
	a.fastForEachRuns([][2]int{{0, stripes}}, body)
}

// fastForEachRuns runs a body over the given ascending, disjoint,
// contiguous stripe runs (each a [lo, hi) pair — a sharded operation's
// subset of the vector; the whole vector is the single run [0, stripes)),
// split across parallel goroutines for large operations: each worker is
// dealt an equal share of the stripes and calls body once per run piece
// in its share. Bodies touch device-model row state only through
// runStripe, whose per-subarray locks serialize it, so the kernel fast
// path runs lock-free on disjoint destination words. Rows that are not
// word-aligned share words between neighbouring stripes and run
// serially. With a tracer installed the body runs stripe by stripe
// instead so per-stripe spans match the command path.
func (a *Accelerator) fastForEachRuns(runs [][2]int, body func(lo, hi int)) {
	total := 0
	for _, r := range runs {
		total += r[1] - r[0]
	}
	if total <= 0 {
		return
	}
	if start := a.obsc.SpanStart(); start != 0 {
		first := true
		for _, r := range runs {
			for s := r[0]; s < r[1]; s++ {
				if !first {
					start = a.obsc.SpanStart()
				}
				first = false
				body(s, s+1)
				a.stripeSpan(start, s, nil)
			}
		}
		return
	}
	cols := a.cfg.Module.Columns
	workers := a.module.Banks() * a.module.Bank(0).Subarrays()
	if n := runtime.GOMAXPROCS(0); workers > n {
		workers = n
	}
	if workers > total {
		workers = total
	}
	if workers <= 1 || cols%64 != 0 || total*(cols/64) < fastSerialThresholdWords {
		for _, r := range runs {
			body(r[0], r[1])
		}
		return
	}
	// Deal each worker an equal flat share of the total stripe count, then
	// map its flat span back onto run pieces (a single run degenerates to
	// the familiar [w*n/W, (w+1)*n/W) partition).
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		flo, fhi := w*total/workers, (w+1)*total/workers
		if flo == fhi {
			continue
		}
		wg.Add(1)
		go func(flo, fhi int) {
			defer wg.Done()
			base := 0
			for _, r := range runs {
				n := r[1] - r[0]
				lo, hi := flo-base, fhi-base
				if lo < 0 {
					lo = 0
				}
				if hi > n {
					hi = n
				}
				if lo < hi {
					body(r[0]+lo, r[0]+hi)
				}
				base += n
				if base >= fhi {
					break
				}
			}
		}(flo, fhi)
	}
	wg.Wait()
}

// stripeRuns converts an ascending stripe list into maximal contiguous
// [lo, hi) runs, the shape the kernel fast path consumes, counted first
// so the result is allocated once.
func stripeRuns(list []int) [][2]int {
	n := 0
	for i, s := range list {
		if i == 0 || list[i-1]+1 != s {
			n++
		}
	}
	runs := make([][2]int, 0, n)
	for _, s := range list {
		if n := len(runs); n > 0 && runs[n-1][1] == s {
			runs[n-1][1] = s + 1
			continue
		}
		runs = append(runs, [2]int{s, s + 1})
	}
	return runs
}

// stripeRun is one serialization group's ascending stripe list.
type stripeRun struct {
	group int
	list  []int
}

// groupStripes partitions stripes [0, n) into per-serialization-group
// ascending lists, in discovery order — i.e. ordered by each group's first
// (and therefore lowest) stripe — so every consumer that iterates the
// result builds tasks in a deterministic order.
func (a *Accelerator) groupStripes(n int) []stripeRun {
	index := map[int]int{}
	var runs []stripeRun
	for s := 0; s < n; s++ {
		runs = a.addToGroup(index, runs, s)
	}
	return runs
}

// groupStripeList is groupStripes over an explicit ascending stripe list
// (a sharded operation's subset), with the same discovery ordering.
func (a *Accelerator) groupStripeList(list []int) []stripeRun {
	index := map[int]int{}
	var runs []stripeRun
	for _, s := range list {
		runs = a.addToGroup(index, runs, s)
	}
	return runs
}

// addToGroup appends stripe s to its serialization group's list, creating
// the group on first sight.
func (a *Accelerator) addToGroup(index map[int]int, runs []stripeRun, s int) []stripeRun {
	g := a.stripeGroup(s)
	i, ok := index[g]
	if !ok {
		i = len(runs)
		index[g] = i
		runs = append(runs, stripeRun{group: g})
	}
	runs[i].list = append(runs[i].list, s)
	return runs
}

// runStripe executes fn on stripe s's home subarray while holding the
// accelerator-wide lock of its serialization group, so synchronous calls
// and every Batch mutually exclude on shared subarray row state.
func (a *Accelerator) runStripe(group, s int, buf *bitvec.Vector, fn func(s int, sub *dram.Subarray, buf *bitvec.Vector) error) error {
	mu := &a.execLocks[group]
	if !mu.TryLock() {
		// Another context holds this subarray; count the contended path
		// before falling back to the blocking acquire.
		a.lockContended.Inc()
		mu.Lock()
	}
	a.lockAcquire.Inc()
	defer mu.Unlock()
	start := a.obsc.SpanStart()
	err := fn(s, a.subarrayFor(s), buf)
	a.stripeSpan(start, s, err)
	return err
}

// forEachStripe runs fn for every stripe with a leased row buffer — the
// command-level entry point. Stripes sharing a subarray are serialized
// (they share the row buffer); distinct subarrays run in parallel
// goroutines when the row width is word-aligned, so concurrent stores
// into the destination vector cannot touch the same word.
func (a *Accelerator) forEachStripe(stripes int, fn func(s int, sub *dram.Subarray, buf *bitvec.Vector) error) error {
	return a.forEachStripeBuf(stripes, true, fn)
}

// forEachStripeBuf is forEachStripe with the buffer policy explicit:
// needBuf leases one pooled row buffer per serialization group (the
// command-level path); the kernel fast path passes false and fn receives
// a nil buffer.
func (a *Accelerator) forEachStripeBuf(stripes int, needBuf bool, fn func(s int, sub *dram.Subarray, buf *bitvec.Vector) error) error {
	cols := a.cfg.Module.Columns
	if cols%64 != 0 || stripes == 1 {
		var buf *bitvec.Vector
		if needBuf {
			buf = a.getBuf()
			defer a.putBuf(buf)
		}
		for s := 0; s < stripes; s++ {
			if err := a.runStripe(a.stripeGroup(s), s, buf, fn); err != nil {
				return err
			}
		}
		return nil
	}
	return a.runGroups(a.groupStripes(stripes), needBuf, fn)
}

// forEachStripeList is forEachStripe restricted to an ascending stripe
// list — the command-level execution of one shard's subset of a sharded
// operation. Non-word-aligned rows run serially in list order (their
// stripes share destination words).
func (a *Accelerator) forEachStripeList(list []int, fn func(s int, sub *dram.Subarray, buf *bitvec.Vector) error) error {
	if a.cfg.Module.Columns%64 != 0 || len(list) == 1 {
		buf := a.getBuf()
		defer a.putBuf(buf)
		for _, s := range list {
			if err := a.runStripe(a.stripeGroup(s), s, buf, fn); err != nil {
				return err
			}
		}
		return nil
	}
	return a.runGroups(a.groupStripeList(list), true, fn)
}

// runGroups executes fn over each serialization group's stripe list in a
// goroutine per group. Every group runs to its first failure; the error
// reported is the one from the lowest failing stripe, so multiple
// concurrent failures resolve deterministically and none is dropped
// silently.
func (a *Accelerator) runGroups(groups []stripeRun, needBuf bool, fn func(s int, sub *dram.Subarray, buf *bitvec.Vector) error) error {
	errs := make([]error, len(groups))
	failAt := make([]int, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int, g stripeRun) {
			defer wg.Done()
			var buf *bitvec.Vector
			if needBuf {
				buf = a.getBuf()
				defer a.putBuf(buf)
			}
			for _, s := range g.list {
				if err := a.runStripe(g.group, s, buf, fn); err != nil {
					errs[i], failAt[i] = err, s
					return
				}
			}
		}(i, groups[i])
	}
	wg.Wait()
	return firstStripeError(errs, failAt)
}

// execOpStripes executes dst = op(x, y) over the given ascending stripe
// list (y nil for unary ops) through whichever execution mode is eligible
// — the compiled kernel fast path on the list's contiguous runs, or the
// command-accurate device model — with no cost accounting: a Shard
// scatters one logical operation across its accelerators and accounts it
// once, centrally, so the merged Stats stay bit-identical to the
// single-module baseline.
func (a *Accelerator) execOpStripes(iop engine.Op, dst, x, y *bitvec.Vector, list []int) error {
	if len(list) == 0 {
		return nil
	}
	cols := a.cfg.Module.Columns
	ex, wrapped := a.executor()
	if k := a.fastKernel(iop, wrapped); k != nil {
		a.fastHits.Inc()
		a.fastForEachRuns(stripeRuns(list), func(lo, hi int) {
			fastOpRange(k, dst, x, y, lo, hi, cols)
		})
		return nil
	}
	a.fastFallbacks.Inc()
	return a.forEachStripeList(list, func(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
		return a.opStripe(ex, iop, dst, x, y, s, sub, buf)
	})
}

// execReduceStripes executes the staged reduction dst = vs[0] op vs[1] op
// ... over the given ascending stripe list, with no cost accounting (see
// execOpStripes). Each stripe runs its whole copy-then-fold chain before
// the next, which is result-identical to the baseline's sweep-per-operand
// order because every chain step touches only its own stripe.
func (a *Accelerator) execReduceStripes(iop engine.Op, dst *bitvec.Vector, vs []*bitvec.Vector, list []int) error {
	if len(list) == 0 {
		return nil
	}
	cols := a.cfg.Module.Columns
	ex, wrapped := a.executor()
	k := a.fastKernel(iop, wrapped)
	kcopy := a.fastKernel(engine.OpCOPY, wrapped)
	if k != nil && kcopy != nil {
		a.fastHits.Inc()
		a.fastForEachRuns(stripeRuns(list), func(lo, hi int) {
			fastOpRange(kcopy, dst, vs[0], nil, lo, hi, cols)
			for _, v := range vs[1:] {
				fastFoldRange(k, dst, v, lo, hi, cols)
			}
		})
		return nil
	}
	a.fastFallbacks.Inc()
	ipe, inPlace := a.eng.(inPlaceExecutor)
	return a.forEachStripeList(list, func(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
		if err := a.opStripe(ex, engine.OpCOPY, dst, vs[0], nil, s, sub, buf); err != nil {
			return err
		}
		for _, v := range vs[1:] {
			if err := a.foldStripe(ex, iop, ipe, inPlace, dst, v, s, sub, buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// firstStripeError returns the error with the lowest failing stripe index
// (nil when no group failed).
func firstStripeError(errs []error, failAt []int) error {
	var first error
	firstStripe := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if firstStripe < 0 || failAt[i] < firstStripe {
			first, firstStripe = err, failAt[i]
		}
	}
	return first
}

// loadStripe copies stripe s of src into the row buffer vector.
// Word-aligned stripes (cols%64 == 0) copy whole words; the buffer may
// come from the pool holding a previous stripe's contents, so the words
// past the copied prefix are zeroed explicitly (the source's own tail
// word is already masked, and a partial final stripe must read as zeros
// beyond src.Len()).
func loadStripe(row *bitvec.Vector, src *bitvec.Vector, s, cols int) {
	base := s * cols
	if cols%64 == 0 {
		rw := row.Words()
		sw := src.Words()
		lo := base / 64
		var n int
		if lo < len(sw) {
			n = copy(rw, sw[lo:])
		}
		for i := n; i < len(rw); i++ {
			rw[i] = 0
		}
		return
	}
	row.Fill(false)
	for i := 0; i < cols && base+i < src.Len(); i++ {
		row.SetBit(i, src.Bit(base+i))
	}
}

// storeStripe copies a result row back into stripe s of dst. Word-aligned
// stripes copy whole words and re-mask the destination's canonical tail
// when the copy reaches the last word.
func storeStripe(dst *bitvec.Vector, row *bitvec.Vector, s, cols int) {
	base := s * cols
	if cols%64 == 0 {
		dw := dst.Words()
		lo := base / 64
		if lo >= len(dw) {
			return
		}
		n := copy(dw[lo:], row.Words())
		if lo+n == len(dw) {
			dst.MaskTail()
		}
		return
	}
	for i := 0; i < cols && base+i < dst.Len(); i++ {
		dst.SetBit(base+i, row.Bit(i))
	}
}

// seqProvider is implemented by every engine: the canonical command
// sequence of a three-operand op, for the scheduler profile.
type seqProvider interface {
	Seq(op engine.Op) primitive.Seq
}

// opUnit returns the memoized per-row cost unit of the three-operand op:
// the engine's canonical per-row stats plus the scheduled effective-bank
// count (with or without the power constraint). Repeated operations cost
// one map lookup here instead of a fresh 200k-ns scheduling simulation.
func (a *Accelerator) opUnit(op engine.Op) (costUnit, error) {
	a.costMu.Lock()
	defer a.costMu.Unlock()
	k := costKey{op: op}
	if u, ok := a.costUnits[k]; ok && !a.cfg.DisableSchedCache {
		return u, nil
	}
	per := a.eng.OpStats(op)
	banks := float64(a.module.Banks())
	if sp, ok := a.eng.(seqProvider); ok {
		res, err := a.simulate(sp.Seq(op))
		if err != nil {
			return costUnit{}, err
		}
		banks = res.EffectiveBanks
	}
	if banks <= 0 {
		banks = 1
	}
	u := costUnit{per: per, banks: banks}
	a.costUnits[k] = u
	return u, nil
}

// opCost computes the scheduled latency and energy of `stripes` row ops.
func (a *Accelerator) opCost(op engine.Op, stripes int) (Stats, error) {
	u, err := a.opUnit(op)
	if err != nil {
		return Stats{}, err
	}
	return a.scaleUnit(u, stripes), nil
}

// CPUBaseline returns the Kaby-Lake-class roofline model used by the
// paper's case studies, for side-by-side comparisons.
func CPUBaseline() cpu.Model { return cpu.KabyLake() }
