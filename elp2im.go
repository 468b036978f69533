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
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/plan"
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

// internal returns the engine operation: Op's values are engine.Op's, in
// the same order.
func (o Op) internal() engine.Op { return engine.Op(o) }

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
// It is safe for concurrent use: Op, Reduce, Eval and Arith calls may run
// at the same time, as long as concurrently executing operations' vector
// arguments do not overlap. Stripe s of every vector lives in the same
// modeled subarray, so an accelerator-wide lock per subarray serializes
// the row-state of operations that would otherwise collide there (see
// execLocks); operations whose vectors overlap need external ordering.
type Accelerator struct {
	cfg    Config
	module *dram.Module
	eng    engine.Engine

	// fused memoizes the k-input fused kernels self-derived from the
	// engine, keyed by cluster spec (see internal/kernel.FusedSet). The
	// fused tier collapses each plan cluster of every call's steps — an
	// Op's one gate, a Reduce's copy and folds, an Eval's or µProgram
	// step's clusters — into one of these.
	fused *kernel.FusedSet

	// execMu guards the functional executor. execr is the engine by
	// default; SetExecutor installs another executor (the engine itself,
	// or a fault injection/detection wrapper), which also forces
	// command-level execution so the executor keeps seeing real commands.
	execMu  sync.RWMutex
	execr   Executor
	wrapped bool

	// bufPool recycles row-width stripe buffers across command-level
	// calls.
	bufPool sync.Pool

	// scratchPool recycles the fused tier's per-worker scratch slabs
	// (*[]uint64) across calls (see progRunner.walkShare).
	scratchPool sync.Pool

	// runners recycles the per-call step lists (*progRunner), so a call
	// resolves its steps without allocating.
	runners sync.Pool

	// execLocks holds one mutex per serialization group (one per subarray;
	// stripeGroup indexes it). Every command-level stripe run takes its
	// group's lock (runStripe), so concurrent calls never interleave
	// LoadRow/Execute/RowData on a shared subarray. Per-stripe granularity
	// is sufficient because each step reloads its operand rows before
	// executing and stores its result row after.
	execLocks []sync.Mutex

	// series is the per-op metric surface every charge records into;
	// totalsMu guards totals, the sum of every call's Stats.
	series   opSeriesSet
	totalsMu sync.Mutex
	totals   Stats

	// costMu guards the memoized per-row cost units. The cache is keyed by
	// (op, chained) only because everything else it depends on — design,
	// timing, power, geometry, constraint flags — is fixed per accelerator;
	// SetPowerConstrained invalidates it when the one mutable knob changes.
	costMu    sync.Mutex
	costUnits map[costKey]costUnit

	// Observability (see observe.go): the accelerator-local obs context
	// and the lock and tier counters.
	obsc          *obs.Context
	lockAcquire   *obs.Counter
	lockContended *obs.Counter
	fastHits      *obs.Counter
	fastFallbacks *obs.Counter
	fusionHits    *obs.Counter
	fusionFalls   *obs.Counter

	// slicePool recycles the n-bit slices (*BitVector) that ArithProg
	// leases for its results and temps: temps come back when a call
	// returns, results when the caller hands them to Recycle.
	slicePool sync.Pool
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
		fused:     kernel.NewFusedSet(eng, cfg.Module),
		execr:     eng,
		execLocks: make([]sync.Mutex, module.Banks()*module.Bank(0).Subarrays()),
		costUnits: make(map[costKey]costUnit),
	}
	a.initObs()
	return a, nil
}

// Executor is the functional command-level execution surface: everything
// that can perform dst = op(a, b) on a subarray of the device model (see
// engine.Executor). The engines implement it, as do the wrappers in
// internal/fault.
type Executor = engine.Executor

// BaseExecutor returns the engine's own command-level executor — the
// inner executor to hand to a wrapper such as fault.New or
// fault.NewDetecting before installing it with SetExecutor, or to install
// as it is to run every call command-accurate.
func (a *Accelerator) BaseExecutor() Executor { return a.eng }

// SetExecutor installs exec as the accelerator's functional executor
// (nil restores the engine). It is the one execution-tier switch:
// installing any non-nil executor forces every operation — Op, Reduce,
// Eval and Arith — onto the command-accurate path, since an executor
// observes (and a wrapper may mutate) real per-command row state, which
// the compiled kernels bypass, until SetExecutor(nil) re-enables the fast
// path. SetExecutor(a.BaseExecutor()) is the command-accurate twin of the
// default: results and modeled costs are bit-identical on both tiers, and
// reductions still fold in place where the engine has an in-place form.
// The swap takes effect for operations started after the call.
func (a *Accelerator) SetExecutor(exec Executor) {
	a.execMu.Lock()
	defer a.execMu.Unlock()
	if exec == nil {
		a.execr, a.wrapped = a.eng, false
		return
	}
	a.execr, a.wrapped = exec, true
}

// executor returns the current functional executor and whether one was
// installed with SetExecutor (which disables the fast path).
func (a *Accelerator) executor() (Executor, bool) {
	a.execMu.RLock()
	defer a.execMu.RUnlock()
	return a.execr, a.wrapped
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

// getSlice leases an n-bit slice from the pool, dropping a pooled slice
// of another length. Callers must not assume it is zeroed — every
// µProgram step writes every word of its destination before a later
// step reads it — but it is canonical: bits beyond n are zero, because
// every tier keeps them so (word-aligned stripes re-mask the tail,
// unaligned ones never write past n).
func (a *Accelerator) getSlice(n int) *BitVector {
	if s, ok := a.slicePool.Get().(*BitVector); ok && s.Len() == n {
		return s
	}
	return NewBitVector(n)
}

// Design returns the modeled design's name.
func (a *Accelerator) Design() string { return a.eng.Name() }

// ReservedRows returns the design's reserved-row count.
func (a *Accelerator) ReservedRows() int { return a.eng.ReservedRows() }

// AreaOverheadPercent returns the design's array area overhead.
func (a *Accelerator) AreaOverheadPercent() float64 { return a.eng.AreaOverheadPercent() }

// Totals returns the accumulated statistics of every operation executed
// on this accelerator: the sum of the Stats each call returned. It is
// safe to call while operations are running.
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

// charge adds one call's cost to the session totals.
func (a *Accelerator) charge(st Stats) {
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

// Op executes dst = op(x, y) as a bulk operation: the vectors are split
// into row-wide stripes, spread round-robin across banks, executed
// through the design's real command sequences on the device model, and
// the results read back. For unary ops y may be nil. The call is one
// step, the gate dst = op(x, y); dst may alias an operand.
func (a *Accelerator) Op(op Op, dst, x, y *BitVector) (Stats, error) {
	if op < OpNot || op > OpCopy {
		return Stats{}, fmt.Errorf("elp2im: unknown op %v", op)
	}
	if x == nil || dst == nil {
		return Stats{}, errors.New("elp2im: nil vector")
	}
	if !op.Unary() {
		if y == nil {
			return Stats{}, fmt.Errorf("elp2im: %v needs two operands", op)
		}
		if y.Len() != x.Len() {
			return Stats{}, errors.New("elp2im: operand length mismatch")
		}
	}
	if dst.Len() != x.Len() {
		return Stats{}, errors.New("elp2im: destination length mismatch")
	}
	iop := op.internal()
	pr := a.getRunner(true, a.series[iop].spanName, iop.String())
	vs := pr.step(gatePlans[iop], dst.v)
	vs[0] = x.v
	if !op.Unary() {
		vs[1] = y.v
	}
	return pr.run(a.stripes(x.Len()))
}

// stripes returns the number of row-wide stripes an n-bit vector spans.
func (a *Accelerator) stripes(n int) int {
	cols := a.cfg.Module.Columns
	return (n + cols - 1) / cols
}

// Reduce folds vs[1:] into an accumulator initialized with vs[0] and
// stores the result in dst: dst = vs[0] op vs[1] op ... Only OpAnd and
// OpOr have chained forms. The call is a COPY step staging vs[0] into
// dst, then one fold step dst = op(v, dst) per further operand, priced
// as the design's chained form and run in place where the executor can
// (ELP2IM: the in-place APP-AP of Figure 5(a)), which is what makes
// reductions the paper's headline workload. dst may be vs[0], the
// accumulate dst = dst op vs[1] op ...; any other operand it aliases is
// read after the copy has overwritten it.
func (a *Accelerator) Reduce(op Op, dst *BitVector, vs ...*BitVector) (Stats, error) {
	if op != OpAnd && op != OpOr {
		return Stats{}, fmt.Errorf("elp2im: no reduction for %v", op)
	}
	if len(vs) < 2 {
		return Stats{}, errors.New("elp2im: reduction needs at least two vectors")
	}
	if dst == nil {
		return Stats{}, errors.New("elp2im: nil destination")
	}
	for _, v := range vs {
		if v == nil || v.Len() != dst.Len() {
			return Stats{}, errors.New("elp2im: reduction operand nil or length mismatch")
		}
	}
	iop := op.internal()
	pr := a.getRunner(true, a.series[iop].reduceSpan, iop.String())
	pr.step(gatePlans[engine.OpCOPY], dst.v)[0] = vs[0].v
	for _, v := range vs[1:] {
		fold := pr.step(foldPlans[iop], dst.v)
		fold[0], fold[1] = v.v, dst.v
	}
	return pr.run(a.stripes(dst.Len()))
}

// gatePlans[op] is the plan of the one gate dst = op(a, b) (dst = op(a)
// for unary ops): an Op's step, and a Reduce's staging copy. Its one
// cluster is the one-gate kernel spec, and its node program the one
// three-operand instruction.
//
// foldPlans[op] is the plan of the fold acc = op(v, acc) over the
// variables v and acc, a Reduce's step after the copy: the same cluster,
// with a node program whose one instruction writes its B operand (see
// expr.Instr), so pricing charges the chained form and the command tier
// runs it in place.
var gatePlans, foldPlans = opPlans()

// opPlans builds gatePlans and foldPlans.
func opPlans() (gates, folds [engine.OpCOPY + 1]*plan.Plan) {
	for op := engine.OpNOT; op <= engine.OpCOPY; op++ {
		root := &expr.DAGNode{Op: op, A: &expr.DAGNode{Leaf: true}}
		vars := []string{"a"}
		if !op.Unary() {
			root.B = &expr.DAGNode{Leaf: true, VarIndex: 1}
			vars = append(vars, "b")
		}
		p, err := plan.Compile(&expr.DAG{Root: root, Order: []*expr.DAGNode{root}, Vars: vars})
		if err != nil {
			panic(err)
		}
		gates[op] = p
		if op.Unary() {
			continue
		}
		f := *p
		acc := expr.Ref{Index: 1}
		f.Prog = &expr.Program{Vars: vars, Instrs: []expr.Instr{{Op: op, Dst: acc, A: expr.Ref{}, B: acc}}}
		folds[op] = &f
	}
	return gates, folds
}

// schedHorizonNS is the steady-state horizon of the bank-parallelism
// simulation behind every op-cost query.
const schedHorizonNS = 200_000

// unit returns k's memoized per-row cost unit: the engine's per-row stats
// of the three-operand op, or of its chained fold, plus the effective-bank
// count the scheduler finds for that command sequence (with or without the
// power constraint). Both memo layers sit behind it: a repeated key costs
// one map lookup here, and a key new to this accelerator one lookup in the
// process-wide scheduler memo, instead of a fresh 200k-ns scheduling
// simulation.
func (a *Accelerator) unit(k costKey) (costUnit, error) {
	a.costMu.Lock()
	defer a.costMu.Unlock()
	if u, ok := a.costUnits[k]; ok {
		return u, nil
	}
	var (
		per engine.Stats
		seq primitive.Seq
		err error
	)
	if k.chained {
		if per, err = a.eng.ChainStats(k.op); err != nil {
			return costUnit{}, err
		}
		if seq, err = a.eng.ChainSeq(k.op); err != nil {
			return costUnit{}, err
		}
	} else {
		per, seq = a.eng.OpStats(k.op), a.eng.Seq(k.op)
	}
	res, err := sched.CachedSimulate(sched.ProfileFromSeq(seq, a.cfg.Timing), sched.Config{
		Banks:            a.module.Banks(),
		Timing:           a.cfg.Timing,
		PowerConstrained: a.cfg.PowerConstrained,
		Ranks:            a.cfg.Ranks,
	}, schedHorizonNS)
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

// cost computes the scheduled latency and energy of `stripes` row
// operations of k.
func (a *Accelerator) cost(k costKey, stripes int) (Stats, error) {
	u, err := a.unit(k)
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
// one lock serializes every operation's row state on that subarray.
// Non-word-aligned rows collapse to a single group because neighbouring
// stripes then share destination words.
func (a *Accelerator) stripeGroup(s int) int {
	if a.cfg.Module.Columns%64 != 0 {
		return 0
	}
	bank, sub := a.stripeCoord(s)
	return sub*a.module.Banks() + bank
}

// fastSerialThresholdWords is the total word count below which a call
// runs single-threaded: under ~64 KiB of destination data the kernel
// loops finish faster than goroutine fan-out costs.
const fastSerialThresholdWords = 8192

// forEachStripe is the one stripe dispatcher of Op, Reduce, Eval and
// Arith on every tier. It runs body over the stripes [0, stripes), split
// across parallel goroutines for large operations: worker w of W is
// dealt the contiguous share [w·stripes/W, (w+1)·stripes/W) and calls
// body once on it. body returns the stripe it failed on and the error;
// forEachStripe returns the error of the lowest failing stripe, so
// concurrent failures resolve deterministically. Bodies touch
// device-model row state only through runStripe, whose per-subarray
// locks serialize it, so word-level bodies run lock-free on disjoint
// destination words. Rows that are not word-aligned share words between
// neighbouring stripes and run serially. With a tracer installed the
// body runs stripe by stripe instead, each stripe in its own span.
func (a *Accelerator) forEachStripe(stripes int, body func(lo, hi int) (int, error)) error {
	if stripes <= 0 {
		return nil
	}
	if start := a.obsc.SpanStart(); start != 0 {
		for s := 0; s < stripes; s++ {
			if s > 0 {
				start = a.obsc.SpanStart()
			}
			_, err := body(s, s+1)
			a.stripeSpan(start, s, err)
			if err != nil {
				return err
			}
		}
		return nil
	}
	cols := a.cfg.Module.Columns
	workers := min(a.module.Banks()*a.module.Bank(0).Subarrays(), runtime.GOMAXPROCS(0), stripes)
	if workers <= 1 || cols%64 != 0 || stripes*(cols/64) < fastSerialThresholdWords {
		_, err := body(0, stripes)
		return err
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failAt int
		first  error
	)
	for w := 0; w < workers; w++ {
		lo, hi := w*stripes/workers, (w+1)*stripes/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if s, err := body(lo, hi); err != nil {
				mu.Lock()
				if first == nil || s < failAt {
					failAt, first = s, err
				}
				mu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	return first
}

// runStripe runs the command-tier steps, in order, on stripe s's home
// subarray with row buffer buf, while holding the accelerator-wide lock
// of its serialization group, so concurrent calls mutually exclude on
// shared subarray row state.
func (a *Accelerator) runStripe(s int, buf *bitvec.Vector, steps []stepRunner) error {
	mu := &a.execLocks[a.stripeGroup(s)]
	if !mu.TryLock() {
		// Another call holds this subarray; count the contended path
		// before falling back to the blocking acquire.
		a.lockContended.Inc()
		mu.Lock()
	}
	a.lockAcquire.Inc()
	defer mu.Unlock()
	sub := a.subarrayFor(s)
	for i := range steps {
		if err := steps[i].stripe(sub, buf, s, a.cfg.Module.Columns); err != nil {
			return err
		}
	}
	return nil
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

// CPUBaseline returns the Kaby-Lake-class roofline model used by the
// paper's case studies, for side-by-side comparisons.
func CPUBaseline() cpu.Model { return cpu.KabyLake() }
