package elp2im

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// shardChunkStripes is the placement granularity: stripes are assigned to
// shards in contiguous ranges of this many stripes, so a shard's subset of
// any vector is a union of contiguous runs the kernel fast path can
// consume whole, while the range-level hash still spreads load evenly.
const shardChunkStripes = 4

// Shard is a router over N independent Accelerator instances — the model
// of a multi-rank (or multi-channel) deployment where each rank has its
// own charge pump and tFAW window, the reason ELP2IM's bank-level
// parallelism scales nearly linearly with ranks (PAPER.md §V).
//
// Vectors are placed deterministically: stripe s belongs to the shard
// selected by a hash of its placement range (s / shardChunkStripes), the
// same mapping for every vector, so stripe s of all of an operation's
// operands always co-locate on one shard and no cross-shard data movement
// is ever needed. Op, Reduce, Eval and Arith scatter each operation's
// stripes across the shards and gather the results.
//
// Accounting is central: the cost model is purely functional (identical
// configuration ⇒ identical memoized cost units), so the router computes
// each logical operation's cost once — on shard 0 — and the shard
// accelerators execute without accounting. Totals, the per-op metric
// series, and Snapshot therefore reconcile exactly — struct-equal — with
// a single-module baseline performing the same operations; per-shard
// execution detail (fast-path hits, lock contention, shard.<i>.* scatter
// counters) is layered on top in the merged snapshot.
//
// A Shard is safe for concurrent use under the same contract as an
// Accelerator: concurrently executing operations' vectors must not
// overlap.
type Shard struct {
	cfg  Config
	accs []*Accelerator

	// acct is where scattered operations are charged, once each.
	acct ledger

	// Observability: the router's own context (central per-op accounting
	// and per-shard scatter series) merged with each shard accelerator's
	// registry in Snapshot.
	obsc     *obs.Context
	perShard []shardSeries
}

// shardSeries is one shard's scatter-side metric series.
type shardSeries struct {
	ops     *obs.Counter // operations with ≥1 stripe on this shard
	stripes *obs.Counter // stripes executed on this shard
}

// NewShard returns a router over `shards` independent accelerators, each
// built from the same configuration (DefaultConfig plus the mutators).
func NewShard(shards int, mutators ...func(*Config)) (*Shard, error) {
	cfg := DefaultConfig()
	for _, m := range mutators {
		m(&cfg)
	}
	return NewShardWithConfig(shards, cfg)
}

// NewShardWithConfig returns a router over `shards` accelerators with an
// explicit per-shard configuration.
func NewShardWithConfig(shards int, cfg Config) (*Shard, error) {
	if shards < 1 {
		return nil, errors.New("elp2im: shard count must be at least 1")
	}
	sh := &Shard{cfg: cfg, accs: make([]*Accelerator, shards)}
	for i := range sh.accs {
		acc, err := NewWithConfig(cfg)
		if err != nil {
			return nil, err
		}
		sh.accs[i] = acc
	}
	// The constructor may normalize the configuration (e.g. raising
	// DualContactRows to the design's reserved-row need); adopt shard 0's
	// settled view so placement arithmetic matches execution.
	sh.cfg = sh.accs[0].cfg
	sh.initObs()
	return sh, nil
}

// initObs builds the router's observability context.
func (sh *Shard) initObs() {
	sh.obsc = obs.NewContext()
	m := sh.obsc.Metrics
	sh.acct.series.init(m)
	m.Gauge("shard.count").Set(int64(len(sh.accs)))
	sh.perShard = make([]shardSeries, len(sh.accs))
	for i := range sh.perShard {
		sh.perShard[i] = shardSeries{
			ops:     m.Counter(fmt.Sprintf("shard.%d.ops", i)),
			stripes: m.Counter(fmt.Sprintf("shard.%d.stripes", i)),
		}
	}
}

// ref is the reference accelerator the router computes costs on. All
// shards share one configuration, so any of them yields bit-identical
// cost units; shard 0 is the convention.
func (sh *Shard) ref() *Accelerator { return sh.accs[0] }

// Shards returns the number of shard accelerators.
func (sh *Shard) Shards() int { return len(sh.accs) }

// ShardAccelerator returns shard i's accelerator, for per-shard
// inspection (metrics, executor wrapping in tests). Operations should go
// through the router.
func (sh *Shard) ShardAccelerator(i int) *Accelerator { return sh.accs[i] }

// mix64 is the splitmix64 finalizer: a cheap avalanche hash giving every
// placement range a well-spread, deterministic shard.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// shardOf returns the shard owning stripe s: a hash of its placement
// range, identical for every vector.
func (sh *Shard) shardOf(s int) int {
	return int(mix64(uint64(s/shardChunkStripes)) % uint64(len(sh.accs)))
}

// stripeLists partitions stripes [0, n) into per-shard ascending lists,
// all cut from one backing array sized up front.
func (sh *Shard) stripeLists(n int) [][]int {
	lists := make([][]int, len(sh.accs))
	counts := make([]int, len(sh.accs))
	for lo := 0; lo < n; lo += shardChunkStripes {
		counts[sh.shardOf(lo)] += min(shardChunkStripes, n-lo)
	}
	backing := make([]int, n)
	for i, c := range counts {
		lists[i], backing = backing[:0:c], backing[c:]
	}
	for lo := 0; lo < n; lo += shardChunkStripes {
		i := sh.shardOf(lo)
		for s := lo; s < min(lo+shardChunkStripes, n); s++ {
			lists[i] = append(lists[i], s)
		}
	}
	return lists
}

// scatter partitions [0, stripes) into the per-shard stripe lists and runs
// fn once per non-empty list — in parallel goroutines when rows are
// word-aligned (each shard then writes disjoint destination words),
// sequentially in shard order otherwise (neighbouring stripes share
// destination words across shard boundaries). On multiple failures the
// lowest-index failing shard's error is returned, so the result is
// deterministic (each shard's own error is already its lowest failing
// stripe's, see forEachRuns).
func (sh *Shard) scatter(stripes int, fn func(shard int, list []int) error) error {
	lists := sh.stripeLists(stripes)
	for i, l := range lists {
		if len(l) > 0 {
			sh.perShard[i].ops.Inc()
			sh.perShard[i].stripes.Add(int64(len(l)))
		}
	}
	if sh.cfg.Module.Columns%64 != 0 || len(sh.accs) == 1 {
		for i, l := range lists {
			if len(l) == 0 {
				continue
			}
			if err := fn(i, l); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for i, l := range lists {
		if len(l) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, l []int) {
			defer wg.Done()
			errs[i] = fn(i, l)
		}(i, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Op executes dst = op(x, y) scattered across the shards (y nil for unary
// ops). Semantics, results, and modeled cost are identical to
// Accelerator.Op on one module of the same configuration.
func (sh *Shard) Op(op Op, dst, x, y *BitVector) (Stats, error) {
	iop := op.internal()
	if err := validateOp(op, dst, x, y); err != nil {
		return Stats{}, err
	}
	start := sh.obsc.SpanStart()
	cols := sh.cfg.Module.Columns
	stripes := (x.Len() + cols - 1) / cols
	yv := vecOf(y)
	err := sh.scatter(stripes, func(i int, list []int) error {
		return sh.accs[i].execOpStripes(iop, dst.v, x.v, yv, stripes, list)
	})
	var st Stats
	if err == nil {
		st, err = sh.ref().chargeOp(&sh.acct, iop, stripes)
	}
	sh.opSpan(start, iop, stripes, st, err)
	return st, err
}

// Reduce folds vs[1:] into an accumulator initialized with vs[0] and
// stores the result in dst, scattered across the shards (see
// Accelerator.Reduce). Results and cost accounting are identical to the
// single-module baseline.
func (sh *Shard) Reduce(op Op, dst *BitVector, vs ...*BitVector) (Stats, error) {
	if err := validateReduce(op, dst, vs); err != nil {
		return Stats{}, err
	}
	iop := op.internal()
	start := sh.obsc.SpanStart()
	cols := sh.cfg.Module.Columns
	stripes := (dst.Len() + cols - 1) / cols
	err := sh.scatter(stripes, func(i int, list []int) error {
		return sh.accs[i].execReduceStripes(iop, dst, vs, stripes, list)
	})
	var st Stats
	if err == nil {
		st, err = sh.ref().chargeReduce(&sh.acct, iop, len(vs), stripes)
	}
	sh.reduceSpan(start, iop, stripes, st, err)
	return st, err
}

// Eval evaluates a boolean expression over named bulk bit-vectors,
// compiled once and scattered across the shards (see Accelerator.Eval).
func (sh *Shard) Eval(src string, vars map[string]*BitVector) (*BitVector, Stats, error) {
	ce, err := CompileExpr(src)
	if err != nil {
		return nil, Stats{}, err
	}
	return sh.EvalExpr(ce, vars)
}

// EvalExpr evaluates a compiled expression scattered across the shards
// (see Accelerator.EvalExpr). Results and modeled cost are identical to
// a single module of the same configuration.
func (sh *Shard) EvalExpr(ce *CompiledExpr, vars map[string]*BitVector) (*BitVector, Stats, error) {
	n, err := sh.ref().evalPrep(ce.plan, vars)
	if err != nil {
		return nil, Stats{}, err
	}
	out := NewBitVector(n)
	st, err := sh.EvalExprInto(ce, vars, out)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}

// EvalExprInto is EvalExpr writing the result into out (see
// Accelerator.EvalExprInto).
func (sh *Shard) EvalExprInto(ce *CompiledExpr, vars map[string]*BitVector, out *BitVector) (Stats, error) {
	ref := sh.ref()
	p := ce.plan
	n, err := ref.evalOut(p, vars, out)
	if err != nil {
		return Stats{}, err
	}
	cols := sh.cfg.Module.Columns
	stripes := (n + cols - 1) / cols
	err = sh.scatter(stripes, func(i int, list []int) error {
		return sh.accs[i].evalExec(p, vars, out, stripes, list)
	})
	if err != nil {
		return Stats{}, err
	}
	total, err := ref.evalCost(p.Prog, stripes)
	if err != nil {
		return Stats{}, err
	}
	sh.acct.add(total)
	return total, nil
}

// Totals returns the accumulated statistics of every operation routed
// through this shard router (struct-equal to a single module's totals for
// the same operation sequence).
func (sh *Shard) Totals() Stats { return sh.acct.sum() }

// AggregateTotals returns the router's centrally accounted totals merged
// with every shard accelerator's own session totals. Operations routed
// through the Shard account centrally (Totals); a caller driving the
// shard accelerators directly — the per-shard serving path in
// internal/server — accumulates on each accelerator instead, and this is
// the union of both views.
func (sh *Shard) AggregateTotals() Stats {
	total := sh.Totals()
	for _, acc := range sh.accs {
		total.add(acc.Totals())
	}
	return total
}

// ResetTotals clears the accumulated statistics.
func (sh *Shard) ResetTotals() { sh.acct.reset() }

// Design returns the modeled design's name.
func (sh *Shard) Design() string { return sh.ref().Design() }

// ReservedRows returns the design's reserved-row count.
func (sh *Shard) ReservedRows() int { return sh.ref().ReservedRows() }

// AreaOverheadPercent returns the design's array area overhead.
func (sh *Shard) AreaOverheadPercent() float64 { return sh.ref().AreaOverheadPercent() }

// SetPowerConstrained toggles the charge-pump/tFAW latency constraint on
// every shard (each rank has its own pump; the constraint is per-module).
func (sh *Shard) SetPowerConstrained(v bool) {
	for _, acc := range sh.accs {
		acc.SetPowerConstrained(v)
	}
}

// SetTracer installs (or, with nil, removes) a tracer on the router and on
// every shard accelerator, so one sink receives the router's op spans and
// each shard's stripe/engine spans.
func (sh *Shard) SetTracer(t Tracer) {
	sh.obsc.SetTracer(t)
	for _, acc := range sh.accs {
		acc.SetTracer(t)
	}
}

// Observability returns the router's observability context, so subsystems
// layered on top (internal/server) can register their own series next to
// the central per-op accounting; they appear in Snapshot alongside the
// merged per-shard series.
func (sh *Shard) Observability() *obs.Context { return sh.obsc }

// Snapshot merges the router's metric series (central per-op accounting,
// shard.<i>.* scatter series) with every shard accelerator's registry —
// counters and gauges sum, histograms merge bucket-wise — plus the
// process-wide scheduler-memo counters. The
// acc.op.* series reconcile exactly with a single-module baseline: only
// the router records them, while execution-side series (fast-path hits,
// lock contention) sum across shards.
func (sh *Shard) Snapshot() MetricsSnapshot {
	snap := sh.obsc.Metrics.Snapshot()
	for _, acc := range sh.accs {
		mergeSnapshot(&snap, acc.obsc.Metrics.Snapshot())
	}
	return withSchedStats(snap)
}

// mergeSnapshot folds src into dst: counters and gauges sum; histograms
// with matching bounds merge bucket-wise, others keep dst's value.
func mergeSnapshot(dst *obs.Snapshot, src obs.Snapshot) {
	for name, v := range src.Counters {
		dst.Counters[name] += v
	}
	for name, v := range src.Gauges {
		dst.Gauges[name] += v
	}
	for name, h := range src.Histograms {
		d, ok := dst.Histograms[name]
		if !ok {
			dst.Histograms[name] = h
			continue
		}
		if len(d.Bounds) != len(h.Bounds) || len(d.Counts) != len(h.Counts) {
			continue
		}
		d.Count += h.Count
		d.Sum += h.Sum
		counts := make([]int64, len(d.Counts))
		for i := range counts {
			counts[i] = d.Counts[i] + h.Counts[i]
		}
		d.Counts = counts
		dst.Histograms[name] = d
	}
}

// ServeDebug starts the opt-in observability endpoint on addr serving the
// router's merged Snapshot (see Accelerator.ServeDebug).
func (sh *Shard) ServeDebug(addr string) (*DebugServer, error) {
	return obs.Serve(addr, func() obs.Snapshot { return sh.Snapshot() })
}

// opSpan emits the router-level span of one completed scattered operation
// when tracing is on.
func (sh *Shard) opSpan(startNS int64, op engine.Op, stripes int, st Stats, err error) {
	if startNS == 0 {
		return
	}
	callSpan(sh.obsc, "shard", sh.Design(), startNS, sh.acct.series[op].spanName, op, stripes, st, err)
}

// reduceSpan emits the router-level span of one scattered Reduce.
func (sh *Shard) reduceSpan(startNS int64, op engine.Op, stripes int, st Stats, err error) {
	if startNS == 0 {
		return
	}
	callSpan(sh.obsc, "shard", sh.Design(), startNS, "Reduce("+op.String()+")", op, stripes, st, err)
}
