package elp2im

import (
	"math"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/pipeline"
)

// costTerm is one accounting component of a submitted operation: the op
// kind it should be attributed to in the per-op metric series, and its
// modeled cost.
type costTerm struct {
	op engine.Op
	st Stats
}

// Future is the handle of one asynchronously submitted operation. A Batch
// submission has one underlying pipeline future; a ShardBatch submission
// has one per shard its stripes scattered to.
type Future struct {
	pfs []*pipeline.Future
	// components are the operation's cost terms in the order the
	// synchronous path would account them (one for an Op, copy + one per
	// fold for a Reduce); Batch.Wait folds them into the session totals in
	// this order so batched and per-call totals are bit-identical, and
	// attributes each term to its op kind in the metric series.
	components []costTerm
	stats      Stats
	err        error // submission-time validation error
	accounted  bool  // guarded by the owning batch's mutex
}

// runErr blocks until every underlying pipeline future settles and returns
// the first error in slice order — task order for a Batch, ascending shard
// order for a ShardBatch — so the reported error is deterministic.
func (f *Future) runErr() error {
	var first error
	for _, pf := range f.pfs {
		if err := pf.Err(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Wait blocks until the operation completes and returns its modeled cost.
// Session totals are folded in by Batch.Wait, not here.
func (f *Future) Wait() (Stats, error) {
	if f.err != nil {
		return Stats{}, f.err
	}
	if err := f.runErr(); err != nil {
		return Stats{}, err
	}
	return f.stats, nil
}

// Batch is an asynchronous submission context over an Accelerator: Submit
// and SubmitReduce enqueue operations and return immediately, a worker pool
// sized from the scheduler's effective-bank count executes them. Requests
// touching distinct subarrays run concurrently; requests landing on the
// same subarray are serialized in submission order, which is exactly the
// order data dependencies between submitted operations need (a vector's
// stripe always lives in the same subarray), so chains like
// Submit(And, t, a, b); Submit(Or, dst, t, c) are safe without explicit
// synchronization.
//
// A Batch may be used from multiple goroutines; operations submitted
// concurrently have no defined order relative to each other. Multiple
// Batches on one Accelerator — and Batches running alongside synchronous
// Op/Reduce/Eval calls — are safe as long as the concurrently executing
// operations' vectors do not overlap: the accelerator's per-subarray locks
// serialize shared row state across contexts, but ordering between
// contexts is undefined (submission order only holds within one Batch).
// Call Wait to drain outstanding work and fold the batch's statistics into
// the accelerator totals; call Close when done with the batch.
type Batch struct {
	acc  *Accelerator
	pool *pipeline.Pool

	mu     sync.Mutex
	closed bool
	leased []*Future // submission order
}

// poolFreeCap bounds how many drained worker pools an accelerator keeps
// warm for reuse across Batch lifecycles. A caller opening one
// short-lived Batch per unit of work would otherwise spawn (and then tear
// down) one goroutine and one channel per worker each time.
const poolFreeCap = 4

// getPool fetches a recycled worker pool or constructs a fresh one. Pool
// size is a pure function of the accelerator's config (batchWorkers), so
// every recycled pool is interchangeable with a fresh one.
func (a *Accelerator) getPool() *pipeline.Pool {
	select {
	case p := <-a.poolFree:
		return p
	default:
		return pipeline.NewPoolObs(a.batchWorkers(), a.obsc)
	}
}

// recyclePool drains p and parks it for reuse, or shuts it down when the
// freelist is full.
func (a *Accelerator) recyclePool(p *pipeline.Pool) {
	p.Drain()
	select {
	case a.poolFree <- p:
	default:
		p.Close()
	}
}

// batchWorkers sizes a batch worker pool from the scheduler's
// effective-bank count under the current power constraint — the modeled
// hardware's own concurrency budget.
func (a *Accelerator) batchWorkers() int {
	workers := a.module.Banks()
	if u, err := a.opUnit(engine.OpAND); err == nil {
		eff := int(math.Ceil(u.banks))
		if eff >= 1 && eff < workers {
			workers = eff
		}
	}
	return workers
}

// Batch returns a new asynchronous submission context. The worker pool is
// sized by batchWorkers and recycled across batches (see getPool).
func (a *Accelerator) Batch() *Batch {
	return &Batch{acc: a, pool: a.getPool()}
}

// Workers returns the batch's worker-pool size.
func (b *Batch) Workers() int { return b.pool.Workers() }

// failed records and returns an already-failed future.
func (b *Batch) failed(err error) *Future {
	f := &Future{err: err}
	b.mu.Lock()
	b.leased = append(b.leased, f)
	b.mu.Unlock()
	return f
}

// opTasks builds the per-serialization-group pipeline tasks executing
// dst = op(x, y) over the grouped stripes (y nil for unary ops). The
// executor — and with it fast-path eligibility — is resolved now, at
// submission time: SetExecutor takes effect for operations started after
// the call, and a Submit is the operation's start. The groups argument is
// ordered by first stripe (see groupStripes), so the task slice — and with
// it pipeline.Future's "first error in task order" — is deterministic.
// Shared by Batch.Submit and ShardBatch.Submit.
func (a *Accelerator) opTasks(iop engine.Op, dst, x, y *bitvec.Vector, groups []stripeRun) []pipeline.Task {
	cols := a.cfg.Module.Columns
	ex, wrapped := a.executor()
	k := a.fastKernel(iop, wrapped)
	if k != nil {
		a.fastHits.Inc()
	} else {
		a.fastFallbacks.Inc()
	}
	tasks := make([]pipeline.Task, 0, len(groups))
	for _, g := range groups {
		g := g
		tasks = append(tasks, pipeline.Task{Group: g.group, Run: func() error {
			if k != nil {
				// Pure word-level body: no device row state, so no
				// per-subarray lock — the pipeline's per-group FIFO already
				// orders dependent submissions.
				for _, s := range g.list {
					start := a.obsc.SpanStart()
					fastStripe(k, dst, x, y, s, cols)
					a.stripeSpan(start, s, nil)
				}
				return nil
			}
			buf := a.getBuf()
			defer a.putBuf(buf)
			for _, s := range g.list {
				if err := a.runStripe(g.group, s, buf, func(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
					return a.opStripe(ex, iop, dst, x, y, s, sub, buf)
				}); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	return tasks
}

// Submit enqueues dst = op(x, y) (y nil for unary ops) and returns its
// future. Validation errors surface on the returned future and on Wait.
func (b *Batch) Submit(op Op, dst, x, y *BitVector) *Future {
	a := b.acc
	a.batchSubmitted.Inc()
	iop := op.internal()
	if err := validateOp(op, dst, x, y); err != nil {
		return b.failed(err)
	}

	cols := a.cfg.Module.Columns
	stripes := (x.Len() + cols - 1) / cols
	st, err := a.opCost(iop, stripes)
	if err != nil {
		return b.failed(err)
	}

	var yv *bitvec.Vector
	if y != nil {
		yv = y.v
	}
	tasks := a.opTasks(iop, dst.v, x.v, yv, a.groupStripes(stripes))
	return b.enqueue(tasks, []costTerm{{op: iop, st: st}}, st)
}

// reduceComponents computes a reduction's cost terms in the synchronous
// Reduce's accounting order — the staging copy, then one term per fold —
// plus their sum (shared by Batch.SubmitReduce, ShardBatch.SubmitReduce).
func (a *Accelerator) reduceComponents(iop engine.Op, operands, stripes int) ([]costTerm, Stats, error) {
	components := make([]costTerm, 0, operands)
	copySt, err := a.opCost(engine.OpCOPY, stripes)
	if err != nil {
		return nil, Stats{}, err
	}
	components = append(components, costTerm{op: engine.OpCOPY, st: copySt})
	cp, chained := a.eng.(chainProvider)
	for i := 1; i < operands; i++ {
		var st Stats
		if chained {
			st, err = a.chainCost(cp, iop, stripes)
		} else {
			st, err = a.opCost(iop, stripes)
		}
		if err != nil {
			return nil, Stats{}, err
		}
		components = append(components, costTerm{op: iop, st: st})
	}
	var total Stats
	for _, c := range components {
		total.add(c.st)
	}
	return components, total, nil
}

// reduceTasks builds the per-serialization-group pipeline tasks executing
// the staged reduction dst = vs[0] op vs[1] op ... over the grouped
// stripes (see opTasks for the resolution and ordering contract).
func (a *Accelerator) reduceTasks(iop engine.Op, dst *bitvec.Vector, vs []*bitvec.Vector, groups []stripeRun) []pipeline.Task {
	cols := a.cfg.Module.Columns
	ipe, inPlace := a.eng.(inPlaceExecutor)
	ex, wrapped := a.executor()
	k := a.fastKernel(iop, wrapped)
	kcopy := a.fastKernel(engine.OpCOPY, wrapped)
	fast := k != nil && kcopy != nil
	if fast {
		a.fastHits.Inc()
	} else {
		a.fastFallbacks.Inc()
	}
	tasks := make([]pipeline.Task, 0, len(groups))
	for _, g := range groups {
		g := g
		tasks = append(tasks, pipeline.Task{Group: g.group, Run: func() error {
			if fast {
				for _, s := range g.list {
					start := a.obsc.SpanStart()
					fastStripe(kcopy, dst, vs[0], nil, s, cols)
					for _, v := range vs[1:] {
						fastFoldStripe(k, dst, v, s, cols)
					}
					a.stripeSpan(start, s, nil)
				}
				return nil
			}
			buf := a.getBuf()
			defer a.putBuf(buf)
			for _, s := range g.list {
				// One lock hold per stripe covers the staging copy and the
				// whole fold chain; each step reloads its rows, so stripe
				// granularity is the widest atomicity the chain needs.
				if err := a.runStripe(g.group, s, buf, func(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
					if err := a.opStripe(ex, engine.OpCOPY, dst, vs[0], nil, s, sub, buf); err != nil {
						return err
					}
					for _, v := range vs[1:] {
						if err := a.foldStripe(ex, iop, ipe, inPlace, dst, v, s, sub, buf); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	return tasks
}

// SubmitReduce enqueues the asynchronous variant of Reduce:
// dst = vs[0] op vs[1] op ... (OpAnd / OpOr only).
func (b *Batch) SubmitReduce(op Op, dst *BitVector, vs ...*BitVector) *Future {
	a := b.acc
	a.batchSubmitted.Inc()
	if err := validateReduce(op, dst, vs); err != nil {
		return b.failed(err)
	}
	iop := op.internal()
	cols := a.cfg.Module.Columns
	stripes := (dst.Len() + cols - 1) / cols

	components, total, err := a.reduceComponents(iop, len(vs), stripes)
	if err != nil {
		return b.failed(err)
	}
	tasks := a.reduceTasks(iop, dst.v, vecsOf(vs), a.groupStripes(stripes))
	return b.enqueue(tasks, components, total)
}

// SubmitEval enqueues the asynchronous variant of Eval: the expression is
// compiled and validated now (failures surface on the returned future),
// the result vector is allocated and returned immediately, and its
// contents are defined once the future completes. The evaluation's total
// cost folds into the session totals on Wait without per-op series
// records, exactly as the synchronous Eval accounts.
func (b *Batch) SubmitEval(src string, vars map[string]*BitVector) (*BitVector, *Future) {
	a := b.acc
	a.batchSubmitted.Inc()
	ce, err := CompileExpr(src)
	if err != nil {
		return nil, b.failed(err)
	}
	n, err := a.evalPrep(ce.plan, vars)
	if err != nil {
		return nil, b.failed(err)
	}
	cols := a.cfg.Module.Columns
	stripes := (n + cols - 1) / cols
	total, err := a.evalCost(ce.plan.Prog, stripes)
	if err != nil {
		return nil, b.failed(err)
	}
	out := NewBitVector(n)
	r := a.evalResolve(ce.plan, vars, out)
	tasks := a.evalTasks(r, a.groupStripes(stripes))
	return out, b.enqueue(tasks, nil, total)
}

// vecsOf unwraps a BitVector slice to the underlying storage vectors.
func vecsOf(vs []*BitVector) []*bitvec.Vector {
	out := make([]*bitvec.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.v
	}
	return out
}

// enqueue hands tasks to the pool and registers the future. A closed
// batch fails the submission rather than touching its (possibly
// recycled) pool.
func (b *Batch) enqueue(tasks []pipeline.Task, components []costTerm, total Stats) *Future {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return b.failed(pipeline.ErrClosed)
	}
	pf, err := b.pool.Submit(tasks)
	if err != nil {
		return b.failed(err)
	}
	f := &Future{pfs: []*pipeline.Future{pf}, components: components, stats: total}
	b.mu.Lock()
	b.leased = append(b.leased, f)
	b.mu.Unlock()
	return f
}

// Wait drains every submitted operation, folds the cost of each successful
// one into the accelerator's session totals (in submission order, exactly
// as the synchronous path would), and returns the batch's accumulated
// stats plus the first error in submission order. Wait may be called
// repeatedly; operations are accounted once. Submissions racing with Wait
// from other goroutines are not guaranteed to be included.
func (b *Batch) Wait() (Stats, error) {
	b.acc.batchWaits.Inc()
	b.pool.Drain()
	b.mu.Lock()
	defer b.mu.Unlock()
	var total Stats
	var firstErr error
	for _, f := range b.leased {
		err := f.err
		if err == nil {
			err = f.runErr()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if f.accounted {
			continue
		}
		f.accounted = true
		if len(f.components) == 0 {
			// Eval submissions carry one aggregate cost with no per-op
			// terms, matching the synchronous Eval (totals only, no
			// per-op series records).
			b.acc.addTotals(f.stats)
			total.add(f.stats)
			continue
		}
		for _, c := range f.components {
			b.acc.addTotals(c.st)
			total.add(c.st)
			b.acc.record(c.op, c.st)
		}
	}
	return total, firstErr
}

// Close drains the batch's worker pool and recycles it for the
// accelerator's next Batch. Further Submit calls return a failed future.
// Close does not fold unaccounted statistics into the totals — call Wait
// first. Close is idempotent.
func (b *Batch) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.acc.recyclePool(b.pool)
}
