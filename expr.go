package elp2im

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/plan"
)

// ErrBadExpr marks expression compilation failures — malformed source,
// unsupported shapes — as caller errors. Every error returned by
// CompileExpr (and by Eval for a bad expression) wraps it, so transports
// can map it to a client-error status (the HTTP server returns 400, not
// 500; see internal/server).
var ErrBadExpr = errors.New("bad expression")

// CompiledExpr is a compiled, reusable expression: the fused plan every
// eval call executes. Compile once with CompileExpr, evaluate many times
// over different bindings. A CompiledExpr is immutable and safe for
// concurrent use.
type CompiledExpr struct {
	plan *plan.Plan
}

// Vars returns the expression's variable names in first-appearance
// order. Callers must not modify the returned slice.
func (ce *CompiledExpr) Vars() []string { return ce.plan.Vars }

// Source returns the original expression text.
func (ce *CompiledExpr) Source() string { return ce.plan.Source }

// CompileExpr parses and compiles a boolean expression (& | ^ ~ and
// parentheses over identifiers) into its fused plan: the DAG is
// optimized (CSE, double-negation removal, NOT-into-gate fusion),
// partitioned into k-input clusters (k ≤ 6) for the fused kernel tier,
// and scheduled node-at-a-time for cost accounting and the
// command-accurate fallback (see internal/plan). Any failure wraps
// ErrBadExpr.
func CompileExpr(src string) (*CompiledExpr, error) {
	node, err := expr.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("elp2im: %w: %v", ErrBadExpr, err)
	}
	d, err := expr.BuildDAG(node)
	if err != nil {
		return nil, fmt.Errorf("elp2im: %w: %v", ErrBadExpr, err)
	}
	p, err := plan.Compile(d)
	if err != nil {
		return nil, fmt.Errorf("elp2im: %w: %v", ErrBadExpr, err)
	}
	return &CompiledExpr{plan: p}, nil
}

// Eval evaluates a boolean expression over named bulk bit-vectors entirely
// in DRAM and returns the result vector plus the modeled cost.
//
// The expression is compiled once per call — CompileExpr then EvalExpr;
// callers evaluating one expression repeatedly should compile it once
// themselves:
//
//	res, stats, err := acc.Eval("(dirty & ~referenced) | evicted", map[string]*BitVector{
//	    "dirty": d, "referenced": r, "evicted": e,
//	})
//
// All vectors must share one length. The subarray needs enough data rows
// for the variables plus the compiled temp count.
func (a *Accelerator) Eval(src string, vars map[string]*BitVector) (*BitVector, Stats, error) {
	ce, err := CompileExpr(src)
	if err != nil {
		return nil, Stats{}, err
	}
	return a.EvalExpr(ce, vars)
}

// EvalExpr evaluates a compiled expression over named bulk bit-vectors
// (see Eval). Execution picks the tier per call — fused cluster kernels,
// or the command-accurate device model — with bit-identical results and
// modeled cost on both.
func (a *Accelerator) EvalExpr(ce *CompiledExpr, vars map[string]*BitVector) (*BitVector, Stats, error) {
	n, err := a.evalPrep(ce.plan, vars)
	if err != nil {
		return nil, Stats{}, err
	}
	out := NewBitVector(n)
	st, err := a.EvalExprInto(ce, vars, out)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}

// EvalExprInto is EvalExpr writing the result into out, which must have
// the operands' length and must not be one of them. Every word of out is
// overwritten, so a recycled vector needs no clearing; a caller
// evaluating many expressions of one length can reuse one result vector.
func (a *Accelerator) EvalExprInto(ce *CompiledExpr, vars map[string]*BitVector, out *BitVector) (Stats, error) {
	p := ce.plan
	n, err := a.evalOut(p, vars, out)
	if err != nil {
		return Stats{}, err
	}
	stripes := a.stripes(n)
	if err := a.evalResolve(p, vars, out).exec(stripes); err != nil {
		return Stats{}, err
	}

	// Cost: per-stripe program cost, bank parallelism applied per op mix.
	// The node-at-a-time program is the single cost source for both
	// execution tiers, so fused and command-accurate runs account
	// identically.
	total, err := a.evalCost(p.Prog, stripes)
	if err != nil {
		return Stats{}, err
	}
	a.charge(total)
	return total, nil
}

// evalOut is evalPrep plus the checks on a caller-supplied result
// vector: it must match the operands' length and alias none of them.
func (a *Accelerator) evalOut(p *plan.Plan, vars map[string]*BitVector, out *BitVector) (int, error) {
	n, err := a.evalPrep(p, vars)
	if err != nil {
		return 0, err
	}
	if out == nil || out.Len() != n {
		return 0, errors.New("elp2im: eval result vector nil or length mismatch")
	}
	for _, name := range p.Vars {
		if vars[name] == out {
			return 0, fmt.Errorf("elp2im: eval result vector aliases variable %q", name)
		}
	}
	return n, nil
}

// evalPrep validates that every plan variable is bound to a vector of one
// common length and checks the subarray row budget of the
// command-accurate tier (rowDemand). It returns the common length.
func (a *Accelerator) evalPrep(p *plan.Plan, vars map[string]*BitVector) (int, error) {
	n := -1
	for _, name := range p.Vars {
		v, ok := vars[name]
		if !ok || v == nil {
			return 0, fmt.Errorf("elp2im: expression variable %q not bound", name)
		}
		if n == -1 {
			n = v.Len()
		} else if v.Len() != n {
			return 0, errors.New("elp2im: expression vectors must share one length")
		}
	}
	if n == -1 {
		return 0, errors.New("elp2im: expression has no variables")
	}

	if need := a.rowDemand(p.Prog); need > a.cfg.Module.RowsPerSubarray {
		return 0, fmt.Errorf("elp2im: expression needs %d rows per subarray, module has %d",
			need, a.cfg.Module.RowsPerSubarray)
	}
	return n, nil
}

// rowReserver is implemented by engines whose functional executor keeps
// rows of the data region for itself (Ambit's B-group, DRISA-NOR's
// scratch rows): top rows at the top of the region that operands must
// not occupy, and the fewest data rows the executor accepts.
type rowReserver interface {
	ReservedDataRows() (top, minRows int)
}

// rowDemand is the subarray row demand of prog's command-accurate
// execution on this accelerator's engine: a row per variable and per
// temp slot; one staging row when the engine consumes XOR/XNOR's A row
// (engine.OperandConsumer — ELP2IM's two-buffer sequences), through which
// the program re-stages live operands; and the rows the engine keeps at
// the top of the data region for itself (rowReserver), with at least the
// engine's minimum subarray size. Every tier checks it, so an eval that
// runs fused would also run command-accurate.
func (a *Accelerator) rowDemand(prog *expr.Program) int {
	need := len(prog.Vars) + prog.TempSlots
	if oc, ok := a.eng.(engine.OperandConsumer); ok {
		for _, in := range prog.Instrs {
			if oc.ConsumesOperandA(in.Op) {
				need++
				break
			}
		}
	}
	if rr, ok := a.eng.(rowReserver); ok {
		top, minRows := rr.ReservedDataRows()
		need = max(need+top, minRows)
	}
	return need
}

// ExprRowDemand reports the subarray row demand of a compiled
// expression's command-accurate execution against this accelerator's
// module: need counts the rows the program's variables, temps and
// operand staging take plus the rows the engine reserves for itself (see
// rowDemand), have is the module's rows per subarray. Eval refuses an
// expression with need > have on every tier; serving layers use the
// pair to refuse over-deep predicates with a client error before
// admission.
func (a *Accelerator) ExprRowDemand(ce *CompiledExpr) (need, have int) {
	return a.rowDemand(ce.plan.Prog), a.cfg.Module.RowsPerSubarray
}

// FusionCounters reports the accelerator's eval-tier resolution counts:
// hits is the number of eval and µProgram steps that ran on the
// fused-kernel tier, fallbacks the number that ran on the
// command-accurate model instead (an executor installed with
// SetExecutor, a geometry that is not word-aligned, or a cluster whose
// kernel did not derive). The pair is the serving layer's visibility
// into whether predicates compiled through the plan IR actually execute
// fused.
func (a *Accelerator) FusionCounters() (hits, fallbacks int64) {
	return a.fusionHits.Value(), a.fusionFalls.Value()
}

// evalCost sums the program's per-instruction scheduled costs over
// `stripes` row operations.
func (a *Accelerator) evalCost(prog *expr.Program, stripes int) (Stats, error) {
	var total Stats
	for _, in := range prog.Instrs {
		st, err := a.cost(costKey{op: in.Op}, stripes)
		if err != nil {
			return Stats{}, err
		}
		total.add(st)
	}
	return total, nil
}

// evalTier is the execution tier a plan resolved to.
type evalTier uint8

// The eval tiers, in descending preference.
const (
	tierFused evalTier = iota
	tierCmd
)

// evalRunner is one plan's resolved execution strategy within a call: a
// single eval, or one step of a µProgram. The tier — and with it executor
// and kernel resolution — is fixed once, at the call's start, in
// descending preference:
//
//  1. fusion tier: one derived k-input kernel per plan cluster, with the
//     cluster outputs in the walking worker's scratch;
//  2. command-accurate tier: the node-at-a-time program executed through
//     the device model's real command sequences, stripe by stripe.
//
// A runner is read-only once resolved. Every intermediate lives in the
// scratch or row buffer of the worker invoking it, so workers may run
// one runner concurrently over disjoint stripes.
type evalRunner struct {
	a    *Accelerator
	p    *plan.Plan
	vars []*bitvec.Vector // p.Vars' bound vectors, in plan order
	out  *bitvec.Vector
	tier evalTier

	fused []*kernel.Fused // fusion tier, one per cluster
	ex    Executor        // command tier
	rows  []int           // command tier: variable i's row, i
}

// progRunner is one call's resolved step list — a single eval is one
// step, a µProgram one per µProgram step — executed block-major: every
// step resolves once, at the call's start, and each worker runs every
// step on one block of its stripes before moving to the next. A step's
// output, and a µProgram's carries and temps, are then still
// cache-resident when the next step reads them, instead of streaming
// through memory once per step. Step data flow is stripe-local (stripe s
// of a step reads only stripe s of earlier steps), so any walk that keeps
// each stripe's steps in order computes the same result.
type progRunner struct {
	a       *Accelerator
	steps   []evalRunner
	scratch int  // scratch words per worker: the widest fused step's
	cmd     bool // some step runs on the command-accurate tier
}

// fusedChunkWords is the block size of the fused tier: 8 KiB per vector
// view and per scratch slot keeps a block's step outputs and
// intermediates L1/L2-resident while still amortizing per-kernel setup
// over a thousand words.
const fusedChunkWords = 1024

// evalResolve resolves a single eval of p into out.
func (a *Accelerator) evalResolve(p *plan.Plan, vars map[string]*BitVector, out *BitVector) *progRunner {
	return a.resolveSteps(1, vars, func(int) (*plan.Plan, *BitVector) { return p, out })
}

// resolveSteps resolves a call of n steps over one binding set — step(i)
// returns step i's plan and destination — and picks each step's tier:
// fused when the fast path is on (no executor installed with SetExecutor,
// word-aligned rows) and every cluster's kernel derives, else
// command-accurate. It counts one fusion hit or one fusion fallback per
// step, as resolving each step alone would (the fastpath counters count
// Op and Reduce dispatches only); like Op and Reduce, it reads the
// executor once, so SetExecutor takes effect for calls started after it.
// The runners, bound-vector lists and kernel lists of all steps share one
// allocation each.
func (a *Accelerator) resolveSteps(n int, vars map[string]*BitVector, step func(i int) (*plan.Plan, *BitVector)) *progRunner {
	ex, wrapped := a.executor()
	fuse := !wrapped && a.cfg.Module.Columns%64 == 0
	nVars, nClusters, maxVars := 0, 0, 0
	for i := 0; i < n; i++ {
		p, _ := step(i)
		nVars += len(p.Vars)
		nClusters += len(p.Clusters)
		maxVars = max(maxVars, len(p.Vars))
	}
	pr := &progRunner{a: a, steps: make([]evalRunner, n)}
	vecs := make([]*bitvec.Vector, nVars)
	var fused []*kernel.Fused
	if fuse {
		fused = make([]*kernel.Fused, nClusters)
	}
	var rows []int
	for i := range pr.steps {
		p, out := step(i)
		r := &pr.steps[i]
		r.a, r.p, r.out = a, p, out.v
		r.vars, vecs = vecs[:len(p.Vars):len(p.Vars)], vecs[len(p.Vars):]
		for j, name := range p.Vars {
			r.vars[j] = vars[name].v
		}

		if fuse {
			fs := fused[:len(p.Clusters):len(p.Clusters)]
			if a.fusedKernels(p, fs) {
				a.fusionHits.Inc()
				r.tier, r.fused, fused = tierFused, fs, fused[len(fs):]
				pr.scratch = max(pr.scratch, p.Slots*fusedChunkWords)
				continue
			}
		}
		a.fusionFalls.Inc()

		if rows == nil {
			rows = make([]int, maxVars)
			for j := range rows {
				rows[j] = j
			}
		}
		r.tier, r.ex, r.rows = tierCmd, ex, rows[:len(p.Vars)]
		pr.cmd = true
	}
	return pr
}

// fusedKernels resolves one fused kernel per cluster of p into fs,
// reporting whether every cluster derived.
func (a *Accelerator) fusedKernels(p *plan.Plan, fs []*kernel.Fused) bool {
	for i := range p.Clusters {
		fk, err := a.fused.Fused(p.Clusters[i].Spec)
		if err != nil {
			return false
		}
		fs[i] = fk
	}
	return true
}

// words runs a fused step over words [lo, hi) of its vectors (cut at
// their length), fusedChunkWords at a time, with the worker's scratch scr
// holding the cluster slots. The destination's canonical tail is
// re-masked when the range reaches its final word.
func (r *evalRunner) words(scr []uint64, lo, hi int) {
	ow := r.out.Words()
	hi = min(hi, len(ow))
	for base := lo; base < hi; base += fusedChunkWords {
		r.fusedChunk(scr, base, min(hi-base, fusedChunkWords))
	}
	if lo < hi && hi == len(ow) {
		r.out.MaskTail()
	}
}

// fusedChunk runs the cluster chain over the n words at base: every
// inter-cluster value stays in the chunk-sized scratch slots, and only
// variable reads and the final result touch the vectors.
func (r *evalRunner) fusedChunk(scr []uint64, base, n int) {
	p := r.p
	view := func(ref plan.Ref) []uint64 {
		if ref.Var {
			return r.vars[ref.Index].Words()[base : base+n]
		}
		off := ref.Index * fusedChunkWords
		return scr[off : off+n]
	}
	ow := r.out.Words()[base : base+n]
	if len(p.Clusters) == 0 {
		copy(ow, view(p.Result()))
		return
	}
	var srcs [kernel.MaxFusedInputs][]uint64
	last := len(p.Clusters) - 1
	for ci := range p.Clusters {
		c := &p.Clusters[ci]
		for j, in := range c.Inputs {
			srcs[j] = view(in)
		}
		// The final cluster lands directly in the output words; earlier
		// clusters fill their liveness-allocated slot.
		dst := ow
		if ci != last {
			dst = view(plan.Ref{Index: c.Out})
		}
		r.fused[ci].Apply(dst, srcs[:len(c.Inputs)])
	}
}

// stripe runs a command-tier step on stripe s: load the variable rows,
// execute the node-at-a-time program through the device model, store
// the result row.
func (r *evalRunner) stripe(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
	cols := r.a.cfg.Module.Columns
	for i, v := range r.vars {
		loadStripe(buf, v, s, cols)
		sub.LoadRow(r.rows[i], buf)
	}
	resRow, err := r.p.Prog.Execute(sub, r.ex, r.rows, len(r.vars))
	if err != nil {
		return err
	}
	storeStripe(r.out, sub.RowData(resRow), s, cols)
	return nil
}

// walk runs every step over the contiguous stripes [lo, hi) one block at
// a time. A block is as many whole stripes as fit in fusedChunkWords
// words (one stripe when a row is wider), and every step runs on it
// before the walk moves on. Fused steps run on the block's words with
// scr as their scratch; a command-tier step runs stripe by stripe,
// each under its subarray's lock (runStripe), with row buffer buf. It
// returns the first failing stripe and its error.
func (pr *progRunner) walk(scr []uint64, buf *bitvec.Vector, lo, hi int) (int, error) {
	a := pr.a
	wpr := a.cfg.Module.Columns / 64
	per := 1
	if wpr > 0 && wpr < fusedChunkWords {
		per = fusedChunkWords / wpr
	}
	for blo := lo; blo < hi; blo += per {
		bhi := min(blo+per, hi)
		for i := range pr.steps {
			r := &pr.steps[i]
			if r.tier != tierCmd {
				r.words(scr, blo*wpr, bhi*wpr)
				continue
			}
			for s := blo; s < bhi; s++ {
				if err := a.runStripe(s, buf, r.stripe); err != nil {
					return s, err
				}
			}
		}
	}
	return 0, nil
}

// lease takes one worker's private state for its walks: a scratch slab
// for the fused tier and, when a step runs on the command-accurate tier,
// a row buffer. Both come from the accelerator's pools, so steady-state
// calls allocate neither.
func (pr *progRunner) lease() (*[]uint64, *bitvec.Vector) {
	var buf *bitvec.Vector
	if pr.cmd {
		buf = pr.a.getBuf()
	}
	return pr.a.getScratch(pr.scratch), buf
}

// release returns a lease's state to the pools.
func (pr *progRunner) release(scr *[]uint64, buf *bitvec.Vector) {
	pr.a.putScratch(scr)
	if buf != nil {
		pr.a.putBuf(buf)
	}
}

// exec runs the steps over the stripes [0, stripes) with one fork-join
// through forEachStripe: each worker leases its state once and walks its
// share block-major. On failure the lowest failing stripe's error is
// returned.
func (pr *progRunner) exec(stripes int) error {
	return pr.a.forEachStripe(stripes, func(lo, hi int) (int, error) {
		scr, buf := pr.lease()
		defer pr.release(scr, buf)
		return pr.walk(*scr, buf, lo, hi)
	})
}
