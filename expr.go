package elp2im

import (
	"errors"
	"fmt"
	"slices"

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
	pr := a.getRunner(false, "Eval", p.Source)
	pr.stepNamed(p, out.v, vars)
	return pr.run(a.stripes(n))
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

// stepTier is the execution tier a step resolved to.
type stepTier uint8

// The step tiers, in descending preference.
const (
	tierFused stepTier = iota
	tierCmd
)

// stepRunner is one step of a call — an Op's gate, a Reduce's copy or
// fold, an eval, or one µProgram step — with its resolved execution
// strategy. The tier — and with it executor and kernel resolution — is
// fixed once, at the call's start, in descending preference:
//
//  1. fusion tier: one derived k-input kernel per plan cluster, with the
//     cluster outputs in the walking worker's scratch;
//  2. command-accurate tier: the node-at-a-time program executed through
//     the device model's real command sequences, stripe by stripe.
//
// A runner is read-only once resolved. Every intermediate lives in the
// scratch or row buffer of the worker invoking it, so workers may run
// one runner concurrently over disjoint stripes.
type stepRunner struct {
	p    *plan.Plan
	off  int              // the step's first slot in progRunner.vecs
	vars []*bitvec.Vector // p.Vars' bound vectors, in plan order
	out  *bitvec.Vector
	tier stepTier

	fused []*kernel.Fused // fusion tier, one per cluster
	ex    Executor        // command tier
	rows  []int           // command tier: variable i's row, i
}

// progRunner is one call's step list — an Op is one step, a Reduce a
// copy and its folds, an eval one step, a µProgram one per µProgram
// step — executed block-major: every step resolves once, at the call's
// start, and each worker runs every step on one block of its stripes
// before moving to the next. A step's output, and a µProgram's carries
// and temps, are then still cache-resident when the next step reads
// them, instead of streaming through memory once per step. Step data
// flow is stripe-local (stripe s of a step reads only stripe s of
// earlier steps), so any walk that keeps each stripe's steps in order
// computes the same result. Runners are pooled with the slices they
// grew, so a call builds its steps without allocating.
type progRunner struct {
	a *Accelerator
	// opCall marks an Op or Reduce call, which ticks acc.fastpath.* once
	// and records each instruction's cost in its acc.op.* series; an
	// Eval or Arith call ticks acc.fusion.* once per step instead.
	opCall bool
	// span and spanOp label the call's facade span.
	span, spanOp string

	steps []stepRunner
	vecs  []*bitvec.Vector // every step's bound variables, back to back
	kerns []*kernel.Fused  // every fused step's kernels, back to back
	rows  []int            // the identity row map command steps share

	scratch int  // scratch words per worker: the most any fused step's slots take
	cmd     bool // some step runs on the command-accurate tier

	// share is the method value of walkShare, bound once per runner, so
	// handing it to the stripe dispatcher allocates nothing.
	share func(lo, hi int) (int, error)
}

// getRunner leases an empty step list for one call (see progRunner's
// fields for opCall, span and spanOp).
func (a *Accelerator) getRunner(opCall bool, span, spanOp string) *progRunner {
	pr, _ := a.runners.Get().(*progRunner)
	if pr == nil {
		pr = &progRunner{a: a}
		pr.share = pr.walkShare
	}
	pr.opCall, pr.span, pr.spanOp = opCall, span, spanOp
	return pr
}

// putRunner empties a finished call's step list, dropping its vector and
// executor references, and returns it to the pool.
func (a *Accelerator) putRunner(pr *progRunner) {
	clear(pr.steps)
	clear(pr.vecs)
	clear(pr.kerns)
	pr.steps, pr.vecs, pr.kerns = pr.steps[:0], pr.vecs[:0], pr.kerns[:0]
	a.runners.Put(pr)
}

// step appends a step running p into out and returns the slots of its
// variables, in p.Vars order, for the caller to bind.
func (pr *progRunner) step(p *plan.Plan, out *bitvec.Vector) []*bitvec.Vector {
	off := len(pr.vecs)
	pr.vecs = slices.Grow(pr.vecs, len(p.Vars))[:off+len(p.Vars)]
	pr.steps = append(pr.steps, stepRunner{p: p, off: off, out: out})
	return pr.vecs[off:]
}

// stepNamed appends a step running p into out with its variables bound
// by name from vars.
func (pr *progRunner) stepNamed(p *plan.Plan, out *bitvec.Vector, vars map[string]*BitVector) {
	vs := pr.step(p, out)
	for j, name := range p.Vars {
		vs[j] = vars[name].v
	}
}

// run executes the call: it resolves the steps, runs them over the
// stripes [0, stripes), and prices and charges them, emits the call's
// facade span, and returns the runner to the pool. A failed call charges
// nothing.
func (pr *progRunner) run(stripes int) (Stats, error) {
	a := pr.a
	start := a.obsc.SpanStart()
	pr.resolve()
	err := a.forEachStripe(stripes, pr.share)
	var st Stats
	if err == nil {
		st, err = pr.price(stripes)
	}
	a.callSpan(start, pr.span, pr.spanOp, stripes, st, err)
	a.putRunner(pr)
	return st, err
}

// resolve binds every step's variables and picks its tier: fused when
// the fast path is on (no executor installed with SetExecutor,
// word-aligned rows) and every cluster's kernel derives, else
// command-accurate. An Eval or Arith call counts one fusion hit or
// fallback per step; an Op or Reduce call one fastpath hit, when every
// step runs fused, or one fallback. Like every call, it reads the
// executor once, so SetExecutor takes effect for calls started after
// it.
func (pr *progRunner) resolve() {
	a := pr.a
	ex, wrapped := a.executor()
	fuse := !wrapped && a.cfg.Module.Columns%64 == 0
	pr.scratch, pr.cmd = 0, false
	clusters := 0
	for i := range pr.steps {
		clusters += len(pr.steps[i].p.Clusters)
	}
	// Reserving every kernel slot up front keeps each step's kernel list
	// a window of one backing array.
	pr.kerns = slices.Grow(pr.kerns, clusters)
	for i := range pr.steps {
		r := &pr.steps[i]
		r.vars = pr.vecs[r.off : r.off+len(r.p.Vars)]
		if i > 0 && r.p == pr.steps[i-1].p {
			// Consecutive steps of one plan — a Reduce's folds — share
			// its resolution.
			prev := &pr.steps[i-1]
			r.tier, r.fused, r.ex, r.rows = prev.tier, prev.fused, prev.ex, prev.rows
		} else if !fuse || !pr.fuseStep(r) {
			for len(pr.rows) < len(r.p.Vars) {
				pr.rows = append(pr.rows, len(pr.rows))
			}
			r.tier, r.ex, r.rows = tierCmd, ex, pr.rows[:len(r.p.Vars)]
		}
		if r.tier == tierCmd {
			pr.cmd = true
		} else if len(r.p.Clusters) > 1 {
			// A step's last cluster writes its output words directly, so
			// only a step of several clusters needs slots.
			pr.scratch = max(pr.scratch, r.p.Slots*fusedChunkWords)
		}
		switch {
		case pr.opCall:
		case r.tier == tierCmd:
			a.fusionFalls.Inc()
		default:
			a.fusionHits.Inc()
		}
	}
	switch {
	case !pr.opCall:
	case pr.cmd:
		a.fastFallbacks.Inc()
	default:
		a.fastHits.Inc()
	}
}

// fuseStep puts r on the fused tier with one derived kernel per plan
// cluster, reporting whether every cluster derived.
func (pr *progRunner) fuseStep(r *stepRunner) bool {
	start := len(pr.kerns)
	for i := range r.p.Clusters {
		fk, err := pr.a.fused.Fused(r.p.Clusters[i].Spec)
		if err != nil {
			pr.kerns = pr.kerns[:start]
			return false
		}
		pr.kerns = append(pr.kerns, fk)
	}
	r.tier, r.fused = tierFused, pr.kerns[start:]
	return true
}

// price is the one pricing function of every call kind: it sums the
// scheduled costs of the steps' node programs, instruction by
// instruction in step order, over `stripes` row operations, and charges
// the sum to the totals. Both tiers run the same steps, so they account
// identically. A fold — an instruction writing its B operand, see
// expr.Instr — is priced as the engine's chained form, every other
// instruction as the three-operand op. An Op or Reduce call also records
// each instruction's cost in its op's acc.op.* series. A pricing failure
// charges nothing to the totals.
func (pr *progRunner) price(stripes int) (Stats, error) {
	a := pr.a
	var total, st Stats
	last := costKey{op: -1} // no instruction's key
	for i := range pr.steps {
		// A step's instructions sum on their own before the call's total
		// takes the step, so a call's Stats round exactly as the sum of
		// its plans' own costs.
		var step Stats
		for _, in := range pr.steps[i].p.Prog.Instrs {
			k := costKey{op: in.Op, chained: in.Fold()}
			if k != last {
				// A run of one key — a Reduce's folds — is priced once.
				var err error
				if st, err = a.cost(k, stripes); err != nil {
					return Stats{}, err
				}
				last = k
			}
			step.add(st)
			if pr.opCall {
				a.series.record(in.Op, st)
			}
		}
		total.add(step)
	}
	a.charge(total)
	return total, nil
}

// fusedChunkWords is the block size of the fused tier: 8 KiB per vector
// view and per scratch slot keeps a block's step outputs and
// intermediates L1/L2-resident while still amortizing per-kernel setup
// over a thousand words.
const fusedChunkWords = 1024

// words runs a fused step over words [lo, hi) of its vectors (cut at
// their length), fusedChunkWords at a time, with the worker's scratch scr
// holding the cluster slots. The destination's canonical tail is
// re-masked when the range reaches its final word.
func (r *stepRunner) words(scr []uint64, lo, hi int) {
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
func (r *stepRunner) fusedChunk(scr []uint64, base, n int) {
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

// stripe runs a command-tier step on stripe s of rows cols bits wide:
// load the variable rows, execute the node-at-a-time program through the
// device model, store the result row.
func (r *stepRunner) stripe(sub *dram.Subarray, buf *bitvec.Vector, s, cols int) error {
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
// scr as their scratch; a run of consecutive command-tier steps runs
// stripe by stripe, each stripe's steps under one hold of its
// subarray's lock (runStripe), with row buffer buf. It returns the first
// failing stripe and its error.
func (pr *progRunner) walk(scr []uint64, buf *bitvec.Vector, lo, hi int) (int, error) {
	a := pr.a
	wpr := a.cfg.Module.Columns / 64
	per := 1
	if wpr > 0 && wpr < fusedChunkWords {
		per = fusedChunkWords / wpr
	}
	for blo := lo; blo < hi; blo += per {
		bhi := min(blo+per, hi)
		for i := 0; i < len(pr.steps); {
			if pr.steps[i].tier != tierCmd {
				pr.steps[i].words(scr, blo*wpr, bhi*wpr)
				i++
				continue
			}
			j := i + 1
			for j < len(pr.steps) && pr.steps[j].tier == tierCmd {
				j++
			}
			for s := blo; s < bhi; s++ {
				if err := a.runStripe(s, buf, pr.steps[i:j]); err != nil {
					return s, err
				}
			}
			i = j
		}
	}
	return 0, nil
}

// walkShare is one worker's body under forEachStripe: it leases the
// worker's private state — a scratch slab when a fused step needs slots
// and a row buffer when a step runs on the command-accurate tier, both
// from the accelerator's pools, so steady-state calls allocate neither —
// and walks the share [lo, hi).
func (pr *progRunner) walkShare(lo, hi int) (int, error) {
	a := pr.a
	var scr []uint64
	if pr.scratch > 0 {
		s := a.getScratch(pr.scratch)
		defer a.putScratch(s)
		scr = *s
	}
	var buf *bitvec.Vector
	if pr.cmd {
		buf = a.getBuf()
		defer a.putBuf(buf)
	}
	return pr.walk(scr, buf, lo, hi)
}
