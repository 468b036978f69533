package kernel

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/expr"
)

// MaxFusedInputs is the largest input arity a fused kernel supports. Six
// inputs give a 64-entry truth table — exactly one 64-bit probe word —
// so deriving a k-input kernel costs a single engine run regardless of
// how many gates it fuses.
const MaxFusedInputs = 6

// FusedSpec is a fused cluster's register program: an expr.Program
// whose variables are the kernel inputs, in order, and whose result —
// the last instruction's destination, a temp — is the kernel's value.
// The plan compiler (internal/plan) schedules one per cluster with
// expr.DAG.Schedule, the scheduler of the node program the command tier
// runs, so a cluster's AND/OR chains are the same folds and chain-head
// COPYs; DeriveFused runs the program through expr.Program.Execute on
// the device model to learn — never assume — its truth table.
type FusedSpec struct {
	// Prog is the register program.
	Prog *expr.Program
	// Key, when set, is the spec's CacheKey, computed once by whoever
	// builds the spec (the plan compiler does, per cluster) so that
	// FusedSet lookups build no string. FusedSet computes it when empty.
	Key string
}

// CacheKey returns the spec's canonical cache key, the identity FusedSet
// memoizes kernels by: everything derivation reads of the program — its
// input and temp counts and its instructions, which name their operands
// by index — so equal programs over different variables share one key
// and one kernel.
func (sp *FusedSpec) CacheKey() string {
	if sp.Prog == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "k%d t%d", len(sp.Prog.Vars), sp.Prog.TempSlots)
	for _, in := range sp.Prog.Instrs {
		fmt.Fprintf(&b, "; %v", in)
	}
	return b.String()
}

// Execution geometry of a fused kernel's word loops. Packing keeps the
// gate values inside a pass in machine registers, so the scratch file
// carries only inter-pass values: blocks of 1024 words (8 KiB per
// register) amortize the per-block view setup and indirect pass calls
// down to noise while the few live scratch rows stay cache-resident. 32
// scratch registers bound the packed program's live values (a program
// needing more fails derivation and the caller runs the cluster on the
// command-accurate tier).
const (
	fusedBlockWords = 1024
	fusedMaxScratch = 32
)

// fusedScratch pools Apply's per-call register file (256 KiB: 32
// registers of 1,024 words): getting a used file skips the zeroing a
// fresh stack array would pay on every call, which dominates when Apply
// runs once per stripe.
var fusedScratch = sync.Pool{
	New: func() any { return new([fusedMaxScratch][fusedBlockWords]uint64) },
}

// gate is one word-level gate of a lowered program in SSA form: a 4-bit
// binary truth table over two operand values. Value encoding: 0..k-1 are
// the kernel inputs, k+i is gate i's value. lower produces one gate per
// instruction; pack tiles them into passes.
type gate struct {
	tab  uint8
	a, b int
}

// fusedMacro is one packed execution pass: a word loop (loops.go) over
// up to four operands. Operand encoding: 0..k-1 are the kernel inputs,
// k+r is scratch register r; operand slots the loop does not read hold
// 0, which is always a valid view.
type fusedMacro struct {
	fn              wordLoop
	dst, a, b, c, d uint8
}

// Fused is a compiled k-input word-level kernel: the whole cluster of
// gates runs as a few passes over each block of the operand words. It
// is the spec's own register program lowered gate for gate, kept only
// after DeriveFused has checked it against the engine running that
// program on every input combination and on full-word patterns, so a
// fused kernel cannot disagree with the command-accurate execution of
// its spec. Apply is safe for concurrent use.
type Fused struct {
	k        int
	table    uint64
	ops      int          // gates of the lowered program
	macros   []fusedMacro // packed execution passes (see pack)
	nscratch int
	res      uint8
}

// K returns the kernel's input arity.
func (f *Fused) K() int { return f.k }

// Table returns the derived truth table: bit i holds the function value
// where input j = (i>>j)&1, for i < 2^K.
func (f *Fused) Table() uint64 { return f.table }

// Ops returns the gate count of the compiled program: the cluster's
// logical cost, NOT gates included and a chain head's staging COPY not.
func (f *Fused) Ops() int { return f.ops }

// Passes returns the number of word loops Apply runs per block. A pass
// covers at least one gate (a NOT folds into its consumer's pass), so
// Passes ≤ Ops; the loops are bound by memory traffic, so the pass
// count, not the gate count, is what Apply's runtime scales with.
func (f *Fused) Passes() int { return len(f.macros) }

// String renders the kernel for diagnostics.
func (f *Fused) String() string {
	return fmt.Sprintf("fused(k=%d, table=%#x, ops=%d, passes=%d)", f.k, f.table, f.ops, len(f.macros))
}

// Apply computes dst = f(srcs...) word-wise over len(dst) words, running
// the packed passes block by block: every pass over one block of at most
// 1024 words before the next block. srcs must hold K slices of at least
// len(dst) words, whole vectors or one block of them alike. A one-pass
// kernel (Passes() == 1, which every one-gate kernel is) is a single word
// loop over the sources, which loops.go makes safe when dst aliases one;
// in a longer program dst must not overlap any source, since later
// passes re-read the sources after earlier ones wrote dst. Tail bits
// beyond the caller's logical vector length are written like any others
// — callers that maintain a canonical form must re-mask.
func (f *Fused) Apply(dst []uint64, srcs [][]uint64) {
	if len(f.macros) == 1 {
		// One pass reads only inputs and writes only the result, which
		// is dst: it needs no register file and no blocking.
		in, n := &f.macros[0], len(dst)
		in.fn(dst, srcs[in.a][:n], srcs[in.b][:n], srcs[in.c][:n], srcs[in.d][:n])
		return
	}
	// Block-wise evaluation: a pooled scratch register file, with every
	// operand resolved once per block into a view slice. The result
	// register's view aliases dst directly, so the final value needs no
	// copy-out. Pooled files are reused without zeroing — compiled
	// programs define every scratch register before reading it.
	file := fusedScratch.Get().(*[fusedMaxScratch][fusedBlockWords]uint64)
	defer fusedScratch.Put(file)
	var view [MaxFusedInputs + fusedMaxScratch][]uint64
	n := len(dst)
	for base := 0; base < n; base += fusedBlockWords {
		m := n - base
		if m > fusedBlockWords {
			m = fusedBlockWords
		}
		for j := 0; j < f.k; j++ {
			view[j] = srcs[j][base : base+m]
		}
		for r := 0; r < f.nscratch; r++ {
			view[f.k+r] = file[r][:m]
		}
		view[f.res] = dst[base : base+m]
		for i := range f.macros {
			in := &f.macros[i]
			in.fn(view[in.dst], view[in.a], view[in.b], view[in.c], view[in.d])
		}
	}
}

// pack tiles a lowered program (see lower) into passes over the word
// loops of loops.go, so each pass streams its operands once and keeps
// the gate values inside it in machine registers. Apply's runtime scales
// with the pass count: the loops are bound by memory traffic, so a
// two-level pass costs about what a one-gate pass costs.
//
// pack counts uses over the values reachable from the result, the last
// gate. A single-use NOT folds into its consumer's truth table (the
// consumer reads the NOT's operand with that column inverted), and a NOT
// at the result into its operand's gate. Tiling then runs from the
// result: a gate whose table is a core (AND, OR or XOR) flattens the
// single-use gates of its own core below it into one operand list, takes
// every single-use core gate in that list as a child, and combines two
// children per pass with the two-level loops q(l(a,b), r(c,d)), pairing
// bare operands into children of its own core; any other gate runs as
// its own gate-loop pass. Operands are materialized before the passes
// that read them, and multi-use values exactly once, so the packed
// program never duplicates gate work. A fresh liveness-scan register
// allocation over the passes bounds scratch at fusedMaxScratch. pack
// folds NOTs into vals in place.
func pack(k int, vals []gate) (*Fused, error) {
	root := k + len(vals) - 1

	// Use counts over values reachable from the result. An operand read
	// twice by one gate counts twice: fusing it would duplicate its work,
	// so only uses == 1 values are candidates.
	uses := make([]int, len(vals))
	var markUses func(op int)
	markUses = func(op int) {
		if op < k {
			return
		}
		i := op - k
		uses[i]++
		if uses[i] > 1 {
			return
		}
		markUses(vals[i].a)
		markUses(vals[i].b)
	}
	markUses(root)
	single := func(op int) bool { return op >= k && uses[op-k] == 1 }

	// Fold NOTs (table 0b0101 is ¬a, 0b0011 is ¬b), in program order so
	// that a NOT of a NOT folds away too. Inverting a consumer's a column
	// swaps its table bits 0↔1 and 2↔3; its b column, bits 0↔2 and 1↔3.
	notOf := func(op int) (int, bool) {
		if !single(op) {
			return 0, false
		}
		switch v := vals[op-k]; v.tab {
		case 0b0101:
			return v.a, true
		case 0b0011:
			return v.b, true
		}
		return 0, false
	}
	for i := range vals {
		v := &vals[i]
		for x, ok := notOf(v.a); ok; x, ok = notOf(v.a) {
			v.a, v.tab = x, v.tab&0b0101<<1|v.tab&0b1010>>1
		}
		for x, ok := notOf(v.b); ok; x, ok = notOf(v.b) {
			v.b, v.tab = x, v.tab&0b0011<<2|v.tab&0b1100>>2
		}
	}
	for x, ok := notOf(root); ok && single(x); x, ok = notOf(root) {
		vals[x-k].tab ^= 0b1111
		root = x
	}

	// Tile from the result. Operand space for macroIR: inputs 0..k-1,
	// then k+i for pass i's output; -1 marks an unused slot.
	type macroIR struct {
		fn  wordLoop
		ops [4]int
	}
	var macros []macroIR
	pass := func(fn wordLoop, ops [4]int) int {
		macros = append(macros, macroIR{fn, ops})
		return k + len(macros) - 1
	}
	coreOf := func(op int) int {
		for c, t := range coreTabs {
			if vals[op-k].tab == t {
				return c
			}
		}
		return -1
	}
	// child is one side of a two-level pass: core gate l over the
	// materialized operands a and b, or (l == coreBare) operand a alone.
	type child struct{ l, a, b int }
	memo := make([]int, len(vals))
	for i := range memo {
		memo[i] = -1
	}
	var emit func(op int) int
	emit = func(op int) int {
		if op < k {
			return op
		}
		if m := memo[op-k]; m >= 0 {
			return m
		}
		v := vals[op-k]
		q := coreOf(op)
		if q < 0 {
			memo[op-k] = pass(gateLoops[v.tab], [4]int{emit(v.a), emit(v.b), -1, -1})
			return memo[op-k]
		}
		var leaves []int
		var flatten func(o int)
		flatten = func(o int) {
			if o != op && !(single(o) && vals[o-k].tab == v.tab) {
				leaves = append(leaves, o)
				return
			}
			flatten(vals[o-k].a)
			flatten(vals[o-k].b)
		}
		flatten(op)
		var gates []child
		var bares []int
		for _, o := range leaves {
			if single(o) && coreOf(o) >= 0 {
				gates = append(gates, child{coreOf(o), emit(vals[o-k].a), emit(vals[o-k].b)})
			} else {
				bares = append(bares, emit(o))
			}
		}
		// take fills one side: a gate child first, else a pair of bare
		// operands when pair allows it, else one bare operand.
		take := func(pair bool) child {
			var c child
			switch {
			case len(gates) > 0:
				c, gates = gates[0], gates[1:]
			case pair:
				c, bares = child{q, bares[0], bares[1]}, bares[2:]
			default:
				c, bares = child{coreBare, bares[0], -1}, bares[1:]
			}
			return c
		}
		for {
			// The first side takes a pair only if a bare operand is left
			// for the second.
			x := take(len(bares) >= 3)
			y := take(len(bares) >= 2)
			if x.l > y.l {
				x, y = y, x
			}
			var out int
			if x.l == coreBare {
				out = pass(gateLoops[coreTabs[q]], [4]int{x.a, y.a, -1, -1})
			} else {
				out = pass(twoLevel[q][x.l][y.l], [4]int{x.a, x.b, y.a, y.b})
			}
			if len(gates)+len(bares) == 0 {
				memo[op-k] = out
				return out
			}
			bares = append([]int{out}, bares...)
		}
	}
	emit(root)

	// Liveness-scan register allocation over the passes; the result pass
	// lives to the end so its view can alias dst.
	last := make([]int, len(macros))
	for i, m := range macros {
		for _, op := range m.ops {
			if op >= k {
				last[op-k] = i
			}
		}
	}
	last[len(macros)-1] = len(macros)

	reg := make([]int, len(macros))
	nscratch := 0
	var free []int
	packed := make([]fusedMacro, len(macros))
	for i, m := range macros {
		var enc [4]uint8
		for j, op := range m.ops {
			switch {
			case op < 0:
				enc[j] = 0 // unused slot: any valid view
			case op < k:
				enc[j] = uint8(op)
			default:
				enc[j] = uint8(k + reg[op-k])
			}
		}
		// Free dying operands — each value once, however many slots it
		// fills — so the destination may reuse a dying operand's register.
		for j, op := range m.ops {
			if op < k || last[op-k] != i {
				continue
			}
			dup := false
			for _, p := range m.ops[:j] {
				if p == op {
					dup = true
				}
			}
			if !dup {
				free = append(free, reg[op-k])
			}
		}
		var r int
		if n := len(free); n > 0 {
			r = free[n-1]
			free = free[:n-1]
		} else {
			r = nscratch
			nscratch++
		}
		reg[i] = r
		packed[i] = fusedMacro{fn: m.fn, dst: uint8(k + r), a: enc[0], b: enc[1], c: enc[2], d: enc[3]}
	}
	if nscratch > fusedMaxScratch {
		return nil, fmt.Errorf("kernel: fused packing needs %d scratch registers, max %d", nscratch, fusedMaxScratch)
	}
	return &Fused{
		k:        k,
		ops:      len(vals),
		macros:   packed,
		nscratch: nscratch,
		res:      uint8(k + reg[len(macros)-1]),
	}, nil
}

// varPat64 holds the packed probe pattern of input j: bit i = (i>>j)&1.
// The patterns are periodic in 2^K for any K ≤ 6, so one 64-bit word
// probes every input combination at once (with combinations repeating
// when K < 6 — free redundancy the derivation cross-checks).
var varPat64 = [MaxFusedInputs]uint64{
	0xAAAA_AAAA_AAAA_AAAA,
	0xCCCC_CCCC_CCCC_CCCC,
	0xF0F0_F0F0_F0F0_F0F0,
	0xFF00_FF00_FF00_FF00,
	0xFFFF_0000_FFFF_0000,
	0xFFFF_FFFF_0000_0000,
}

// fusedVerifyWords are fixed full-word operand patterns for the
// post-derivation verification run (one per possible input).
var fusedVerifyWords = [MaxFusedInputs]uint64{
	0xA5F0_0FC3_5A3C_96E1,
	0x0FF0_C3A5_E196_3CA5,
	0xDEAD_BEEF_0135_8BD9,
	0x7E57_AB1E_C0FF_EE11,
	0x1234_5678_9ABC_DEF0,
	0x8642_FDB9_7531_ECA8,
}

// tableMask returns the 2^k-bit truth-table mask.
func tableMask(k int) uint64 {
	if k >= MaxFusedInputs {
		return ^uint64(0)
	}
	return 1<<(1<<uint(k)) - 1
}

// DeriveFused compiles the spec to a word-level kernel grounded in the
// device model. It lowers the spec's program gate for gate (lower),
// which rejects a malformed program before the device runs anything,
// then runs the program through exec on a scratch subarray with
// expr.Program.Execute, the command tier's interpreter — so a fold runs
// in place where exec can — over all 2^K input combinations packed into
// one 64-column run, and reads the k-input truth table back from the
// result row. It packs the gates into passes and keeps the kernel only
// if it reproduces the probed word and agrees with a second engine run
// on full-word operand patterns. An engine error, behaviour that is not
// uniform across bit positions, a program with no word-level lowering,
// or a kernel that disagrees with the device fails derivation, so the
// caller stays on a command-accurate path.
func DeriveFused(exec engine.Executor, spec FusedSpec, module dram.Config) (*Fused, error) {
	if exec == nil {
		return nil, fmt.Errorf("kernel: nil executor")
	}
	gates, err := lower(spec.Prog)
	if err != nil {
		return nil, err
	}
	prog, k := spec.Prog, len(spec.Prog.Vars)
	dcc := module.DualContactRows
	if dcc < 2 {
		// Ambit's NOT path and the two-buffer ELP2IM sequences need up to
		// two dual-contact rows; granting the probe both is always legal.
		dcc = 2
	}
	// Inputs live in rows 0..K-1 and temps above them. Engines stage
	// scratch in the top rows (Ambit's 6-row B-group, DRISA's 4 NOR-latch
	// rows) and the dual-contact rows, and Execute re-stages a consumed
	// operand in the row above the temps, so grant 8 rows of headroom.
	rows := k + prog.TempSlots + 8
	if rows < probeRows {
		rows = probeRows
	}
	sub := dram.NewSubarray(dram.Config{
		Banks:            1,
		SubarraysPerBank: 1,
		RowsPerSubarray:  rows,
		Columns:          probeCols,
		DualContactRows:  dcc,
	})

	word, err := probe(exec, prog, sub, varPat64[:k])
	if err != nil {
		return nil, fmt.Errorf("kernel: probing fused spec: %w", err)
	}
	// The packed input patterns are periodic in 2^K, so a pure per-bit
	// function must read back periodic too; any aperiodicity means the
	// sequence is position-dependent.
	mask := tableMask(k)
	table := word & mask
	for shift := 1 << uint(k); shift < 64; shift += 1 << uint(k) {
		if (word>>uint(shift))&mask != table {
			return nil, fmt.Errorf("kernel: fused spec is not a pure bitwise function: aperiodic probe word %016x", word)
		}
	}

	f, err := pack(k, gates)
	if err != nil {
		return nil, err
	}
	f.table = table
	// The lowering assumes canonical gate semantics; the probe word is
	// what the engine computes on every input combination.
	if got := f.applyWord(varPat64[:k]); got != word {
		return nil, fmt.Errorf("kernel: fused spec's gate lowering disagrees with the device: device %016x, lowering %016x",
			word, got)
	}
	got, err := probe(exec, prog, sub, fusedVerifyWords[:k])
	if err != nil {
		return nil, fmt.Errorf("kernel: verifying fused spec: %w", err)
	}
	if want := f.applyWord(fusedVerifyWords[:k]); got != want {
		return nil, fmt.Errorf("kernel: fused spec is not a pure bitwise function: device %016x, compiled %016x",
			got, want)
	}
	return f, nil
}

// applyWord runs the kernel over one word per input.
func (f *Fused) applyWord(inputs []uint64) uint64 {
	srcs := make([][]uint64, len(inputs))
	for j := range srcs {
		srcs[j] = inputs[j : j+1]
	}
	var out [1]uint64
	f.Apply(out[:], srcs)
	return out[0]
}

// gateTabs maps each engine op to its canonical 4-bit word truth table
// (bit i = f(a=i&1, b=(i>>1)&1)); unary ops read A through both operands.
var gateTabs = [engine.OpCOPY + 1]uint8{
	engine.OpNOT:  0b0101,
	engine.OpAND:  0b1000,
	engine.OpOR:   0b1110,
	engine.OpNAND: 0b0111,
	engine.OpNOR:  0b0001,
	engine.OpXOR:  0b0110,
	engine.OpXNOR: 0b1001,
	engine.OpCOPY: 0b1010,
}

// lower lowers the program gate for gate to SSA form: each instruction
// becomes the word gate of its op's canonical truth table over the
// values its operands hold when it runs, so a fold reads its
// accumulator's value before overwriting it. One rule keeps packing
// from adding a pass: a COPY that is not the last instruction — a chain
// head's, staging its operand for the folds after it — is its operand's
// value and no gate. The last instruction's gate is the result, so a
// COPY that is itself the result still runs one pass. The lowering
// assumes canonical gate semantics, so DeriveFused checks it against
// the probed truth table before trusting it. It fails on a program it
// cannot lower: none or more than MaxFusedInputs variables, more than
// fusedMaxScratch temps, an op with no word gate, an operand out of
// range or a temp no earlier instruction writes (pooled register files
// are not zeroed), a write to a variable (kernel inputs are read-only,
// so folds accumulate into temps), or no instructions (the result must
// be a temp, whose view aliases dst).
func lower(prog *expr.Program) ([]gate, error) {
	if prog == nil {
		return nil, fmt.Errorf("kernel: fused spec has no program")
	}
	k := len(prog.Vars)
	if k < 1 || k > MaxFusedInputs {
		return nil, fmt.Errorf("kernel: fused spec has %d inputs, want 1..%d", k, MaxFusedInputs)
	}
	if prog.TempSlots < 0 || prog.TempSlots > fusedMaxScratch {
		return nil, fmt.Errorf("kernel: fused spec has %d temps, want 0..%d", prog.TempSlots, fusedMaxScratch)
	}
	if len(prog.Instrs) == 0 {
		return nil, fmt.Errorf("kernel: fused spec leaves its result in an input")
	}
	// held[t] is the value temp t holds, -1 before its first write.
	held := make([]int, prog.TempSlots)
	for t := range held {
		held[t] = -1
	}
	value := func(r expr.Ref) int {
		switch {
		case r.Index < 0:
			return -1
		case r.Temp && r.Index < len(held):
			return held[r.Index]
		case !r.Temp && r.Index < k:
			return r.Index
		}
		return -1
	}
	gates := make([]gate, 0, len(prog.Instrs))
	for i, in := range prog.Instrs {
		if in.Op < 0 || int(in.Op) >= len(gateTabs) {
			return nil, fmt.Errorf("kernel: fused spec instruction %d: %v has no word gate", i, in.Op)
		}
		b := in.B
		if in.Op.Unary() {
			b = in.A
		}
		va, vb := value(in.A), value(b)
		if va < 0 || vb < 0 {
			return nil, fmt.Errorf("kernel: fused spec instruction %d (%v) reads an operand out of range or never written", i, in)
		}
		if !in.Dst.Temp || in.Dst.Index < 0 || in.Dst.Index >= len(held) {
			return nil, fmt.Errorf("kernel: fused spec instruction %d (%v) writes an input or a temp out of range", i, in)
		}
		if in.Op == engine.OpCOPY && i < len(prog.Instrs)-1 {
			held[in.Dst.Index] = va
			continue
		}
		gates = append(gates, gate{tab: gateTabs[in.Op], a: va, b: vb})
		held[in.Dst.Index] = k + len(gates) - 1
	}
	return gates, nil
}

// inputRows are the probe subarray's input rows: input j lives in row j.
var inputRows = [MaxFusedInputs]int{0, 1, 2, 3, 4, 5}

// probe loads the input rows with one word each and runs the program
// through expr.Program.Execute with its temps in the rows above the
// inputs, returning the result row's first word. The input rows are
// reloaded on every run, since a fold or an operand-consuming sequence
// may overwrite one.
func probe(exec engine.Executor, prog *expr.Program, sub *dram.Subarray, inputs []uint64) (uint64, error) {
	sub.Precharge()
	for j, w := range inputs {
		sub.LoadRow(j, bitvec.FromWords([]uint64{w}, probeCols))
	}
	res, err := prog.Execute(sub, exec, inputRows[:len(inputs)], len(inputs))
	if err != nil {
		return 0, err
	}
	return sub.RowData(res).Words()[0], nil
}

// fusedEntry is one cached derivation outcome.
type fusedEntry struct {
	f   *Fused
	err error
}

// fusedCacheCap bounds the fused-kernel cache. Specs come from user
// expressions, so the population is unbounded; on overflow an arbitrary
// entry is evicted (re-derivation is one engine probe — cheap).
const fusedCacheCap = 1024

// FusedSet lazily derives and memoizes fused kernels for one executor,
// keyed by the spec's program (see CacheKey). Like Set, derivation
// failures are cached so the caller's fallback decision stays O(1). A
// FusedSet is safe for concurrent use.
type FusedSet struct {
	exec   engine.Executor
	module dram.Config

	mu      sync.Mutex
	entries map[string]fusedEntry
}

// NewFusedSet returns a fused-kernel cache probing exec under module's
// dual-contact geometry.
func NewFusedSet(exec engine.Executor, module dram.Config) *FusedSet {
	return &FusedSet{exec: exec, module: module, entries: map[string]fusedEntry{}}
}

// Fused returns the spec's compiled kernel, deriving it on first use.
// The error (nil or not) is stable across calls while the entry stays
// cached. A spec carrying its Key is looked up without building one.
func (s *FusedSet) Fused(spec FusedSpec) (*Fused, error) {
	key := spec.Key
	if key == "" {
		key = spec.CacheKey()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		return e.f, e.err
	}
	f, err := DeriveFused(s.exec, spec, s.module)
	if len(s.entries) >= fusedCacheCap {
		for k := range s.entries {
			delete(s.entries, k)
			break
		}
	}
	s.entries[key] = fusedEntry{f: f, err: err}
	return f, err
}
