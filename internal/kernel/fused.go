package kernel

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
)

// MaxFusedInputs is the largest input arity a fused kernel supports. Six
// inputs give a 64-entry truth table — exactly one 64-bit probe word —
// so deriving a k-input kernel costs a single engine run regardless of
// how many gates it fuses.
const MaxFusedInputs = 6

// FusedOp is one engine operation of a fused-kernel specification, in
// register form: Dst = Op(A, B). Registers 0..K-1 are the kernel inputs
// (read-only; Dst must be a scratch register ≥ K); B is ignored for
// unary ops.
type FusedOp struct {
	Op   engine.Op
	Dst  int
	A, B int
}

// FusedSpec describes a k-input boolean function as the engine command
// sequence that computes it: a register program over K input registers
// and Regs-K scratch registers, leaving the function value in Result.
// The plan compiler (internal/plan) produces one spec per fused cluster;
// DeriveFused runs the spec's real command sequence on the device model
// to learn — never assume — its truth table.
type FusedSpec struct {
	// K is the input arity (1..MaxFusedInputs).
	K int
	// Regs is the total register count, inputs included.
	Regs int
	// Ops is the command sequence in execution order.
	Ops []FusedOp
	// Result is the register holding the function value after Ops.
	Result int
	// Key, when set, is the spec's CacheKey, computed once by whoever
	// builds the spec (the plan compiler does, per cluster) so that
	// FusedSet lookups build no string. FusedSet computes it when empty.
	Key string
}

// validate checks the register shape of a spec.
func (sp *FusedSpec) validate() error {
	if sp.K < 1 || sp.K > MaxFusedInputs {
		return fmt.Errorf("kernel: fused spec has %d inputs, want 1..%d", sp.K, MaxFusedInputs)
	}
	if sp.Regs < sp.K {
		return fmt.Errorf("kernel: fused spec has %d registers for %d inputs", sp.Regs, sp.K)
	}
	if sp.Result < 0 || sp.Result >= sp.Regs {
		return fmt.Errorf("kernel: fused spec result register %d out of range", sp.Result)
	}
	for i, op := range sp.Ops {
		if op.Dst < sp.K || op.Dst >= sp.Regs {
			return fmt.Errorf("kernel: fused spec op %d writes register %d (inputs are read-only)", i, op.Dst)
		}
		if op.A < 0 || op.A >= sp.Regs {
			return fmt.Errorf("kernel: fused spec op %d reads register %d out of range", i, op.A)
		}
		if !op.Op.Unary() && (op.B < 0 || op.B >= sp.Regs) {
			return fmt.Errorf("kernel: fused spec op %d reads register %d out of range", i, op.B)
		}
	}
	return nil
}

// CacheKey returns the spec's canonical cache key: its register shape
// and command sequence, the identity FusedSet memoizes kernels by.
func (sp *FusedSpec) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k%d r%d res%d", sp.K, sp.Regs, sp.Result)
	for _, op := range sp.Ops {
		fmt.Fprintf(&b, ";%d:%d=%d,%d", op.Op, op.Dst, op.A, op.B)
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

// fusedInstr is one word-level gate: a 4-bit binary truth table applied
// over whole words. Operand encoding: 0..k-1 are the kernel inputs, k+r
// is scratch register r. The instruction list is the kernel's gate-level
// IR, one instruction per spec op; execution packs it into passes (see
// pack).
type fusedInstr struct {
	tab       uint8
	dst, a, b uint8
}

// fusedMacro is one packed execution pass: a word loop (loops.go) over
// up to four operands. Operand encoding matches fusedInstr (0..k-1
// inputs, k+r scratch); operand slots the loop does not read hold 0,
// which is always a valid view.
type fusedMacro struct {
	fn              wordLoop
	dst, a, b, c, d uint8
}

// Fused is a compiled k-input word-level kernel: the whole cluster of
// gates runs as a few passes over each block of the operand words. It
// is the spec's own register program lowered gate for gate, kept only
// after DeriveFused has checked it against the engine's real command
// sequence on every input combination and on full-word patterns, so a
// fused kernel cannot disagree with the command-accurate execution of
// its spec. Apply is safe for concurrent use.
type Fused struct {
	k        int
	table    uint64
	code     []fusedInstr // gate-level IR, one instr per gate
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
// logical cost, NOT gates included.
func (f *Fused) Ops() int { return len(f.code) }

// Passes returns the number of word loops Apply runs per block. A pass
// covers at least one gate (a NOT folds into its consumer's pass), so
// Passes ≤ Ops; the loops are bound by memory traffic, so the pass
// count, not the gate count, is what Apply's runtime scales with.
func (f *Fused) Passes() int { return len(f.macros) }

// String renders the kernel for diagnostics.
func (f *Fused) String() string {
	return fmt.Sprintf("fused(k=%d, table=%#x, ops=%d, passes=%d)", f.k, f.table, len(f.code), len(f.macros))
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

// pack tiles the kernel's gate-level program into passes over the word
// loops of loops.go, so each pass streams its operands once and keeps
// the gate values inside it in machine registers. Apply's runtime scales
// with the pass count: the loops are bound by memory traffic, so a
// two-level pass costs about what a one-gate pass costs.
//
// The pass rebuilds SSA form from the register program and counts uses
// over the values reachable from the result. A single-use NOT folds into
// its consumer's truth table (the consumer reads the NOT's operand with
// that column inverted), and a NOT at the result into its operand's
// gate. Tiling then runs from the result: a gate whose table is a core
// (AND, OR or XOR) flattens the single-use gates of its own core below
// it into one operand list, takes every single-use core gate in that
// list as a child, and combines two children per pass with the
// two-level loops q(l(a,b), r(c,d)), pairing bare operands into
// children of its own core; any other gate runs as its own gate-loop
// pass. Operands are materialized before the passes that read them, and
// multi-use values exactly once, so the packed program never duplicates
// gate work. A fresh liveness-scan register allocation over the passes
// bounds scratch at fusedMaxScratch.
func (f *Fused) pack() error {
	k := f.k
	// Rebuild SSA: the register allocator reuses registers, so resolve
	// each operand to the value its register holds at that point.
	type val struct {
		tab  uint8
		a, b int
	}
	vals := make([]val, 0, len(f.code))
	regVal := make([]int, f.nscratch)
	resolve := func(op uint8) int {
		if int(op) < k {
			return int(op)
		}
		return regVal[int(op)-k]
	}
	for _, in := range f.code {
		vals = append(vals, val{tab: in.tab, a: resolve(in.a), b: resolve(in.b)})
		regVal[int(in.dst)-k] = k + len(vals) - 1
	}
	root := resolve(f.res)

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
		return fmt.Errorf("kernel: fused packing needs %d scratch registers, max %d", nscratch, fusedMaxScratch)
	}
	f.macros = packed
	f.nscratch = nscratch
	f.res = uint8(k + reg[len(macros)-1])
	return nil
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

// ProbePattern returns input j's packed probe pattern: bit i = (i>>j)&1.
// Evaluating a k-input function over the first k patterns as word values
// yields its truth table in the low 2^k bits — the software-side mirror
// of what DeriveFused reads back from the device.
func ProbePattern(j int) uint64 { return varPat64[j] }

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
// device model. It runs the spec's command sequence through exec on a
// scratch subarray — all 2^K input combinations packed into one
// 64-column run — and reads the k-input truth table back from the result
// row. It then lowers the spec's own register program gate for gate
// (compileSpec), packs the gates into passes, and keeps the kernel only
// if it reproduces the probed word and agrees with a second engine run
// on full-word operand patterns. An engine error, behaviour that is not
// uniform across bit positions, a spec with no word-level lowering, or a
// kernel that disagrees with the device fails derivation, so the caller
// stays on a command-accurate path.
func DeriveFused(exec engine.Executor, spec FusedSpec, module dram.Config) (*Fused, error) {
	if exec == nil {
		return nil, fmt.Errorf("kernel: nil executor")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	dcc := module.DualContactRows
	if dcc < 2 {
		// Ambit's NOT path and the two-buffer ELP2IM sequences need up to
		// two dual-contact rows; granting the probe both is always legal.
		dcc = 2
	}
	// Registers live in rows 0..Regs-1. Engines stage scratch in the top
	// rows (Ambit's 6-row B-group, DRISA's 4 NOR-latch rows) and the
	// dual-contact rows, so grant 8 rows of headroom above the registers.
	rows := spec.Regs + 8
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

	word, err := runFusedProbe(exec, &spec, sub, varPat64[:spec.K])
	if err != nil {
		return nil, fmt.Errorf("kernel: probing fused spec: %w", err)
	}
	// The packed input patterns are periodic in 2^K, so a pure per-bit
	// function must read back periodic too; any aperiodicity means the
	// sequence is position-dependent.
	mask := tableMask(spec.K)
	table := word & mask
	for shift := 1 << uint(spec.K); shift < 64; shift += 1 << uint(spec.K) {
		if (word>>uint(shift))&mask != table {
			return nil, fmt.Errorf("kernel: fused spec is not a pure bitwise function: aperiodic probe word %016x", word)
		}
	}

	f, err := compileSpec(&spec, table)
	if err != nil {
		return nil, err
	}
	if err := f.pack(); err != nil {
		return nil, err
	}
	// The lowering assumes canonical gate semantics; the probe word is
	// what the engine computes on every input combination.
	if got := f.applyWord(varPat64[:spec.K]); got != word {
		return nil, fmt.Errorf("kernel: fused spec's gate lowering disagrees with the device: device %016x, lowering %016x",
			word, got)
	}
	got, err := runFusedProbe(exec, &spec, sub, fusedVerifyWords[:spec.K])
	if err != nil {
		return nil, fmt.Errorf("kernel: verifying fused spec: %w", err)
	}
	if want := f.applyWord(fusedVerifyWords[:spec.K]); got != want {
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

// specTab maps an engine op to its canonical 4-bit word truth table
// (bit i = f(a=i&1, b=(i>>1)&1)); unary ops read A through both operands.
func specTab(op engine.Op) (tab uint8, unary, ok bool) {
	switch op {
	case engine.OpNOT:
		return 0b0101, true, true
	case engine.OpAND:
		return 0b1000, false, true
	case engine.OpOR:
		return 0b1110, false, true
	case engine.OpNAND:
		return 0b0111, false, true
	case engine.OpNOR:
		return 0b0001, false, true
	case engine.OpXOR:
		return 0b0110, false, true
	case engine.OpXNOR:
		return 0b1001, false, true
	case engine.OpCOPY:
		return 0b1010, true, true
	}
	return 0, false, false
}

// compileSpec lowers the spec's own register program gate for gate to a
// word-level fused program over the same register numbering (inputs
// 0..K-1, scratch K..Regs-1). The lowering assumes canonical gate
// semantics, so DeriveFused checks it against the probed truth table
// before trusting it. It fails on a spec it cannot lower: too much
// scratch, a result left in an input register (the result view must
// alias dst), an op with no word gate, or a read of a never-written
// scratch register (pooled register files are not zeroed).
func compileSpec(spec *FusedSpec, table uint64) (*Fused, error) {
	nscratch := spec.Regs - spec.K
	if nscratch > fusedMaxScratch {
		return nil, fmt.Errorf("kernel: fused spec has %d scratch registers, max %d", nscratch, fusedMaxScratch)
	}
	if spec.Result < spec.K {
		return nil, fmt.Errorf("kernel: fused spec leaves its result in input register %d", spec.Result)
	}
	defined := make([]bool, spec.Regs)
	for j := 0; j < spec.K; j++ {
		defined[j] = true
	}
	code := make([]fusedInstr, 0, len(spec.Ops))
	for i, op := range spec.Ops {
		tab, unary, ok := specTab(op.Op)
		if !ok {
			return nil, fmt.Errorf("kernel: fused spec op %d: %v has no word gate", i, op.Op)
		}
		b := op.B
		if unary {
			b = op.A
		}
		if !defined[op.A] || !defined[b] {
			return nil, fmt.Errorf("kernel: fused spec op %d reads a register no earlier op writes", i)
		}
		code = append(code, fusedInstr{
			tab: tab,
			dst: uint8(op.Dst),
			a:   uint8(op.A),
			b:   uint8(b),
		})
		defined[op.Dst] = true
	}
	if !defined[spec.Result] {
		return nil, fmt.Errorf("kernel: fused spec never writes its result register %d", spec.Result)
	}
	return &Fused{
		k:        spec.K,
		table:    table,
		code:     code,
		nscratch: nscratch,
		res:      uint8(spec.Result),
	}, nil
}

// runFusedProbe loads the K input rows with the given words, executes the
// spec's command sequence, and returns the result row's first word.
func runFusedProbe(exec engine.Executor, spec *FusedSpec, sub *dram.Subarray, inputs []uint64) (uint64, error) {
	sub.Precharge()
	for j, w := range inputs {
		sub.LoadRow(j, bitvec.FromWords([]uint64{w}, probeCols))
	}
	// Spec registers have clean read-many semantics. When the engine's
	// sequence consumes its A row (engine.OperandConsumer — ELP2IM's
	// two-buffer XOR/XNOR), re-stage A into a headroom row first; row Regs
	// is free, since consuming engines scratch only in the dual-contact
	// rows.
	oc, _ := exec.(engine.OperandConsumer)
	staging := spec.Regs
	for _, op := range spec.Ops {
		a := op.A
		if oc != nil && oc.ConsumesOperandA(op.Op) {
			if err := exec.Execute(sub, engine.OpCOPY, staging, a, -1); err != nil {
				return 0, err
			}
			a = staging
		}
		b := -1
		if !op.Op.Unary() {
			b = op.B
		}
		if err := exec.Execute(sub, op.Op, op.Dst, a, b); err != nil {
			return 0, err
		}
	}
	return sub.RowData(spec.Result).Words()[0], nil
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
// keyed by the full spec (command sequence and register shape). Like
// Set, derivation failures are cached so the caller's fallback decision
// stays O(1). A FusedSet is safe for concurrent use.
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
