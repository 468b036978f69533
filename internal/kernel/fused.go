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

// Execution geometry of a fused kernel's word loop. Packing keeps most
// intermediates in machine registers, so the scratch file carries only
// inter-pass values: blocks of 1024 words (8 KiB per register) amortize
// the per-block view setup and indirect pass calls down to noise while
// the few live scratch rows stay cache-resident. 32 scratch registers
// bound the packed program's live values (a program needing more fails
// derivation and the caller falls back to node-at-a-time kernels).
const (
	fusedBlockWords = 1024
	fusedMaxScratch = 32
)

// fusedScratch pools Apply's per-call register file (16 KiB): getting a
// used file skips the zeroing a fresh stack array would pay on every
// call, which dominates when Apply runs once per stripe.
var fusedScratch = sync.Pool{
	New: func() any { return new([fusedMaxScratch][fusedBlockWords]uint64) },
}

// result-kind markers for Fused.resConst.
const (
	resOperand = -1 // result is f.res (an input or scratch operand)
	resZero    = 0
	resOne     = 1
)

// fusedInstr is one synthesized word-level operation: a 4-bit binary
// truth table applied over whole words. Operand encoding: 0..k-1 are the
// kernel inputs, k+r is scratch register r. The instruction list is the
// kernel's gate-level IR; execution packs it into multi-gate passes
// (see pack and fusedgen.go).
type fusedInstr struct {
	tab       uint8
	dst, a, b uint8
}

//go:generate go run ../../scripts/genfused -o fusedgen.go

// fusedPass is one generated word loop from the pass library
// (fusedgen.go): a straight-line evaluation of up to three composed
// gates whose intermediate values live in machine registers. Trailing
// operands a pass does not use are ignored (callers pass any valid
// view).
type fusedPass func(dst, a, b, c, d []uint64)

// fusedMacro is one packed execution pass: a pass-library loop over up
// to four operands. Operand encoding matches fusedInstr (0..k-1 inputs,
// k+r scratch); unused operand slots hold 0, which is always a valid
// view.
type fusedMacro struct {
	fn              fusedPass
	dst, a, b, c, d uint8
}

// Fused is a compiled k-input word-level kernel: the whole cluster of
// gates collapses into one pass over the operand words. Like the 2-input
// Kernel it is self-derived — DeriveFused probes the engine's real
// command sequence and compiles the observed truth table — so a fused
// kernel cannot disagree with the command-accurate execution of its
// spec. Apply is safe for concurrent use.
type Fused struct {
	k        int
	table    uint64
	code     []fusedInstr // gate-level IR, one instr per gate
	macros   []fusedMacro // packed execution passes (see pack)
	nscratch int
	res      uint8
	resConst int8
}

// K returns the kernel's input arity.
func (f *Fused) K() int { return f.k }

// Table returns the derived truth table: bit i holds the function value
// where input j = (i>>j)&1, for i < 2^K.
func (f *Fused) Table() uint64 { return f.table }

// Ops returns the gate count of the compiled program — the cluster's
// logical cost, to compare against one kernel per node on the
// node-at-a-time path.
func (f *Fused) Ops() int { return len(f.code) }

// Passes returns the number of packed word loops Apply runs per block.
// Packing fuses up to three gates per pass, so Passes ≤ Ops; on a
// memory-port-bound machine the pass count, not the gate count, is
// what Apply's runtime scales with.
func (f *Fused) Passes() int { return len(f.macros) }

// String renders the kernel for diagnostics.
func (f *Fused) String() string {
	return fmt.Sprintf("fused(k=%d, table=%#x, ops=%d, passes=%d)", f.k, f.table, len(f.code), len(f.macros))
}

// Apply computes dst = f(srcs...) word-wise over len(dst) words. srcs
// must hold K slices of at least len(dst) words; dst must not overlap
// any source (sources are re-read throughout the fused program). Tail
// bits beyond the caller's logical vector length are written like any
// others — callers that maintain a canonical form must re-mask.
func (f *Fused) Apply(dst []uint64, srcs [][]uint64) {
	if f.resConst != resOperand {
		w := uint64(0)
		if f.resConst == resOne {
			w = ^uint64(0)
		}
		for i := range dst {
			dst[i] = w
		}
		return
	}
	if len(f.code) == 0 {
		// The function collapsed to one of its inputs.
		copy(dst, srcs[f.res][:len(dst)])
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

// pack tiles the kernel's gate-level program into multi-gate passes
// from the generated library (fusedgen.go), so each pass streams its
// operands once and keeps intermediate gate values in machine
// registers. Apply's runtime scales with the pass count: on a
// memory-port-bound word loop a three-gate pass costs the same as a
// one-gate pass, so packing is where fusion's speedup over
// node-at-a-time kernels actually comes from.
//
// The pass rebuilds SSA form from the register program, counts uses
// over the values reachable from the result, and munches bottom-up: a
// gate whose operands are both single-use gate values becomes a
// balanced-tree pass q(f1(a,b), f2(c,d)); one fusable operand extends
// into a chain pass h(g(f(a,b),c),d) when its own first operand is
// fusable too, else a two-gate pass g(f(a,b),c); anything else is a
// one-gate pass. A fusable value on the second operand is re-rooted to
// the first by transposing the consumer's truth table (bit 1 ↔ bit 2).
// Multi-use values are materialized exactly once, so the packed program
// never duplicates gate work. A fresh liveness-scan register allocation
// over the passes bounds scratch at fusedMaxScratch.
func (f *Fused) pack() error {
	if f.resConst != resOperand || len(f.code) == 0 {
		return nil
	}
	// Rebuild SSA: the register allocator reuses registers, so resolve
	// each operand to the value its register holds at that point.
	type val struct {
		tab  uint8
		a, b int
	}
	vals := make([]val, 0, len(f.code))
	regVal := make([]int, f.nscratch)
	resolve := func(op uint8) int {
		if int(op) < f.k {
			return int(op)
		}
		return regVal[int(op)-f.k]
	}
	for _, in := range f.code {
		v := val{tab: in.tab, a: resolve(in.a), b: resolve(in.b)}
		vals = append(vals, v)
		regVal[int(in.dst)-f.k] = f.k + len(vals) - 1
	}
	root := resolve(f.res)

	// Use counts over values reachable from the result. An operand read
	// twice by one gate counts twice: fusing it would duplicate its work,
	// so only uses == 1 values are candidates.
	uses := make([]int, len(vals))
	var markUses func(op int)
	markUses = func(op int) {
		if op < f.k {
			return
		}
		i := op - f.k
		uses[i]++
		if uses[i] > 1 {
			return
		}
		markUses(vals[i].a)
		markUses(vals[i].b)
	}
	markUses(root)

	// swap transposes a table's operands (bit 1 ↔ bit 2), matching the
	// canonicalization in synState.emit.
	swap := func(tab uint8) uint8 { return tab&0b1001 | tab&0b0010<<1 | tab&0b0100>>1 }
	fusable := func(op int) bool { return op >= f.k && uses[op-f.k] == 1 }

	// Tile bottom-up from the result. Operand space for macroIR: inputs
	// 0..k-1, then k+i for pass i's output; -1 marks an unused slot.
	type macroIR struct {
		fn  fusedPass
		ops [4]int
	}
	var macros []macroIR
	memo := make([]int, len(vals))
	for i := range memo {
		memo[i] = -1
	}
	var emit func(op int) int
	emit = func(op int) int {
		if op < f.k {
			return op
		}
		if m := memo[op-f.k]; m >= 0 {
			return m
		}
		v := vals[op-f.k]
		tab, a, b := v.tab, v.a, v.b
		if !fusable(a) && fusable(b) {
			tab, a, b = swap(tab), b, a
		}
		var m macroIR
		switch {
		case fusable(a) && fusable(b) && a != b:
			A, B := vals[a-f.k], vals[b-f.k]
			m.fn = quadTreeFns[int(tab)<<8|int(A.tab)<<4|int(B.tab)]
			m.ops = [4]int{emit(A.a), emit(A.b), emit(B.a), emit(B.b)}
		case fusable(a):
			A := vals[a-f.k]
			gtab, ga, gb := A.tab, A.a, A.b
			if !fusable(ga) && fusable(gb) {
				gtab, ga, gb = swap(gtab), gb, ga
			}
			if fusable(ga) && ga != gb {
				G := vals[ga-f.k]
				m.fn = quadChainFns[int(tab)<<8|int(gtab)<<4|int(G.tab)]
				m.ops = [4]int{emit(G.a), emit(G.b), emit(gb), emit(b)}
			} else {
				m.fn = ternFns[int(tab)<<4|int(A.tab)]
				m.ops = [4]int{emit(A.a), emit(A.b), emit(b), -1}
			}
		default:
			m.fn = ternFns[0b1010<<4|int(tab)]
			m.ops = [4]int{emit(a), emit(b), -1, -1}
		}
		macros = append(macros, m)
		enc := f.k + len(macros) - 1
		memo[op-f.k] = enc
		return enc
	}
	emit(root)

	// Liveness-scan register allocation over the passes; the result pass
	// lives to the end so its view can alias dst.
	last := make([]int, len(macros))
	for i, m := range macros {
		for _, op := range m.ops {
			if op >= f.k {
				last[op-f.k] = i
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
			case op < f.k:
				enc[j] = uint8(op)
			default:
				enc[j] = uint8(f.k + reg[op-f.k])
			}
		}
		// Free dying operands — each value once, however many slots it
		// fills — so the destination may reuse a dying operand's register.
		for j, op := range m.ops {
			if op < f.k || last[op-f.k] != i {
				continue
			}
			dup := false
			for _, p := range m.ops[:j] {
				if p == op {
					dup = true
				}
			}
			if !dup {
				free = append(free, reg[op-f.k])
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
		packed[i] = fusedMacro{fn: m.fn, dst: uint8(f.k + r), a: enc[0], b: enc[1], c: enc[2], d: enc[3]}
	}
	if nscratch > fusedMaxScratch {
		return fmt.Errorf("kernel: fused packing needs %d scratch registers, max %d", nscratch, fusedMaxScratch)
	}
	f.macros = packed
	f.nscratch = nscratch
	f.res = uint8(f.k + reg[len(macros)-1])
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

// DeriveFused probes exec's execution of the spec's command sequence on
// a scratch subarray — all 2^K input combinations packed into one
// 64-column run — reads the k-input truth table back from the result
// row, and compiles it to a block-wise word-level program (Shannon
// decomposition with subfunction sharing). Like Derive, the result is
// grounded in the device model: a verification run on full-word operand
// patterns cross-checks the compiled kernel against the engine, and any
// disagreement (or non-uniform behaviour across bit positions) fails
// derivation so the caller stays on a command-accurate path.
func DeriveFused(exec Executor, spec FusedSpec, module dram.Config) (*Fused, error) {
	if exec == nil {
		return nil, fmt.Errorf("kernel: nil executor")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	dcc := module.DualContactRows
	if dcc < 2 {
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

	f, err := synthesize(table, spec.K)
	if err != nil {
		return nil, err
	}
	if err := f.pack(); err != nil {
		return nil, err
	}
	// Shannon synthesis reconstructs the function from the table alone and
	// can cost several times the cluster's own gate count. The spec's
	// register program is a word-level implementation too; lower it
	// directly and keep whichever compiles to fewer gates — but only after
	// checking the lowering against the probed word, so a canonical-gate
	// assumption that disagrees with the engine's observed behaviour is
	// discarded (ties and degenerate collapses stay with the synthesis).
	if g := compileSpec(&spec, table); g != nil && len(g.code) < len(f.code) && g.pack() == nil {
		srcs := make([][]uint64, spec.K)
		for j := range srcs {
			srcs[j] = []uint64{varPat64[j]}
		}
		var got [1]uint64
		g.Apply(got[:], srcs)
		if got[0] == word {
			f = g
		}
	}
	got, err := runFusedProbe(exec, &spec, sub, fusedVerifyWords[:spec.K])
	if err != nil {
		return nil, fmt.Errorf("kernel: verifying fused spec: %w", err)
	}
	srcs := make([][]uint64, spec.K)
	for j := range srcs {
		srcs[j] = []uint64{fusedVerifyWords[j]}
	}
	var want [1]uint64
	f.Apply(want[:], srcs)
	if got != want[0] {
		return nil, fmt.Errorf("kernel: fused spec is not a pure bitwise function: device %016x, compiled table %016x",
			got, want[0])
	}
	return f, nil
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

// compileSpec lowers the spec's own register program gate-for-gate to a
// word-level fused program over the same register numbering (inputs
// 0..K-1, scratch K..Regs-1). The lowering assumes canonical gate
// semantics, so the caller must validate the result against the probed
// truth table before trusting it. Returns nil when the spec cannot be
// lowered: an unknown op, a read of a never-written scratch register
// (pooled register files are not zeroed), too much scratch, or a result
// left in an input register (the result view must alias dst).
func compileSpec(spec *FusedSpec, table uint64) *Fused {
	nscratch := spec.Regs - spec.K
	if nscratch > fusedMaxScratch || spec.Result < spec.K || len(spec.Ops) == 0 {
		return nil
	}
	defined := make([]bool, spec.Regs)
	for j := 0; j < spec.K; j++ {
		defined[j] = true
	}
	code := make([]fusedInstr, 0, len(spec.Ops))
	for _, op := range spec.Ops {
		tab, unary, ok := specTab(op.Op)
		if !ok {
			return nil
		}
		b := op.B
		if unary {
			b = op.A
		}
		if !defined[op.A] || !defined[b] {
			return nil
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
		return nil
	}
	return &Fused{
		k:        spec.K,
		table:    table,
		code:     code,
		nscratch: nscratch,
		res:      uint8(spec.Result),
		resConst: resOperand,
	}
}

// runFusedProbe loads the K input rows with the given words, executes the
// spec's command sequence, and returns the result row's first word.
func runFusedProbe(exec Executor, spec *FusedSpec, sub *dram.Subarray, inputs []uint64) (uint64, error) {
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

// Synthesis operand encoding: non-negative values are inputs (0..k-1)
// then SSA values (k+i for the value defined by instruction i); the two
// negatives are the constant functions.
const (
	synConst0 = -1
	synConst1 = -2
)

// synKey memoizes one subfunction during Shannon decomposition.
type synKey struct {
	table uint64
	n     int
}

// opKey memoizes one emitted word operation (value numbering).
type opKey struct {
	tab  uint8
	a, b int
}

// synState carries one synthesis run.
type synState struct {
	k     int
	code  []opKey // SSA program: instruction i defines value k+i
	funcs map[synKey]int
	ops   map[opKey]int
	nots  map[int]int
}

// synthesize compiles a 2^k-entry truth table to a word-level program:
// Shannon decomposition on the highest variable with memoized
// subfunctions, constant/identity folding, and a liveness-based register
// allocation bounded by fusedMaxScratch.
func synthesize(table uint64, k int) (*Fused, error) {
	s := &synState{
		k:     k,
		funcs: map[synKey]int{},
		ops:   map[opKey]int{},
		nots:  map[int]int{},
	}
	res := s.rec(table&tableMask(k), k)
	return s.compile(table&tableMask(k), res)
}

// rec returns the operand computing the n-variable subfunction `table`.
func (s *synState) rec(table uint64, n int) int {
	mask := tableMask2(n)
	table &= mask
	if table == 0 {
		return synConst0
	}
	if table == mask {
		return synConst1
	}
	key := synKey{table: table, n: n}
	if v, ok := s.funcs[key]; ok {
		return v
	}
	// Identity or complement of a single input.
	for j := 0; j < n; j++ {
		if pat := varPat64[j] & mask; table == pat {
			s.funcs[key] = j
			return j
		} else if table == ^pat&mask {
			v := s.not(j)
			s.funcs[key] = v
			return v
		}
	}
	// Shannon on the highest variable: table = hi·x_{n-1} + lo·¬x_{n-1}.
	half := uint(1) << uint(n-1)
	loMask := tableMask2(n - 1)
	lo := table & loMask
	hi := (table >> half) & loMask
	var v int
	switch {
	case lo == hi:
		v = s.rec(lo, n-1)
	case hi == ^lo&loMask:
		// f = lo ⊕ x_{n-1}: the selector toggles the subfunction.
		v = s.emit(0b0110, s.rec(lo, n-1), n-1)
	default:
		// General mux; emit's constant folding collapses the degenerate
		// halves (lo==0 → sel∧hi, hi==1 → lo∨sel, ...) for free.
		l, h := s.rec(lo, n-1), s.rec(hi, n-1)
		sel := n - 1
		v = s.emit(0b1110, s.emit(0b1000, sel, h), s.emit(0b0010, l, sel))
	}
	s.funcs[key] = v
	return v
}

// tableMask2 is tableMask for subfunction widths (n may reach 6).
func tableMask2(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return 1<<(1<<uint(n)) - 1
}

// not returns the operand computing ¬x, memoized.
func (s *synState) not(x int) int {
	switch x {
	case synConst0:
		return synConst1
	case synConst1:
		return synConst0
	}
	if v, ok := s.nots[x]; ok {
		return v
	}
	v := s.define(opKey{tab: 0b0101, a: x, b: x})
	s.nots[x] = v
	return v
}

// emit returns the operand computing tab(a, b), folding constants,
// equal operands, and degenerate tables, and value-numbering the rest.
// Table bit i = f(a=i&1, b=i>>1&1), matching binaryFn.
func (s *synState) emit(tab uint8, a, b int) int {
	t0, t1, t2, t3 := tab&1, tab>>1&1, tab>>2&1, tab>>3&1
	switch {
	case a == b:
		return s.foldUnary(t0|t3<<1, a)
	case a == synConst0:
		return s.foldUnary(t0|t2<<1, b)
	case a == synConst1:
		return s.foldUnary(t1|t3<<1, b)
	case b == synConst0:
		return s.foldUnary(t0|t1<<1, a)
	case b == synConst1:
		return s.foldUnary(t2|t3<<1, a)
	}
	switch tab {
	case 0b0000:
		return synConst0
	case 0b1111:
		return synConst1
	case 0b1010:
		return a
	case 0b1100:
		return b
	case 0b0101:
		return s.not(a)
	case 0b0011:
		return s.not(b)
	}
	// Canonicalize under operand swap (bit1 ↔ bit2) so a∧b and b∧a — and
	// a∧¬b vs ¬b∧a — value-number identically.
	swapped := tab&0b1001 | tab&0b0010<<1 | tab&0b0100>>1
	if swapped < tab || (swapped == tab && a > b) {
		tab, a, b = swapped, b, a
	}
	return s.define(opKey{tab: tab, a: a, b: b})
}

// foldUnary reduces a 2-entry table over one operand: bit 0 = g(0),
// bit 1 = g(1).
func (s *synState) foldUnary(u uint8, x int) int {
	switch u {
	case 0b00:
		return synConst0
	case 0b11:
		return synConst1
	case 0b10:
		return x
	default: // 0b01
		return s.not(x)
	}
}

// define appends one SSA instruction (or returns its memoized value).
func (s *synState) define(k opKey) int {
	if v, ok := s.ops[k]; ok {
		return v
	}
	v := s.k + len(s.code)
	s.code = append(s.code, k)
	s.ops[k] = v
	return v
}

// compile finishes a synthesis: dead-code elimination over the SSA
// program, then a liveness-scan register allocation into at most
// fusedMaxScratch scratch registers (word loops are element-wise, so a
// destination may reuse a dying operand's register).
func (s *synState) compile(table uint64, res int) (*Fused, error) {
	f := &Fused{k: s.k, table: table, resConst: resOperand}
	switch {
	case res == synConst0:
		f.resConst = resZero
		return f, nil
	case res == synConst1:
		f.resConst = resOne
		return f, nil
	case res < s.k:
		f.res = uint8(res)
		return f, nil
	}

	// Mark live SSA values backward from the result.
	live := make([]bool, len(s.code))
	live[res-s.k] = true
	for i := len(s.code) - 1; i >= 0; i-- {
		if !live[i] {
			continue
		}
		if a := s.code[i].a; a >= s.k {
			live[a-s.k] = true
		}
		if b := s.code[i].b; b >= s.k {
			live[b-s.k] = true
		}
	}

	// Last use per live value (the result lives to the end).
	lastUse := make([]int, len(s.code))
	for i, in := range s.code {
		if !live[i] {
			continue
		}
		if a := in.a; a >= s.k {
			lastUse[a-s.k] = i
		}
		if b := in.b; b >= s.k {
			lastUse[b-s.k] = i
		}
	}
	lastUse[res-s.k] = len(s.code)

	reg := make([]int, len(s.code))
	var free []int
	alloc := func() int {
		if n := len(free); n > 0 {
			r := free[n-1]
			free = free[:n-1]
			return r
		}
		r := f.nscratch
		f.nscratch++
		return r
	}
	operand := func(v, at int) uint8 {
		if v < s.k {
			return uint8(v)
		}
		if lastUse[v-s.k] == at {
			free = append(free, reg[v-s.k])
		}
		return uint8(s.k + reg[v-s.k])
	}
	for i, in := range s.code {
		if !live[i] {
			continue
		}
		a := operand(in.a, i)
		b := a
		if in.b != in.a {
			b = operand(in.b, i)
		}
		reg[i] = alloc()
		f.code = append(f.code, fusedInstr{
			tab: in.tab,
			dst: uint8(s.k + reg[i]),
			a:   a,
			b:   b,
		})
	}
	if f.nscratch > fusedMaxScratch {
		return nil, fmt.Errorf("kernel: fused synthesis needs %d scratch registers, max %d", f.nscratch, fusedMaxScratch)
	}
	f.res = uint8(s.k + reg[res-s.k])
	return f, nil
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
	exec   Executor
	module dram.Config

	mu      sync.Mutex
	entries map[string]fusedEntry
}

// NewFusedSet returns a fused-kernel cache probing exec under module's
// dual-contact geometry.
func NewFusedSet(exec Executor, module dram.Config) *FusedSet {
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
