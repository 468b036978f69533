package elp2im

// Cross-engine differential fuzzing: random operation programs (all seven
// logic ops, COPY, and Reduce chains over random-length vectors, including
// non-word-aligned lengths and non-word-aligned row widths) are executed on
// every design and checked bit-for-bit against the host bitvec oracle,
// and every run's accumulated totals must equal the sum of the Stats its
// calls returned.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// diffStep is one step of a generated program.
type diffStep struct {
	reduce bool
	op     Op
	dst    int
	x, y   int   // Op operands (y unused for unary ops)
	srcs   []int // Reduce operands
}

// diffProgram is a reproducible random program over a shared vector pool.
type diffProgram struct {
	n     int // vector length in bits
	init  []*bitvec.Vector
	steps []diffStep
}

func (p diffProgram) String() string {
	return fmt.Sprintf("program{n=%d vecs=%d steps=%d}", p.n, len(p.init), len(p.steps))
}

// genDiffProgram draws a program: vector lengths are deliberately spread
// over word-aligned, non-aligned, sub-row and multi-stripe sizes.
func genDiffProgram(rng *rand.Rand, cols, steps int) diffProgram {
	lengths := []int{
		1 + rng.Intn(63), // sub-word
		64 * (1 + rng.Intn(2*cols/64)),
		1 + rng.Intn(4*cols), // arbitrary, usually non-aligned
		cols,                 // exactly one stripe
		cols + 1 + rng.Intn(cols),
	}
	n := lengths[rng.Intn(len(lengths))]
	nVecs := 4 + rng.Intn(3)
	init := make([]*bitvec.Vector, nVecs)
	for i := range init {
		init[i] = bitvec.Random(rng, n)
	}
	prog := diffProgram{n: n, init: init}
	ops := []Op{OpNot, OpAnd, OpOr, OpNand, OpNor, OpXor, OpXnor, OpCopy}
	for len(prog.steps) < steps {
		if rng.Intn(5) == 0 {
			// A Reduce chain over 2–4 operands. The destination must not
			// appear among the operands: Reduce stages vs[0] into dst first,
			// so an aliased operand would read the partially reduced value
			// (on the device and in the oracle alike, but order-dependently).
			dst := rng.Intn(nVecs)
			k := 2 + rng.Intn(3)
			srcs := make([]int, k)
			for i := range srcs {
				srcs[i] = rng.Intn(nVecs - 1)
				if srcs[i] >= dst {
					srcs[i]++
				}
			}
			op := OpAnd
			if rng.Intn(2) == 0 {
				op = OpOr
			}
			prog.steps = append(prog.steps, diffStep{
				reduce: true, op: op, dst: dst, srcs: srcs,
			})
			continue
		}
		op := ops[rng.Intn(len(ops))]
		prog.steps = append(prog.steps, diffStep{
			op: op, dst: rng.Intn(nVecs), x: rng.Intn(nVecs), y: rng.Intn(nVecs),
		})
	}
	return prog
}

// goldenRun executes the program on the host oracle.
func goldenRun(p diffProgram) []*bitvec.Vector {
	vecs := make([]*bitvec.Vector, len(p.init))
	for i, v := range p.init {
		vecs[i] = v.Clone()
	}
	tmp := bitvec.New(p.n)
	for _, st := range p.steps {
		if st.reduce {
			acc := vecs[st.srcs[0]].Clone()
			for _, s := range st.srcs[1:] {
				if st.op == OpAnd {
					tmp.And(acc, vecs[s])
				} else {
					tmp.Or(acc, vecs[s])
				}
				acc.CopyFrom(tmp)
			}
			vecs[st.dst].CopyFrom(acc)
			continue
		}
		st.op.internal().Golden(tmp, vecs[st.x], vecs[st.y])
		vecs[st.dst].CopyFrom(tmp)
	}
	return vecs
}

// progVectors clones the program's initial pool into facade vectors.
func progVectors(p diffProgram) []*BitVector {
	vecs := make([]*BitVector, len(p.init))
	for i, v := range p.init {
		vecs[i] = &BitVector{v: v.Clone()}
	}
	return vecs
}

// serialRun executes the program through Op/Reduce and returns the pool,
// the accelerator's accumulated totals, and the sum of the Stats the
// calls returned.
func serialRun(t *testing.T, acc *Accelerator, p diffProgram) ([]*BitVector, Stats, Stats) {
	t.Helper()
	acc.ResetTotals()
	vecs := progVectors(p)
	var sum Stats
	for i, st := range p.steps {
		var cost Stats
		var err error
		if st.reduce {
			srcs := make([]*BitVector, len(st.srcs))
			for j, s := range st.srcs {
				srcs[j] = vecs[s]
			}
			cost, err = acc.Reduce(st.op, vecs[st.dst], srcs...)
		} else if st.op.Unary() {
			cost, err = acc.Op(st.op, vecs[st.dst], vecs[st.x], nil)
		} else {
			cost, err = acc.Op(st.op, vecs[st.dst], vecs[st.x], vecs[st.y])
		}
		if err != nil {
			t.Fatalf("%v step %d (%v): %v", p, i, st.op, err)
		}
		sum.add(cost)
	}
	return vecs, acc.Totals(), sum
}

// diffModules returns the module geometries fuzzed: a word-aligned one
// (one lock group per subarray) and a non-word-aligned one (one lock
// group, serial path).
func diffModules() []func(*Config) {
	nonAligned := func(c *Config) {
		smallModule(c)
		c.Module.Columns = 100
	}
	return []func(*Config){smallModule, nonAligned}
}

// TestDifferentialFuzz is the cross-engine differential harness.
func TestDifferentialFuzz(t *testing.T) {
	designs := []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR}
	for mi, mod := range diffModules() {
		for round := 0; round < 4; round++ {
			seed := int64(1000*mi + round)
			// One program per (module, round), shared by every design so
			// the engines are differentially comparable.
			var cols int
			{
				cfg := DefaultConfig()
				mod(&cfg)
				cols = cfg.Module.Columns
			}
			rng := rand.New(rand.NewSource(seed))
			prog := genDiffProgram(rng, cols, 10)
			want := goldenRun(prog)

			results := make(map[Design][]*BitVector)
			for _, d := range designs {
				d := d
				acc := newAcc(t, mod, func(c *Config) { c.Design = d })

				serialVecs, serialTotals, callSum := serialRun(t, acc, prog)
				for i, v := range serialVecs {
					if !v.v.Equal(want[i]) {
						t.Fatalf("%v %v serial: vec %d diverges from oracle (seed %d)",
							d, prog, i, seed)
					}
				}
				if serialTotals != callSum {
					t.Fatalf("%v %v: totals %+v != summed call Stats %+v (seed %d)",
						d, prog, serialTotals, callSum, seed)
				}
				results[d] = serialVecs
			}
			// Cross-engine: every design must agree with every other.
			for i := 1; i < len(designs); i++ {
				a, b := results[designs[0]], results[designs[i]]
				for j := range a {
					if !a[j].v.Equal(b[j].v) {
						t.Fatalf("%v and %v diverge on vec %d of %v (seed %d)",
							designs[0], designs[i], j, prog, seed)
					}
				}
			}
		}
	}
}
