package elp2im

// Eval differential suite: every expression in the corpus (and every
// random DAG the fuzzer draws) must produce bit-identical vectors and
// struct-equal Stats across the two execution tiers — fused cluster
// kernels and the command-accurate device model (the engine installed
// with SetExecutor) — on every design, all checked against the host
// parse-tree oracle.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/expr"
)

// evalDiffExprs is the expression corpus: bare leaves, single gates, the
// docs' two-cluster example, shared subexpressions, deep XOR trees with
// eight variables (multi-cluster), wide conjunctions whose clusters
// overlap in sources, and a fold whose two operands are one temp (both
// XNOR spellings hash-cons to one gate, so the AND is AND t, t).
var evalDiffExprs = []string{
	"a",
	"~a",
	"a & b",
	"~(a ^ b)",
	"(dirty & ~referenced) | evicted",
	"((a | b) & (c | d) & (e | f)) ^ g",
	"(a & b) | ((a & b) & c)",
	"(a | b) & (b | c) & (c | a)",
	"((a ^ b) ^ (c ^ d)) ^ ((e ^ f) ^ (g ^ h))",
	"(a & b & c & d & e & f) | (c & d & e & f & g & h)",
	"~(a & (b | ~(c ^ (d & ~e))))",
	"(~a ^ b) & (a ^ ~b)",
}

// evalDiffModule is smallModule with enough rows for the deepest corpus
// expression's command-accurate fallback (vars + temps + staging row).
func evalDiffModule(c *Config) {
	smallModule(c)
	c.Module.RowsPerSubarray = 32
}

// evalOracleVars binds every variable of src to a fresh random vector of
// n bits and returns the bindings plus the oracle result computed
// bit-by-bit on the parse tree.
func evalOracleVars(t *testing.T, rng *rand.Rand, src string, n int) (map[string]*BitVector, *BitVector) {
	t.Helper()
	node, err := expr.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	vars := map[string]*BitVector{}
	for _, name := range node.Vars() {
		vars[name] = RandomBitVector(rng, n)
	}
	want := NewBitVector(n)
	env := map[string]bool{}
	for i := 0; i < n; i++ {
		for name, v := range vars {
			env[name] = v.Bit(i)
		}
		want.SetBit(i, node.Eval(env))
	}
	return vars, want
}

// TestDifferentialEval pins the two-tier equivalence: for every design
// and every corpus expression over word-aligned and ragged lengths, the
// fused and command-accurate tiers return bit-identical vectors and
// struct-equal Stats.
func TestDifferentialEval(t *testing.T) {
	designs := []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR}
	tiers := []struct {
		name  string
		build func(*testing.T, ...func(*Config)) *Accelerator
	}{
		{"fused", newAcc},
		{"cmdaccurate", newCmdAcc},
	}
	for _, d := range designs {
		d := d
		accs := make([]*Accelerator, len(tiers))
		for i, tier := range tiers {
			accs[i] = tier.build(t, evalDiffModule, func(c *Config) { c.Design = d })
		}
		for ei, src := range evalDiffExprs {
			for _, n := range []int{50, 128, 3*128 + 17, 256} {
				rng := rand.New(rand.NewSource(int64(100*ei + n)))
				vars, want := evalOracleVars(t, rng, src, n)

				var refStats Stats
				for i, tier := range tiers {
					out, st, err := accs[i].Eval(src, vars)
					if err != nil {
						t.Fatalf("%v %s %q n=%d: %v", d, tier.name, src, n, err)
					}
					if !out.Equal(want) {
						t.Fatalf("%v %s %q n=%d: result diverges from oracle", d, tier.name, src, n)
					}
					if i == 0 {
						refStats = st
					} else if st != refStats {
						t.Fatalf("%v %s %q n=%d: stats %+v != fused tier %+v",
							d, tier.name, src, n, st, refStats)
					}
				}
			}
		}
	}
}

// randDAGExpr draws a random expression string of the given depth over
// variables a–h, fully parenthesized so operator precedence cannot
// reshape the intended DAG.
func randDAGExpr(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(5) == 0 {
		return string(rune('a' + rng.Intn(8)))
	}
	switch rng.Intn(5) {
	case 0:
		return "~" + randDAGExpr(rng, depth-1)
	case 1:
		return fmt.Sprintf("(%s & %s)", randDAGExpr(rng, depth-1), randDAGExpr(rng, depth-1))
	case 2:
		return fmt.Sprintf("(%s | %s)", randDAGExpr(rng, depth-1), randDAGExpr(rng, depth-1))
	default:
		return fmt.Sprintf("(%s ^ %s)", randDAGExpr(rng, depth-1), randDAGExpr(rng, depth-1))
	}
}

// fuzzAccs lazily builds the fuzzer's accelerator pair (fused and
// command-accurate) once per process.
var fuzzAccs struct {
	once     sync.Once
	fused    *Accelerator
	cmd      *Accelerator
	buildErr error
}

func fuzzAccPair() (*Accelerator, *Accelerator, error) {
	fuzzAccs.once.Do(func() {
		fuzzAccs.fused, fuzzAccs.buildErr = New(evalDiffModule)
		if fuzzAccs.buildErr != nil {
			return
		}
		fuzzAccs.cmd, fuzzAccs.buildErr = New(evalDiffModule)
		if fuzzAccs.buildErr == nil {
			fuzzAccs.cmd.SetExecutor(fuzzAccs.cmd.BaseExecutor())
		}
	})
	return fuzzAccs.fused, fuzzAccs.cmd, fuzzAccs.buildErr
}

// FuzzEvalDAG generates random expression DAGs (depth ≤ 6 over eight
// variables) and checks the fused tier bit-for-bit against both the
// command-accurate tier and the host parse-tree oracle, with
// struct-equal Stats. It also requires the fused accelerator to run
// every expression fused: a cluster whose kernel fails to derive would
// fall back to the command-accurate tier silently, and the comparison
// would then pit that tier against itself.
func FuzzEvalDAG(f *testing.F) {
	f.Add(int64(1), byte(3), uint16(200))
	f.Add(int64(2), byte(6), uint16(401))
	f.Add(int64(7), byte(1), uint16(64))
	f.Add(int64(11), byte(5), uint16(300))
	f.Add(int64(23), byte(4), uint16(128))
	f.Fuzz(func(t *testing.T, seed int64, depth byte, bits uint16) {
		fused, cmd, err := fuzzAccPair()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		src := randDAGExpr(rng, int(depth%7))
		n := int(bits)%500 + 1

		node, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("generated expression %q does not parse: %v", src, err)
		}
		vars := map[string]*BitVector{}
		for _, name := range node.Vars() {
			vars[name] = RandomBitVector(rng, n)
		}

		_, falls := fused.FusionCounters()
		fout, fst, err := fused.Eval(src, vars)
		if err != nil {
			t.Fatalf("fused eval %q: %v", src, err)
		}
		if _, after := fused.FusionCounters(); after != falls {
			t.Fatalf("%q fell back to the command-accurate tier on the fused accelerator", src)
		}
		cout, cst, err := cmd.Eval(src, vars)
		if err != nil {
			t.Fatalf("command-accurate eval %q: %v", src, err)
		}
		if !fout.Equal(cout) {
			t.Fatalf("fused and command-accurate tiers diverge on %q (n=%d)", src, n)
		}
		if fst != cst {
			t.Fatalf("%q: fused stats %+v != command-accurate stats %+v", src, fst, cst)
		}
		env := map[string]bool{}
		for i := 0; i < n; i++ {
			for name, v := range vars {
				env[name] = v.Bit(i)
			}
			if fout.Bit(i) != node.Eval(env) {
				t.Fatalf("%q bit %d diverges from oracle (n=%d)", src, i, n)
			}
		}
	})
}
