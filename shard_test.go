package elp2im

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitvec"
)

// newShard builds a shard router over the small test module.
func newShard(t *testing.T, shards int, mutators ...func(*Config)) *Shard {
	t.Helper()
	ms := append([]func(*Config){smallModule}, mutators...)
	sh, err := NewShard(shards, ms...)
	if err != nil {
		t.Fatalf("NewShard(%d): %v", shards, err)
	}
	return sh
}

func TestNewShardValidation(t *testing.T) {
	if _, err := NewShard(0); err == nil {
		t.Fatal("NewShard(0) must fail")
	}
	if _, err := NewShard(-3); err == nil {
		t.Fatal("NewShard(-3) must fail")
	}
	sh := newShard(t, 3)
	if sh.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", sh.Shards())
	}
	if sh.Design() == "" || sh.ReservedRows() <= 0 {
		t.Fatalf("passthroughs broken: design %q reserved %d", sh.Design(), sh.ReservedRows())
	}
}

// TestShardPlacement pins the placement function's invariants: it is a
// deterministic pure function of the stripe index, constant within a
// placement chunk, and stripeLists is an exact partition of [0, n) into
// ascending lists.
func TestShardPlacement(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		sh := newShard(t, n)
		const stripes = 257
		owner := make([]int, stripes)
		for s := 0; s < stripes; s++ {
			owner[s] = sh.shardOf(s)
			if owner[s] != sh.shardOf(s) {
				t.Fatalf("shards=%d: shardOf(%d) not deterministic", n, s)
			}
			if owner[s] < 0 || owner[s] >= n {
				t.Fatalf("shards=%d: shardOf(%d) = %d out of range", n, s, owner[s])
			}
			if s%shardChunkStripes != 0 && owner[s] != owner[s-1] {
				t.Fatalf("shards=%d: stripe %d split mid-chunk (%d vs %d)",
					n, s, owner[s], owner[s-1])
			}
		}
		lists := sh.stripeLists(stripes)
		if len(lists) != n {
			t.Fatalf("shards=%d: %d lists", n, len(lists))
		}
		seen := make([]bool, stripes)
		for i, l := range lists {
			prev := -1
			for _, s := range l {
				if s <= prev {
					t.Fatalf("shards=%d: list %d not ascending", n, i)
				}
				prev = s
				if owner[s] != i || seen[s] {
					t.Fatalf("shards=%d: stripe %d misplaced or duplicated", n, s)
				}
				seen[s] = true
			}
		}
		for s, ok := range seen {
			if !ok {
				t.Fatalf("shards=%d: stripe %d unassigned", n, s)
			}
		}
	}
}

// TestShardMatchesAccelerator drives the same mixed program through a
// single Accelerator and through shard routers of several widths, on an
// aligned and a non-word-aligned geometry, and requires bit-identical
// results, struct-equal Totals, and equal acc.op.* metric counts.
func TestShardMatchesAccelerator(t *testing.T) {
	geoms := map[string]func(*Config){
		"aligned": smallModule,
		"ragged": func(c *Config) {
			smallModule(c)
			c.Module.Columns = 100
		},
	}
	for name, geom := range geoms {
		t.Run(name, func(t *testing.T) {
			acc := newAcc(t, geom)
			cols := acc.cfg.Module.Columns
			n := 7*cols + 13 // multi-stripe, ragged tail
			rng := rand.New(rand.NewSource(42))
			mk := func() (a, b, c, d *BitVector) {
				words := func() *BitVector {
					v := NewBitVector(n)
					v.v.CopyFrom(bitvec.Random(rng, n))
					return v
				}
				return words(), words(), words(), NewBitVector(n)
			}
			run := func(op func(Op, *BitVector, *BitVector, *BitVector) (Stats, error),
				reduce func(Op, *BitVector, ...*BitVector) (Stats, error),
				a, b, c, d *BitVector) {
				for _, step := range []struct {
					o          Op
					dst, x, y2 *BitVector
				}{
					{OpAnd, d, a, b},
					{OpXor, a, d, c},
					{OpNot, b, a, nil},
					{OpCopy, c, b, nil},
				} {
					if _, err := op(step.o, step.dst, step.x, step.y2); err != nil {
						t.Fatalf("op %v: %v", step.o, err)
					}
				}
				if _, err := reduce(OpOr, d, a, b, c); err != nil {
					t.Fatalf("reduce: %v", err)
				}
			}

			rng = rand.New(rand.NewSource(42))
			aA, bA, cA, dA := mk()
			run(acc.Op, acc.Reduce, aA, bA, cA, dA)
			wantTotals := acc.Totals()
			wantSnap := acc.Snapshot()

			for _, shards := range []int{1, 2, 4, 8} {
				sh := newShard(t, shards, geom)
				rng = rand.New(rand.NewSource(42))
				a, b, c, d := mk()
				run(sh.Op, sh.Reduce, a, b, c, d)
				for i, pair := range [][2]*BitVector{{a, aA}, {b, bA}, {c, cA}, {d, dA}} {
					if !pair[0].v.Equal(pair[1].v) {
						t.Fatalf("shards=%d: vec %d diverges from single module", shards, i)
					}
				}
				if got := sh.Totals(); got != wantTotals {
					t.Fatalf("shards=%d: totals %+v != baseline %+v", shards, got, wantTotals)
				}
				snap := sh.Snapshot()
				for k, v := range wantSnap.Counters {
					if !strings.HasPrefix(k, "acc.op.") {
						continue
					}
					if snap.Counters[k] != v {
						t.Fatalf("shards=%d: counter %s = %d, baseline %d",
							shards, k, snap.Counters[k], v)
					}
				}
			}
		})
	}
}

// TestShardEval checks the scattered expression path against the single
// module, including totals.
func TestShardEval(t *testing.T) {
	acc := newAcc(t, smallModule)
	cols := acc.cfg.Module.Columns
	n := 5*cols + 7
	rng := rand.New(rand.NewSource(7))
	vars := func() map[string]*BitVector {
		m := map[string]*BitVector{}
		for _, name := range []string{"p", "q", "r"} {
			v := NewBitVector(n)
			v.v.CopyFrom(bitvec.Random(rng, n))
			m[name] = v
		}
		return m
	}
	const src = "(p & ~q) | (q ^ r)"

	rng = rand.New(rand.NewSource(7))
	wantOut, wantSt, err := acc.Eval(src, vars())
	if err != nil {
		t.Fatalf("baseline Eval: %v", err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		sh := newShard(t, shards)
		rng = rand.New(rand.NewSource(7))
		out, st, err := sh.Eval(src, vars())
		if err != nil {
			t.Fatalf("shards=%d Eval: %v", shards, err)
		}
		if !out.v.Equal(wantOut.v) {
			t.Fatalf("shards=%d: Eval output diverges", shards)
		}
		if st != wantSt {
			t.Fatalf("shards=%d: Eval stats %+v != %+v", shards, st, wantSt)
		}
		if got := sh.Totals(); got != wantSt {
			t.Fatalf("shards=%d: totals %+v != eval stats %+v", shards, got, wantSt)
		}
		if _, _, err := sh.Eval("p &", vars()); err == nil {
			t.Fatalf("shards=%d: parse error not propagated", shards)
		}
	}
}

// TestShardValidation checks that the router rejects exactly what the
// single module rejects.
func TestShardValidation(t *testing.T) {
	sh := newShard(t, 2)
	n := sh.cfg.Module.Columns
	a, d := NewBitVector(n), NewBitVector(n)
	if _, err := sh.Op(OpAnd, d, a, nil); err == nil {
		t.Fatal("binary op with nil y must fail")
	}
	if _, err := sh.Op(OpAnd, d, a, NewBitVector(n-1)); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := sh.Reduce(OpXor, d, a, a); err == nil {
		t.Fatal("XOR reduction must fail")
	}
	if _, err := sh.Reduce(OpAnd, d, a); err == nil {
		t.Fatal("single-operand reduction must fail")
	}
}

// TestShardPowerConstraint verifies the toggle reaches every shard: the
// constrained cost must match the constrained single module.
func TestShardPowerConstraint(t *testing.T) {
	acc := newAcc(t, smallModule)
	acc.SetPowerConstrained(true)
	n := acc.cfg.Module.Columns * 8
	a, b, d := NewBitVector(n), NewBitVector(n), NewBitVector(n)
	want, err := acc.Op(OpAnd, d, a, b)
	if err != nil {
		t.Fatal(err)
	}

	sh := newShard(t, 4)
	sh.SetPowerConstrained(true)
	got, err := sh.Op(OpAnd, d, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("constrained shard stats %+v != single module %+v", got, want)
	}
	sh.SetPowerConstrained(false)
	rel, err := sh.Op(OpAnd, d, a, b)
	if err != nil {
		t.Fatal(err)
	}
	acc.SetPowerConstrained(false)
	relWant, err := acc.Op(OpAnd, d, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rel != relWant {
		t.Fatalf("unconstrained shard stats %+v != single module %+v", rel, relWant)
	}
}

// TestShardSnapshotShardSeries checks the per-shard scatter series: the
// stripes counters must sum to the stripes issued, and shard.count must
// report the width.
func TestShardSnapshotShardSeries(t *testing.T) {
	sh := newShard(t, 4)
	cols := sh.cfg.Module.Columns
	stripes := 9
	n := cols * stripes
	a, b, d := NewBitVector(n), NewBitVector(n), NewBitVector(n)
	if _, err := sh.Op(OpOr, d, a, b); err != nil {
		t.Fatal(err)
	}
	snap := sh.Snapshot()
	if got := snap.Gauges["shard.count"]; got != 4 {
		t.Fatalf("shard.count = %d, want 4", got)
	}
	var sum int64
	for i := 0; i < 4; i++ {
		sum += snap.Counters[counterName("shard", i, "stripes")]
	}
	if sum != int64(stripes) {
		t.Fatalf("shard stripe counters sum to %d, want %d", sum, stripes)
	}
}

// counterName builds the per-shard series name used by initObs.
func counterName(prefix string, i int, field string) string {
	return prefix + "." + string(rune('0'+i)) + "." + field
}

// collectTracer is a thread-safe span sink for tests.
type collectTracer struct {
	mu    sync.Mutex
	spans []SpanEvent
}

func (c *collectTracer) Span(ev SpanEvent) {
	c.mu.Lock()
	c.spans = append(c.spans, ev)
	c.mu.Unlock()
}

// TestShardTracer checks span delivery from the router path.
func TestShardTracer(t *testing.T) {
	sh := newShard(t, 2)
	tr := &collectTracer{}
	sh.SetTracer(tr)
	n := sh.cfg.Module.Columns * 4
	a, b, d := NewBitVector(n), NewBitVector(n), NewBitVector(n)
	if _, err := sh.Op(OpAnd, d, a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Reduce(OpOr, d, a, b); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var sawOp, sawReduce bool
	for _, s := range tr.spans {
		if s.Cat == "shard" && s.Name == "Op(AND)" {
			sawOp = true
		}
		if s.Cat == "shard" && s.Name == "Reduce(OR)" {
			sawReduce = true
		}
	}
	if !sawOp || !sawReduce {
		t.Fatalf("router spans missing: op=%v reduce=%v (%d spans)", sawOp, sawReduce, len(tr.spans))
	}
}
