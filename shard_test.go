package elp2im

import (
	"sync"
	"testing"
)

// newShard builds a shard deployment over the small test module.
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
	if sh.Design() != sh.ShardAccelerator(0).Design() {
		t.Fatalf("Design() = %q, shard 0 runs %q", sh.Design(), sh.ShardAccelerator(0).Design())
	}
}

// TestShardPowerConstraint verifies the toggle reaches every shard
// accelerator: each prices an op exactly as a single module with the
// same setting, constrained and unconstrained.
func TestShardPowerConstraint(t *testing.T) {
	acc := newAcc(t, smallModule)
	n := acc.cfg.Module.Columns * 8
	a, b, d := NewBitVector(n), NewBitVector(n), NewBitVector(n)
	sh := newShard(t, 4)
	for _, constrained := range []bool{true, false} {
		acc.SetPowerConstrained(constrained)
		want, err := acc.Op(OpAnd, d, a, b)
		if err != nil {
			t.Fatal(err)
		}
		sh.SetPowerConstrained(constrained)
		for i := 0; i < sh.Shards(); i++ {
			got, err := sh.ShardAccelerator(i).Op(OpAnd, d, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("constrained=%v: shard %d stats %+v != single module %+v", constrained, i, got, want)
			}
		}
	}
}

// TestShardSnapshotShardSeries checks the deployment-wide views: Snapshot
// reports shard.count and sums every shard accelerator's acc.* series
// (counters add, histograms merge), and Totals is the sum of the shard
// accelerators' totals.
func TestShardSnapshotShardSeries(t *testing.T) {
	sh := newShard(t, 4)
	const stripes = 9
	n := sh.ShardAccelerator(0).cfg.Module.Columns * stripes
	a, b, d := NewBitVector(n), NewBitVector(n), NewBitVector(n)
	// Shard i runs i+1 ORs, so each shard contributes its own count.
	var ors int64
	var want Stats
	for i := 0; i < sh.Shards(); i++ {
		for j := 0; j <= i; j++ {
			st, err := sh.ShardAccelerator(i).Op(OpOr, d, a, b)
			if err != nil {
				t.Fatal(err)
			}
			want.add(st)
			ors++
		}
	}
	snap := sh.Snapshot()
	if got := snap.Gauges["shard.count"]; got != 4 {
		t.Fatalf("shard.count = %d, want 4", got)
	}
	if got := snap.Counter("acc.op.count.OR"); got != ors {
		t.Fatalf("acc.op.count.OR = %d, want %d", got, ors)
	}
	if got := snap.Counter("acc.op.rowops.OR"); got != ors*stripes {
		t.Fatalf("acc.op.rowops.OR = %d, want %d", got, ors*stripes)
	}
	if got := snap.Histograms["acc.op.latency_ns.OR"].Count; got != ors {
		t.Fatalf("acc.op.latency_ns.OR holds %d observations, want %d", got, ors)
	}
	var sum Stats
	for i := 0; i < sh.Shards(); i++ {
		sum.add(sh.ShardAccelerator(i).Totals())
	}
	if got := sh.Totals(); got != sum || got.RowOps != want.RowOps {
		t.Fatalf("Totals %+v, want the shard sum %+v (%d row ops)", got, sum, want.RowOps)
	}
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

// TestShardTracer checks that SetTracer reaches every shard accelerator:
// each one's facade spans arrive at the one sink, and none do once the
// tracer is removed.
func TestShardTracer(t *testing.T) {
	sh := newShard(t, 2)
	tr := &collectTracer{}
	sh.SetTracer(tr)
	n := sh.ShardAccelerator(0).cfg.Module.Columns * 4
	a, b, d := NewBitVector(n), NewBitVector(n), NewBitVector(n)
	run := func() {
		for i := 0; i < sh.Shards(); i++ {
			acc := sh.ShardAccelerator(i)
			if _, err := acc.Op(OpAnd, d, a, b); err != nil {
				t.Fatal(err)
			}
			if _, err := acc.Reduce(OpOr, d, a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	sh.SetTracer(nil)
	run()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var ops, reduces int
	for _, s := range tr.spans {
		if s.Cat == "facade" && s.Name == "Op(AND)" {
			ops++
		}
		if s.Cat == "facade" && s.Name == "Reduce(OR)" {
			reduces++
		}
	}
	if ops != sh.Shards() || reduces != sh.Shards() {
		t.Fatalf("facade spans: %d Op(AND) and %d Reduce(OR), want %d each (%d spans)",
			ops, reduces, sh.Shards(), len(tr.spans))
	}
}
