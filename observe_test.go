package elp2im

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/sched"
)

func TestSnapshotPerOpSeries(t *testing.T) {
	acc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 14
	x := NewBitVector(n)
	y := NewBitVector(n)
	dst := NewBitVector(n)
	for i := 0; i < 3; i++ {
		if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := acc.Op(OpXor, dst, x, y); err != nil {
		t.Fatal(err)
	}

	s := acc.Snapshot()
	if got := s.Counter("acc.op.count.AND"); got != 3 {
		t.Errorf("acc.op.count.AND = %d, want 3", got)
	}
	if got := s.Counter("acc.op.count.XOR"); got != 1 {
		t.Errorf("acc.op.count.XOR = %d, want 1", got)
	}
	if got := s.Counter("acc.op.count.OR"); got != 0 {
		t.Errorf("acc.op.count.OR = %d, want 0", got)
	}
	lat := s.Histograms["acc.op.latency_ns.AND"]
	if lat.Count != 3 || lat.Sum <= 0 {
		t.Errorf("latency histogram: count=%d sum=%g", lat.Count, lat.Sum)
	}
	en := s.Histograms["acc.op.energy_nj.AND"]
	if en.Count != 3 || en.Sum <= 0 {
		t.Errorf("energy histogram: count=%d sum=%g", en.Count, en.Sum)
	}
	if s.Counter("acc.op.commands.AND") <= 0 || s.Counter("acc.op.wordlines.AND") <= 0 {
		t.Error("command/wordline series empty after 3 ANDs")
	}
	// On the default (fast-path) configuration the engine executes only
	// during kernel derivation — one packed probe plus one verification run
	// per op — and the facade counts every dispatched op as a fast-path hit.
	if got := s.Counter("engine.exec.ELP2IM.AND"); got != 2 {
		t.Errorf("engine.exec.ELP2IM.AND = %d, want 2 (derivation probe + verify)", got)
	}
	if got := s.Counter("acc.fastpath.hit"); got != 4 {
		t.Errorf("acc.fastpath.hit = %d, want 4", got)
	}
	if got := s.Counter("acc.fastpath.fallback"); got != 0 {
		t.Errorf("acc.fastpath.fallback = %d, want 0", got)
	}
	// The scheduler memo's counters ride along in every snapshot.
	if _, ok := s.Counters["sched.cache.hits"]; !ok {
		t.Error("snapshot missing sched.cache.hits")
	}
	// Two accelerators must not share series.
	acc2, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if got := acc2.Snapshot().Counter("acc.op.count.AND"); got != 0 {
		t.Errorf("fresh accelerator starts with count %d, want 0", got)
	}

	// With the engine installed as the executor the engine-level execution
	// counters advance per stripe again, and every dispatch counts as a
	// fallback.
	slow, err := New()
	if err != nil {
		t.Fatal(err)
	}
	slow.SetExecutor(slow.BaseExecutor())
	for i := 0; i < 3; i++ {
		if _, err := slow.Op(OpAnd, dst, x, y); err != nil {
			t.Fatal(err)
		}
	}
	ss := slow.Snapshot()
	stripes := int64(n / slow.cfg.Module.Columns)
	if got := ss.Counter("engine.exec.ELP2IM.AND"); got != 3*stripes {
		t.Errorf("command-level engine.exec.ELP2IM.AND = %d, want %d", got, 3*stripes)
	}
	if got := ss.Counter("acc.fastpath.fallback"); got != 3 {
		t.Errorf("acc.fastpath.fallback = %d, want 3", got)
	}
	if got := ss.Counter("acc.fastpath.hit"); got != 0 {
		t.Errorf("acc.fastpath.hit = %d, want 0", got)
	}
	// Command-level stripes serialize on the per-subarray locks.
	if ss.Counter("acc.lock.acquire") == 0 {
		t.Error("acc.lock.acquire = 0 after command-level ops")
	}
}

func TestSnapshotConsistentUnderConcurrentOps(t *testing.T) {
	acc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 14
	const perCaller = 8
	const callers = 4

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns its vectors: concurrent calls with
			// overlapping vectors have undefined ordering by contract.
			x := NewBitVector(n)
			y := NewBitVector(n)
			dst := NewBitVector(n)
			for j := 0; j < perCaller; j++ {
				if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	// More traffic racing the callers, plus snapshot readers.
	sx := NewBitVector(n)
	sdst := NewBitVector(n)
	for i := 0; i < 4; i++ {
		if _, err := acc.Op(OpNot, sdst, sx, nil); err != nil {
			t.Fatal(err)
		}
		_ = acc.Snapshot()
	}
	wg.Wait()

	s := acc.Snapshot()
	if got := s.Counter("acc.op.count.AND"); got != callers*perCaller {
		t.Errorf("acc.op.count.AND = %d, want %d", got, callers*perCaller)
	}
	if got := s.Counter("acc.op.count.NOT"); got != 4 {
		t.Errorf("acc.op.count.NOT = %d, want 4", got)
	}
	if got := s.Histograms["acc.op.latency_ns.AND"].Count; got != callers*perCaller {
		t.Errorf("latency histogram count = %d, want %d", got, callers*perCaller)
	}
	// The per-op latency sums must equal the accumulated totals exactly:
	// both fold the same cost terms.
	sum := s.Histograms["acc.op.latency_ns.AND"].Sum + s.Histograms["acc.op.latency_ns.NOT"].Sum
	if tot := acc.Totals().LatencyNS; math.Abs(sum-tot) > 1e-6*tot {
		t.Errorf("histogram latency sum %g != totals %g", sum, tot)
	}
	// All this traffic dispatched through the compiled kernels, which
	// never touch device row state and therefore never take the
	// per-subarray locks (lock counters track command-level stripes only).
	if got := s.Counter("acc.fastpath.hit"); got != callers*perCaller+4 {
		t.Errorf("acc.fastpath.hit = %d, want %d", got, callers*perCaller+4)
	}
	if s.Counter("acc.lock.acquire") != 0 {
		t.Error("fast-path stripes took per-subarray locks")
	}
}

func TestRecordAllocatesNothing(t *testing.T) {
	// Ambit with a non-default B-group formats its design name, so the
	// span emitters must not ask for it with tracing off.
	for _, mut := range []func(*Config){
		func(*Config) {},
		func(c *Config) { c.Design, c.ReservedRows = DesignAmbit, 6 },
	} {
		acc := newAcc(t, mut)
		st := Stats{LatencyNS: 100, EnergyNJ: 5, RowOps: 1, Commands: 3, Wordlines: 5}
		allocs := testing.AllocsPerRun(1000, func() {
			acc.series.record(OpAnd.internal(), st)
			acc.callSpan(0, acc.series[OpAnd.internal()].spanName, "AND", 1, st, nil)
			acc.stripeSpan(0, 0, nil)
			acc.callSpan(0, acc.series[OpAnd.internal()].reduceSpan, "AND", 1, st, nil)
		})
		if allocs != 0 {
			t.Errorf("%s: metrics/span path with tracing off allocates %.1f/op, want 0", acc.Design(), allocs)
		}
	}
}

func TestAveragePowerZeroLatency(t *testing.T) {
	// powerW is the guard itself.
	if got := powerW(0, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("powerW(0,0) = %g, want 0", got)
	}
	if got := powerW(5, 0); got != 0 {
		t.Errorf("powerW(5,0) = %g, want 0", got)
	}
	if got := powerW(10, 4); got != 2.5 {
		t.Errorf("powerW(10,4) = %g, want 2.5", got)
	}

	// Accumulating a zero-cost stat into zero totals must not produce NaN
	// and must not leave a stale power value behind after a reset.
	var s Stats
	s.add(Stats{})
	if math.IsNaN(s.AveragePowerW) || s.AveragePowerW != 0 {
		t.Errorf("zero-total power = %g, want 0", s.AveragePowerW)
	}
	s.add(Stats{LatencyNS: 10, EnergyNJ: 20})
	if s.AveragePowerW != 2 {
		t.Errorf("power = %g, want 2", s.AveragePowerW)
	}

	acc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	acc.ResetTotals()
	tot := acc.Totals()
	if math.IsNaN(tot.AveragePowerW) || tot.AveragePowerW != 0 {
		t.Errorf("reset totals power = %g, want 0", tot.AveragePowerW)
	}
}

func TestTraceLoadsAsChromeArray(t *testing.T) {
	acc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	acc.SetTracer(tr)

	const n = 1 << 14
	x := NewBitVector(n)
	y := NewBitVector(n)
	d1 := NewBitVector(n)
	d2 := NewBitVector(n)
	for _, op := range []Op{OpAnd, OpOr, OpXor} {
		if _, err := acc.Op(op, d1, x, y); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := acc.Reduce(OpAnd, d2, x, y, d1); err != nil {
		t.Fatal(err)
	}
	acc.SetTracer(nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The file must parse as a Chrome trace_event array (modulo the
	// trailing comma the streaming format carries).
	text := strings.Replace(buf.String(), ",\n]", "\n]", 1)
	var events []map[string]any
	if err := json.Unmarshal([]byte(text), &events); err != nil {
		t.Fatalf("trace does not parse as a JSON array: %v", err)
	}
	cats := map[string]int{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event phase = %v, want X", ev["ph"])
		}
		cats[ev["cat"].(string)]++
	}
	// Three ops and a reduction on a fresh accelerator must surface facade
	// spans, per-stripe spans, and the per-row engine spans of kernel
	// derivation.
	for _, cat := range []string{"facade", "stripe", "engine"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q spans (got %v)", cat, cats)
		}
	}
	if int64(len(events)) != tr.Spans() {
		t.Errorf("parsed %d events, tracer reports %d", len(events), tr.Spans())
	}
}

func TestGlobalSnapshotSchedCache(t *testing.T) {
	sched.ResetCache()
	acc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 14
	x := NewBitVector(n)
	y := NewBitVector(n)
	dst := NewBitVector(n)
	if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
		t.Fatal(err)
	}
	// A second accelerator issuing the same op must hit the shared memo.
	acc2, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc2.Op(OpAnd, dst, x, y); err != nil {
		t.Fatal(err)
	}
	s := GlobalSnapshot()
	if s.Counter("sched.cache.misses") == 0 {
		t.Error("sched.cache.misses = 0 after fresh simulations")
	}
	if s.Counter("sched.cache.hits") == 0 {
		t.Error("sched.cache.hits = 0 after a repeated configuration")
	}
	if s.Gauge("sched.cache.entries") == 0 {
		t.Error("sched.cache.entries = 0")
	}
}

func TestServeDebugEndpoint(t *testing.T) {
	acc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := acc.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Error("empty debug address")
	}
}
