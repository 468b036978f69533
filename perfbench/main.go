// Command perfbench is the repository's benchmark. One run starts an
// in-process elpd on loopback, loads one workload's dataset into it, and
// drives it from the same process as a closed loop for a fixed time,
// checking every answer against a host oracle built from the seed:
//
//	bash perfbench/run.sh --workload ops_wire --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
// the line before it is the full report. See perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	elp2im "repro"
	"repro/internal/sched"
	"repro/internal/server"
)

// setupRepeats is how many times a run builds the server, loads the
// dataset and warms up; setup_s is the median, and the last set-up serves
// the timed load.
const setupRepeats = 3

// workloadNames lists the workloads in the order the README documents.
var workloadNames = []string{"ops_wire", "arith_wire", "query_json"}

// newWorkload generates the named workload's dataset and request streams.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "ops_wire":
		return newOps(seed), nil
	case "arith_wire":
		return newArith(seed), nil
	case "query_json":
		return newQuery(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// run executes one benchmark run and returns the exit code: 0 when every
// answer was correct, 1 when one was not, 2 when the run could not be
// made. corrupt, when set, alters the recorded answers before they are
// checked, so tests can show that a wrong answer fails the run.
func run(args []string, stdout, stderr io.Writer, corrupt func(workload)) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the dataset and request streams")
	fs.IntVar(&opt.seconds, "seconds", 10, "length of the timed load in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced load and layer replay and reports per-layer metrics")
	fs.StringVar(&opt.out, "out", ".bench_build/perfbench", "directory for the report and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opt.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	opt.trace = trace == 1
	if opt.workload == "all" {
		return runAll(opt, trace, stdout, stderr)
	}
	w, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rep, err := execute(w, opt, stderr, corrupt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := writeJSONFile(filepath.Join(opt.out, fmt.Sprintf("%s-seed%d-trace%d.report.json", opt.workload, opt.seed, trace)), rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	metrics := rep.EndToEnd
	if opt.trace {
		metrics = rep.PerLayer
	}
	full, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	last, err := json.Marshal(summaryLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(full))
	fmt.Fprintln(stdout, string(last))
	if !rep.Correct {
		for _, e := range rep.Errors {
			fmt.Fprintln(stderr, "perfbench: wrong answer:", e)
		}
		return 1
	}
	return 0
}

// runAll runs every workload, each in a fresh process of this binary so
// its set-up, caches and peak RSS are its own, and prints each one's
// result line after its name. The exit code is the worst of theirs.
func runAll(opt options, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	code := 0
	for _, name := range workloadNames {
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(opt.seed, 10),
			"--seconds", strconv.Itoa(opt.seconds), "--trace", strconv.Itoa(trace), "--out", opt.out)
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
			code = max(code, exit.ExitCode())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		fmt.Fprintln(stdout, name, lines[len(lines)-1])
	}
	return code
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo is the context every result records.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// phase records one load's request accounting.
type phase struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Completed int     `json:"completed"`
	Rejected  int     `json:"rejected_503"`
	Deadline  int     `json:"deadline_504"`
	Transport int     `json:"transport_errors"`
	Wrong     int     `json:"wrong_status"`
	ElapsedS  float64 `json:"elapsed_s"`
	Samples   int     `json:"latency_samples"`
	Segments  int     `json:"segments"`
	// BeyondP99 is the number of samples above each segment's p99.
	BeyondP99 int `json:"samples_beyond_p99"`
}

func phaseOf(name string, lr *loadRun) phase {
	seg := lr.segmented()
	return phase{
		Name: name, Attempted: lr.attempted, Completed: lr.ok,
		Rejected: lr.failed[outRejected], Deadline: lr.failed[outDeadline],
		Transport: lr.failed[outTransport], Wrong: lr.failed[outWrong],
		ElapsedS: lr.elapsed.Seconds(), Samples: len(lr.samples), Segments: seg.segments,
		BeyondP99: seg.size - int(math.Ceil(0.99*float64(seg.size))),
	}
}

// report is everything one run measured.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      hostInfo          `json:"host"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	SetupS    []float64         `json:"setup_s_each"`
	Phases    []phase           `json:"phases"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// counters is the server-side state read around the timed load.
type counters struct {
	stats server.StatsPayload
	snap  elp2im.MetricsSnapshot
	sched sched.CacheStats
	mem   runtime.MemStats
}

func readCounters(e *env) counters {
	c := counters{stats: e.srv.Stats(), snap: e.snapshot(), sched: sched.GlobalCacheStats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// execute makes one run: set-up (repeated), the timed load, with --trace 1
// the traced load and the layer replay, and the oracle check.
func execute(w workload, opt options, stderr io.Writer, corrupt func(workload)) (*report, error) {
	sh := w.shape()
	rep := &report{
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Host: hostInfo{GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Correct: true,
	}
	fail := func(format string, args ...any) {
		rep.Correct = false
		rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
	}

	// Set-up: build the accelerator and server, store the dataset over the
	// workload's protocol, and warm up on each slot's first requests. The
	// scheduler memo is process-wide, so it is emptied first: every set-up
	// pays the cold misses a fresh process pays.
	var e *env
	var dr *driver
	var warm loadRun
	var warmTotals elp2im.Stats
	var sched0 sched.CacheStats
	closeAll := func() error {
		w.closeClients()
		return e.close()
	}
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := closeAll(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
			e = nil
			runtime.GC()
		}
		sched.ResetCache()
		sched0 = sched.GlobalCacheStats()
		start := time.Now()
		var err error
		if e, err = startServer(sh.shards, sh.protocol); err != nil {
			return nil, fmt.Errorf("start server: %w", err)
		}
		if err := w.connect(e.addr()); err != nil {
			return nil, errors.Join(fmt.Errorf("connect: %w", err), e.close())
		}
		if err := w.load(); err != nil {
			return nil, errors.Join(fmt.Errorf("load dataset: %w", err), closeAll())
		}
		before := e.srv.Totals()
		dr = newDriver(w)
		warm = dr.run(sh.warmup, 0, nil)
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
		after := e.srv.Totals()
		warmTotals = elp2im.Stats{LatencyNS: after.LatencyNS - before.LatencyNS, EnergyNJ: after.EnergyNJ - before.EnergyNJ}
	}
	defer func() {
		if err := closeAll(); err != nil {
			fmt.Fprintln(stderr, "perfbench: shut down:", err)
		}
	}()
	rep.Phases = append(rep.Phases, phaseOf("warmup", &warm))
	if warm.failedCount() > 0 {
		fail("%d of %d warm-up requests failed", warm.failedCount(), warm.attempted)
	}
	// The modeled cost is read from the responses of the warm-up, the same
	// requests on every run of a seed, summed in slot order, so it repeats
	// exactly. The server's totals must account the same cost.
	if !closeTo(warm.modeled.latencyNS, warmTotals.LatencyNS) || !closeTo(warm.modeled.energyNJ, warmTotals.EnergyNJ) {
		fail("responses report %.6g ns / %.6g nJ of modeled cost, server totals %.6g ns / %.6g nJ",
			warm.modeled.latencyNS, warm.modeled.energyNJ, warmTotals.LatencyNS, warmTotals.EnergyNJ)
	}

	dur := time.Duration(opt.seconds) * time.Second
	c0 := readCounters(e)
	load := dr.run(0, dur, nil)
	c1 := readCounters(e)
	rssMiB := peakRSSMiB()
	rep.Phases = append(rep.Phases, phaseOf("timed", &load))
	rep.Attempted, rep.Failed = load.attempted, load.failedCount()
	for _, err := range load.wrong {
		fail("%v", err)
	}

	var tr *tracer
	var traced loadRun
	if opt.trace {
		tr = newTracer()
		traced = dr.run(0, dur, tr)
		rep.Phases = append(rep.Phases, phaseOf("traced", &traced))
		rep.Attempted += traced.attempted
		rep.Failed += traced.failedCount()
		for _, err := range traced.wrong {
			fail("%v", err)
		}
	}

	if corrupt != nil {
		corrupt(w)
	}
	if err := w.verify(); err != nil {
		fail("%v", err)
	}

	seg := load.segmented()
	okWarm := float64(max(warm.ok, 1))
	rep.EndToEnd = map[string]metric{
		"setup_s":            {median(rep.SetupS), "s"},
		"throughput_rps":     {seg.throughput, "req/s"},
		"p50_ms":             {seg.p50, "ms"},
		"p99_ms":             {seg.p99, "ms"},
		"ok_ratio":           {float64(load.ok) / float64(max(load.attempted, 1)), "ratio"},
		"cpu_us_per_req":     {float64(load.cpu.Nanoseconds()) / 1e3 / float64(max(load.ok, 1)), "us"},
		"modeled_ns_per_req": {warm.modeled.latencyNS / okWarm, "sim_ns"},
		"modeled_nj_per_req": {warm.modeled.energyNJ / okWarm, "sim_nJ"},
		"rss_peak_mb":        {rssMiB, "MiB"},
	}
	if seg.size < minSegment {
		fmt.Fprintf(stderr, "perfbench: only %d latency samples, fewer than 10 beyond p99; lengthen --seconds\n", seg.size)
	}
	if !opt.trace {
		return rep, nil
	}

	rs, err := w.replay(tr, sh.replay)
	if err != nil {
		fail("replay: %v", err)
	}
	sum := summarize(tr.spans)
	path, err := writeTrace(opt.out, opt.workload, opt.seed, tr.spans, sum)
	if err != nil {
		return nil, err
	}
	rep.TraceFile = path
	rep.PerLayer = perLayer(&load, &traced, &warm, c0, c1, sched0, rs, sum)
	return rep, nil
}

// perLayer assembles the per-layer metrics: counter deltas over the
// untraced timed load, span means from the traced load and the replay,
// and the modeled DRAM counts of the warm-up.
func perLayer(load, traced, warm *loadRun, c0, c1 counters, sched0 sched.CacheStats, rs replayStats, spans map[string]*layerSummary) map[string]metric {
	m := make(map[string]metric)
	ok := float64(max(load.ok, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	counter := func(name string) float64 { return float64(c1.snap.Counter(name) - c0.snap.Counter(name)) }
	hist := func(name string) (sum, count float64) {
		a, b := c0.snap.Histograms[name], c1.snap.Histograms[name]
		return b.Sum - a.Sum, float64(b.Count - a.Count)
	}
	spanMean := func(name string) {
		var mean, calls float64
		if l := spans[name]; l != nil {
			mean, calls = l.meanNS(), float64(l.Calls)
		}
		m[name+"_ns"] = metric{mean, "ns"}
		m[name+".calls"] = metric{calls, "count"}
	}

	// wire: codec calls from the replay; flushes from the server.
	spanMean("wire.encode")
	spanMean("wire.decode")
	m["wire.flushes_per_req"] = metric{ratio(counter("server.wire.flushes"), counter("server.wire.requests")), "ratio"}
	fsum, fcount := hist("server.wire.frames_per_flush")
	m["wire.frames_per_flush"] = metric{ratio(fsum, fcount), "ratio"}

	// server: admission and the micro-batcher.
	s0, s1 := c0.stats.Server, c1.stats.Server
	m["server.batch.occupancy"] = metric{ratio(float64(s1.RequestsCoalesced-s0.RequestsCoalesced), float64(s1.BatchesFlushed-s0.BatchesFlushed)), "ratio"}
	m["server.rejected"] = metric{float64(s1.Rejected - s0.Rejected), "count"}
	m["server.deadline_expired"] = metric{float64(s1.DeadlineExpired - s0.DeadlineExpired), "count"}
	var roundtrip float64
	if l := spans["client.roundtrip"]; l != nil {
		roundtrip = l.meanNS()
	}
	m["server.residual_ns"] = metric{roundtrip - ratio(float64(rs.codecNS+rs.execNS), float64(rs.requests)), "ns"}

	// HTTP/JSON handlers.
	spanMean("json.decode")
	spanMean("json.encode")
	hsum, hcount := hist("server.http.latency_ns.query")
	m["server.http.mean_ns"] = metric{ratio(hsum, hcount), "ns"}
	m["server.http.calls"] = metric{hcount, "count"}

	// plan + expr compile behind the evalcache.
	hits, misses := counter("server.evalcache.hit"), counter("server.evalcache.miss")
	m["server.evalcache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	spanMean("plan.compile")

	// elp2im facade.
	spanMean("elp2im.exec")
	m["elp2im.overhead_ns"] = metric{ratio(float64(rs.execNS-rs.kernelNS), float64(rs.execs)), "ns"}
	fh, ff := counter("acc.fastpath.hit"), counter("acc.fastpath.fallback")
	m["elp2im.fastpath.hit_ratio"] = metric{ratio(fh, fh+ff), "ratio"}
	uh, uf := counter("acc.fusion.hit"), counter("acc.fusion.fallback")
	m["elp2im.fusion.hit_ratio"] = metric{ratio(uh, uh+uf), "ratio"}
	m["elp2im.lock.contended_ratio"] = metric{ratio(counter("acc.lock.contended"), counter("acc.lock.acquire")), "ratio"}

	// pipeline.
	m["pipeline.busy_ns_per_req"] = metric{counter("pipeline.busy_ns") / ok, "ns"}
	m["pipeline.queue.depth.max"] = metric{float64(c1.snap.Gauge("pipeline.queue.depth.max")), "count"}

	// kernel.
	spanMean("kernel.apply")
	m["kernel.gates_per_req"] = metric{ratio(float64(rs.gates), float64(rs.requests)), "count"}
	m["kernel.bytes_per_req"] = metric{ratio(float64(rs.bytes), float64(rs.requests)), "B"}

	// vertical.
	m["vertical.steps_per_req"] = metric{ratio(float64(rs.steps), float64(rs.requests)), "count"}
	m["vertical.transpose_ns_per_elem"] = metric{ratio(float64(rs.transposeNS), float64(rs.transposed)), "ns"}
	var transposes int64
	for _, name := range []string{"vertical.slice", "vertical.unslice"} {
		if l := spans[name]; l != nil {
			transposes += l.Calls
		}
	}
	m["vertical.transpose.calls"] = metric{float64(transposes), "count"}

	// sched: from the kept set-up's cold start through the timed load.
	sh, sm := float64(c1.sched.Hits-sched0.Hits), float64(c1.sched.Misses-sched0.Misses)
	m["sched.cache.hit_ratio"] = metric{ratio(sh, sh+sm), "ratio"}

	// Modeled DRAM, from the warm-up's responses.
	wok := float64(max(warm.ok, 1))
	m["elpim.row_ops_per_req"] = metric{float64(warm.modeled.rowOps) / wok, "count"}
	m["elpim.commands_per_req"] = metric{float64(warm.modeled.commands) / wok, "count"}
	m["elpim.wordlines_per_req"] = metric{float64(warm.modeled.wordlines) / wok, "count"}
	m["power.avg_w"] = metric{ratio(warm.modeled.energyNJ, warm.modeled.latencyNS), "sim_W"}

	// Go runtime over the timed load.
	m["runtime.alloc_bytes_per_req"] = metric{float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc) / ok, "B"}
	m["runtime.allocs_per_req"] = metric{float64(c1.mem.Mallocs-c0.mem.Mallocs) / ok, "count"}
	m["runtime.gc_per_kreq"] = metric{float64(c1.mem.NumGC-c0.mem.NumGC) * 1000 / ok, "count"}
	m["runtime.gc_pause_us_per_kreq"] = metric{float64(c1.mem.PauseTotalNs-c0.mem.PauseTotalNs) / 1e3 * 1000 / ok, "us"}

	// The traced run itself.
	spanMean("client.roundtrip")
	m["trace.overhead_ratio"] = metric{ratio(load.segmented().throughput, traced.segmented().throughput), "ratio"}
	return m
}

// closeTo reports whether two sums of the same costs agree to rounding.
func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*max(a, b, 1)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
