// Command elpload is the concurrent load generator and smoke client for
// elpd: it drives a configurable mixed op workload (AND/OR/XOR +
// reductions) from many concurrent clients — closed-loop by default, or
// open-loop at a fixed offered QPS — verifies results client-side
// against a local mirror of every vector, and reports achieved
// throughput and latency percentiles as JSON on stdout (the
// BENCH_server.json trajectory point).
//
// Usage:
//
//	elpload [flags]
//	  -addr string       target elpd (empty: spawn an in-process server and
//	                     drive it — the mode scripts/bench.sh uses)
//	  -wire              speak elpwire (the length-prefixed binary protocol)
//	                     instead of HTTP/JSON: -addr targets elpd's -wire-addr
//	                     listener, and self mode spawns a wire listener. The
//	                     report keeps the same shape, so bench.sh compares the
//	                     two protocols point for point.
//	  -query             drive the bitmap-index query workload instead of the
//	                     op mix: each client owns a namespace of 8 indices and
//	                     issues boolean-predicate queries (POST /v1/query or
//	                     KindQuery) with Zipfian index popularity and a mixed
//	                     count/positions/bits result-mode draw, verifying
//	                     responses bit-for-bit against a host-side oracle
//	  -clients int       concurrent clients (default 64)
//	  -duration duration load duration (default 2s)
//	  -qps float         total offered open-loop rate; 0 = closed loop
//	  -bits int          vector length per operand (default 65536)
//	  -mix string        op weights (default "and=3,or=3,xor=2,reduce=2")
//	  -timeout duration  per-request deadline (default 5s)
//	  -verify-every int  verify the result of every Nth op per client (default 4)
//	  -seed int          base RNG seed (default 1)
//	  -shards int        self-spawned server's shard count (default 1)
//
// Besides wall-clock achieved_qps, the report carries modeled_qps:
// completed operations divided by the modeled hardware makespan scraped
// from the server (the MAX of the per-shard modeled busy times, since
// shards model concurrently executing ranks). On a host with fewer cores
// than shards, wall-clock throughput cannot scale, but modeled_qps shows
// the modeled hardware's scaling with the shard count — the number
// scripts/bench.sh sweeps into BENCH_shards.json.
//
// Exit status is non-zero when any result verification fails or any
// transport-level error occurs; 503 (backpressure) and 504 (deadline)
// responses are counted but are expected outcomes under overload.
package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	mathbits "math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	elp2im "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "elpload:", err)
		os.Exit(1)
	}
}

// options are the parsed flags.
type options struct {
	addr        string
	wireMode    bool
	queryMode   bool
	clients     int
	wireConns   int
	duration    time.Duration
	qps         float64
	bits        int
	mix         []mixEntry
	timeout     time.Duration
	verifyEvery int
	seed        int64
	shards      int
}

// wirePoolSize is the effective shared-connection count for wire mode:
// -conns when set, else one connection per 16 clients (the server's
// per-connection worker width), capped at the client count.
func (o options) wirePoolSize() int {
	n := o.wireConns
	if n <= 0 {
		n = (o.clients + 15) / 16
	}
	if n > o.clients {
		n = o.clients
	}
	return n
}

// mixEntry is one weighted workload component.
type mixEntry struct {
	name   string
	weight int
}

// parseMix parses "and=3,or=3,xor=2,reduce=2" into weighted entries.
func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, "=")
		weight := 1
		if ok {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
			weight = w
		}
		switch name {
		case "and", "or", "xor", "nand", "nor", "xnor", "not", "copy", "reduce":
		default:
			return nil, fmt.Errorf("unknown mix op %q", name)
		}
		if weight > 0 {
			mix = append(mix, mixEntry{name: name, weight: weight})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty op mix")
	}
	return mix, nil
}

// pick draws one op from the mix.
func pick(mix []mixEntry, rng *rand.Rand) string {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	n := rng.Intn(total)
	for _, m := range mix {
		n -= m.weight
		if n < 0 {
			return m.name
		}
	}
	return mix[len(mix)-1].name
}

// Report is the JSON output: the achieved load, outcome counts, latency
// percentiles, and the server's own batching stats scraped at the end.
type Report struct {
	// Mode is "self" (in-process server) or "remote".
	Mode string `json:"mode"`
	// Protocol is "json" (HTTP) or "wire" (elpwire).
	Protocol string `json:"protocol"`
	// Workload is "ops" (the bitwise op mix) or "query" (bitmap-index
	// predicates through /v1/query).
	Workload string `json:"workload"`
	// Clients is the concurrent client count.
	Clients int `json:"clients"`
	// Conns is the shared multiplexed-connection pool size (wire mode
	// only; 0 for HTTP, where each request rides the pooled http.Client).
	Conns int `json:"conns,omitempty"`
	// DurationS is the configured load duration in seconds.
	DurationS float64 `json:"duration_s"`
	// TargetQPS is the offered open-loop rate (0 for closed loop).
	TargetQPS float64 `json:"target_qps"`
	// Bits is the operand vector length.
	Bits int `json:"bits"`
	// Requests counts issued requests; OK/Rejected503/Deadline504/Errors
	// partition their outcomes; Shed counts open-loop tokens dropped
	// because every client was busy.
	Requests    int64 `json:"requests"`
	OK          int64 `json:"ok"`
	Rejected503 int64 `json:"rejected_503"`
	Deadline504 int64 `json:"deadline_504"`
	Errors      int64 `json:"errors"`
	Shed        int64 `json:"shed"`
	// VerifyChecks and VerifyFailures count client-side result
	// verifications against the local mirror.
	VerifyChecks   int64 `json:"verify_checks"`
	VerifyFailures int64 `json:"verify_failures"`
	// Shards is the target server's shard count (from the final stats
	// scrape; 0 when the scrape failed).
	Shards int `json:"shards"`
	// AchievedQPS is completed (OK) requests per wall second.
	AchievedQPS float64 `json:"achieved_qps"`
	// ModeledQPS is completed (OK) requests divided by the modeled
	// hardware makespan: the MAX over the per-shard modeled busy times
	// (shards are concurrently executing ranks, and every request, query
	// included, is charged whole to its home shard), or the single
	// module's total modeled latency when unsharded. Unlike AchievedQPS
	// it is independent of the host's core count, so it is the number
	// that shows the modeled hardware's throughput scaling with -shards.
	// Zero when the final stats scrape failed.
	ModeledQPS float64 `json:"modeled_qps"`
	// LatencyMS summarizes successful-request latency.
	LatencyMS LatencySummary `json:"latency_ms"`
	// Server is the target's /v1/stats scrape after the run (null when
	// unreachable).
	Server *server.StatsPayload `json:"server,omitempty"`
	// Host records the load generator's execution context, so achieved
	// (wall-clock) throughput numbers stay interpretable across machines
	// — e.g. flat QPS-vs-shards curves on a single-core runner.
	Host HostInfo `json:"host"`
}

// HostInfo is the runner's execution context, embedded in every report.
type HostInfo struct {
	// GoVersion is the toolchain that built the binary (runtime.Version).
	GoVersion string `json:"go_version"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's parallelism bound during the run.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// hostInfo snapshots the running process's execution context.
func hostInfo() HostInfo {
	return HostInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// LatencySummary is the latency percentile block, in milliseconds.
type LatencySummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// clientStats is one worker's tallies, merged after the run.
type clientStats struct {
	latenciesMS []float64
	requests    int64
	ok          int64
	rejected    int64
	deadline    int64
	errors      int64
	checks      int64
	failures    int64
	firstErr    error
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("elpload", flag.ContinueOnError)
	addr := fs.String("addr", "", "target elpd address (empty: in-process server)")
	wireMode := fs.Bool("wire", false, "speak the elpwire binary protocol instead of HTTP/JSON")
	queryMode := fs.Bool("query", false, "drive the bitmap-index query workload instead of the op mix")
	clients := fs.Int("clients", 64, "concurrent clients")
	conns := fs.Int("conns", 0, "wire mode: multiplexed connections shared by all clients (0 = ceil(clients/16), the server's per-connection worker width; ignored for HTTP)")
	duration := fs.Duration("duration", 2*time.Second, "load duration")
	qps := fs.Float64("qps", 0, "total offered open-loop rate (0 = closed loop)")
	bits := fs.Int("bits", 65536, "vector length per operand")
	mixStr := fs.String("mix", "and=3,or=3,xor=2,reduce=2", "op mix weights")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline")
	verifyEvery := fs.Int("verify-every", 4, "verify every Nth op per client (0 = never)")
	seed := fs.Int64("seed", 1, "base RNG seed")
	shards := fs.Int("shards", 1, "self-spawned server shard count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mix, err := parseMix(*mixStr)
	if err != nil {
		return err
	}
	opt := options{
		addr: *addr, wireMode: *wireMode, queryMode: *queryMode,
		clients: *clients, wireConns: *conns,
		duration: *duration,
		qps:      *qps, bits: *bits, mix: mix, timeout: *timeout, verifyEvery: *verifyEvery,
		seed: *seed, shards: *shards,
	}
	if opt.clients < 1 || opt.bits < 8 || opt.bits%8 != 0 {
		return fmt.Errorf("clients must be >= 1 and bits a positive multiple of 8")
	}
	if opt.shards < 1 {
		return fmt.Errorf("shards must be >= 1, got %d", opt.shards)
	}

	mode := "remote"
	target := opt.addr
	var drain func() // self mode: graceful-drain the in-process server
	if opt.addr == "" {
		mode = "self"
		srv, ln, err := spawnServer(opt)
		if err != nil {
			return err
		}
		target = ln.Addr().String()
		if opt.wireMode {
			go func() { _ = srv.ServeWire(ln) }()
			drain = func() {
				srv.Drain()
				_ = ln.Close()
				srv.CloseWireConns()
			}
		} else {
			httpSrv := srv.HTTPServer()
			go func() { _ = httpSrv.Serve(ln) }()
			drain = func() {
				srv.Drain()
				_ = httpSrv.Close()
			}
		}
	}

	report, err := drive(opt, target, mode)
	if drain != nil {
		drain()
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if report.VerifyFailures > 0 {
		return fmt.Errorf("%d result verifications failed", report.VerifyFailures)
	}
	if report.Errors > 0 {
		return fmt.Errorf("%d requests failed with transport or server errors", report.Errors)
	}
	return nil
}

// spawnServer builds the in-process elpd used by -addr "", sharded when
// -shards > 1.
func spawnServer(opt options) (*server.Server, net.Listener, error) {
	cfg := server.Config{RequestTimeout: opt.timeout}
	if opt.shards > 1 {
		sh, err := elp2im.NewShard(opt.shards)
		if err != nil {
			return nil, nil, err
		}
		cfg.Shard = sh
	} else {
		acc, err := elp2im.New()
		if err != nil {
			return nil, nil, err
		}
		cfg.Accelerator = acc
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	return srv, ln, nil
}

// drive runs the load and assembles the report.
func drive(opt options, target, mode string) (*Report, error) {
	protocol := "json"
	if opt.wireMode {
		protocol = "wire"
	}
	// One transport per worker: a pooled HTTP client connection, or one
	// persistent multiplexed elpwire connection. An extra transport scrapes
	// the final stats.
	mkTransport := newTransportFactory(opt, target)
	transports := make([]transport, opt.clients)
	for i := range transports {
		tr, err := mkTransport()
		if err != nil {
			return nil, fmt.Errorf("client %d: connect: %w", i, err)
		}
		transports[i] = tr
		defer tr.close()
	}

	// Open-loop token source: tokens carry their emission time so client
	// queueing counts against latency, as an open-loop measurement must.
	var tokens chan time.Time
	var shed int64
	stopDispatch := make(chan struct{})
	var dispatchWG sync.WaitGroup
	if opt.qps > 0 {
		tokens = make(chan time.Time, opt.clients*4)
		interval := time.Duration(float64(time.Second) / opt.qps)
		if interval <= 0 {
			interval = time.Microsecond
		}
		dispatchWG.Add(1)
		go func() {
			defer dispatchWG.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stopDispatch:
					return
				case t := <-tick.C:
					select {
					case tokens <- t:
					default:
						shed++
					}
				}
			}
		}()
	}

	deadline := time.Now().Add(opt.duration)
	stats := make([]*clientStats, opt.clients)
	var wg sync.WaitGroup
	for i := 0; i < opt.clients; i++ {
		stats[i] = &clientStats{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if opt.queryMode {
				stats[i].firstErr = runQueryClient(opt, transports[i], i, deadline, tokens, stats[i])
			} else {
				stats[i].firstErr = runClient(opt, transports[i], i, deadline, tokens, stats[i])
			}
		}(i)
	}
	wg.Wait()
	if tokens != nil {
		close(stopDispatch)
		dispatchWG.Wait()
	}

	workload := "ops"
	if opt.queryMode {
		workload = "query"
	}
	report := &Report{
		Mode: mode, Protocol: protocol, Workload: workload, Clients: opt.clients,
		DurationS: opt.duration.Seconds(),
		TargetQPS: opt.qps, Bits: opt.bits, Shed: shed,
		Host: hostInfo(),
	}
	if opt.wireMode {
		report.Conns = opt.wirePoolSize()
	}
	var all []float64
	for _, cs := range stats {
		if cs.firstErr != nil {
			return nil, cs.firstErr
		}
		report.Requests += cs.requests
		report.OK += cs.ok
		report.Rejected503 += cs.rejected
		report.Deadline504 += cs.deadline
		report.Errors += cs.errors
		report.VerifyChecks += cs.checks
		report.VerifyFailures += cs.failures
		all = append(all, cs.latenciesMS...)
	}
	report.AchievedQPS = float64(report.OK) / opt.duration.Seconds()
	report.LatencyMS = summarize(all)
	if sp, err := transports[0].scrapeStats(); err == nil {
		report.Server = sp
		report.Shards = sp.Server.Shards
		report.ModeledQPS = modeledQPS(report.OK, sp)
	}
	return report, nil
}

// modeledQPS divides completed operations by the modeled hardware
// makespan. Shards model concurrently executing ranks with private charge
// pumps, and every request is charged whole to its home shard, so the
// makespan is the MAX over the per-shard modeled busy times; a single
// module's makespan is its total modeled latency.
func modeledQPS(ok int64, sp *server.StatsPayload) float64 {
	makespanNS := sp.Totals.LatencyNS
	if len(sp.Server.PerShard) > 0 {
		makespanNS = 0
		for _, ss := range sp.Server.PerShard {
			makespanNS = max(makespanNS, ss.ModeledBusyNS)
		}
	}
	if makespanNS <= 0 {
		return 0
	}
	return float64(ok) / (makespanNS / 1e9)
}

// clientRNGs returns one worker's two independent PRNG streams. The op
// stream drives the workload — vector contents and the op sequence — and
// is a pure function of (seed, id). The jitter stream drives backpressure
// backoff sleeps, whose draw count depends on how many 503s the server
// happened to answer; keeping it separate means load-dependent backoff
// can never perturb the deterministic workload sequence (it used to:
// both drew from one PRNG, so a single 503 shifted every op after it).
func clientRNGs(seed int64, id int) (opRNG, jitterRNG *rand.Rand) {
	base := seed + int64(id)*7919
	opRNG = rand.New(rand.NewSource(base))
	jitterRNG = rand.New(rand.NewSource(base ^ 0x5DEECE66D))
	return opRNG, jitterRNG
}

// runClient is one worker: set up its vectors, then issue ops until the
// deadline, verifying results against the local mirror. The returned
// error is fatal (setup failure); per-request failures are tallied.
func runClient(opt options, tr transport, id int, deadline time.Time, tokens <-chan time.Time, cs *clientStats) error {
	opRNG, jitterRNG := clientRNGs(opt.seed, id)
	pfx := fmt.Sprintf("c%d_", id)
	nbytes := opt.bits / 8
	mirror := map[string][]byte{}
	for _, v := range []string{"a", "b", "d"} {
		raw := make([]byte, nbytes)
		opRNG.Read(raw)
		mirror[v] = raw
		if err := tr.putVector(pfx+v, raw); err != nil {
			return fmt.Errorf("client %d: setup PUT %s: %w", id, v, err)
		}
	}

	sinceVerify := 0
	for {
		start := time.Now()
		if !start.Before(deadline) {
			return nil
		}
		if tokens != nil {
			select {
			case t := <-tokens:
				start = t // open-loop: latency from intended send time
			case <-time.After(time.Until(deadline)):
				return nil
			}
		}
		op := pick(opt.mix, opRNG)
		outcome, err := tr.issueOp(pfx, op)
		cs.requests++
		if err != nil {
			cs.errors++
			continue
		}
		switch outcome {
		case outcomeOK:
			cs.ok++
			cs.latenciesMS = append(cs.latenciesMS, float64(time.Since(start).Microseconds())/1000)
		case outcomeRejected:
			cs.rejected++
			time.Sleep(time.Duration(500+jitterRNG.Intn(1500)) * time.Microsecond)
			continue
		case outcomeDeadline:
			cs.deadline++
			continue
		default:
			cs.errors++
			continue
		}

		sinceVerify++
		if opt.verifyEvery > 0 && sinceVerify >= opt.verifyEvery {
			sinceVerify = 0
			cs.checks++
			want := expected(op, mirror)
			got, err := tr.getVector(pfx + "r")
			if err != nil {
				cs.errors++
				continue
			}
			if !bytes.Equal(got, want) {
				cs.failures++
			}
		}
	}
}

// queryIndexCount is the per-namespace index count of the query workload.
const queryIndexCount = 8

// queryTemplates are the predicate shapes the query workload draws from,
// each paired with its host-side byte oracle over the three drawn
// indices (repeats are legal predicates and the oracle handles them
// naturally).
var queryTemplates = []struct {
	render func(a, b, c string) string
	host   func(a, b, c byte) byte
}{
	{func(a, b, _ string) string { return fmt.Sprintf("%s & %s", a, b) },
		func(a, b, _ byte) byte { return a & b }},
	{func(a, b, c string) string { return fmt.Sprintf("(%s & %s) | ~%s", a, b, c) },
		func(a, b, c byte) byte { return (a & b) | ^c }},
	{func(a, b, c string) string { return fmt.Sprintf("%s ^ %s ^ %s", a, b, c) },
		func(a, b, c byte) byte { return a ^ b ^ c }},
	{func(a, b, c string) string { return fmt.Sprintf("(%s | %s) & ~%s", a, b, c) },
		func(a, b, c byte) byte { return (a | b) & ^c }},
}

// runQueryClient is one query-workload worker: it owns the namespace
// c<id> holding queryIndexCount random indices mirrored host-side, and
// issues boolean-predicate queries whose indices are drawn with Zipfian
// popularity (hot indices recur, exercising the eval cache the way a
// real analytics tenant would) and whose result mode mixes count,
// positions and bits. Every Nth response is verified bit-for-bit against
// the host oracle: cardinality for count mode, the match vector for bits
// mode, and the exact page plus resume cursor for positions mode.
func runQueryClient(opt options, tr transport, id int, deadline time.Time, tokens <-chan time.Time, cs *clientStats) error {
	opRNG, jitterRNG := clientRNGs(opt.seed, id)
	ns := fmt.Sprintf("c%d", id)
	nbytes := opt.bits / 8
	names := make([]string, queryIndexCount)
	mirror := make(map[string][]byte, queryIndexCount)
	for i := range names {
		names[i] = fmt.Sprintf("i%d", i)
		raw := make([]byte, nbytes)
		opRNG.Read(raw)
		mirror[names[i]] = raw
		if err := tr.putVector(ns+"/"+names[i], raw); err != nil {
			return fmt.Errorf("client %d: setup PUT %s: %w", id, names[i], err)
		}
	}
	zipf := rand.NewZipf(opRNG, 1.3, 1, queryIndexCount-1)

	sinceVerify := 0
	for {
		start := time.Now()
		if !start.Before(deadline) {
			return nil
		}
		if tokens != nil {
			select {
			case t := <-tokens:
				start = t
			case <-time.After(time.Until(deadline)):
				return nil
			}
		}
		a, b, c := names[zipf.Uint64()], names[zipf.Uint64()], names[zipf.Uint64()]
		tmpl := queryTemplates[opRNG.Intn(len(queryTemplates))]
		call := queryCall{namespace: ns, predicate: tmpl.render(a, b, c)}
		// Mode mix: count 2/5, positions 2/5, bits 1/5.
		switch opRNG.Intn(5) {
		case 0, 1:
			call.mode = wire.QueryCount
		case 2, 3:
			call.mode = wire.QueryPositions
			call.limit = 1024
			call.cursor = uint64(opRNG.Intn(opt.bits))
		default:
			call.mode = wire.QueryBits
		}
		reply, oc, err := tr.issueQuery(call)
		cs.requests++
		if err != nil {
			cs.errors++
			continue
		}
		switch oc {
		case outcomeOK:
			cs.ok++
			cs.latenciesMS = append(cs.latenciesMS, float64(time.Since(start).Microseconds())/1000)
		case outcomeRejected:
			cs.rejected++
			time.Sleep(time.Duration(500+jitterRNG.Intn(1500)) * time.Microsecond)
			continue
		case outcomeDeadline:
			cs.deadline++
			continue
		default:
			cs.errors++
			continue
		}

		sinceVerify++
		if opt.verifyEvery > 0 && sinceVerify >= opt.verifyEvery {
			sinceVerify = 0
			cs.checks++
			if !verifyQuery(call, reply, tmpl.host, mirror[a], mirror[b], mirror[c], opt.bits) {
				cs.failures++
			}
		}
	}
}

// verifyQuery checks one query reply bit-for-bit against the host
// oracle's evaluation of the same predicate over the mirrored indices.
func verifyQuery(call queryCall, reply *queryReply, host func(a, b, c byte) byte, a, b, c []byte, bits int) bool {
	if reply.bits != bits {
		return false
	}
	want := make([]byte, len(a))
	count := uint64(0)
	for i := range want {
		want[i] = host(a[i], b[i], c[i])
		count += uint64(mathbits.OnesCount8(want[i]))
	}
	if reply.count != count {
		return false
	}
	switch call.mode {
	case wire.QueryBits:
		return bytes.Equal(reply.data, want)
	case wire.QueryPositions:
		var positions []uint64
		next := uint64(0)
		for i := int(call.cursor); i < bits; i++ {
			if want[i/8]&(1<<(i%8)) == 0 {
				continue
			}
			if len(positions) == int(call.limit) {
				next = positions[len(positions)-1] + 1
				break
			}
			positions = append(positions, uint64(i))
		}
		if len(reply.positions) != len(positions) || reply.next != next {
			return false
		}
		for i := range positions {
			if reply.positions[i] != positions[i] {
				return false
			}
		}
	}
	return true
}

// expected computes the local mirror of dst after op.
func expected(op string, mirror map[string][]byte) []byte {
	a, b, d := mirror["a"], mirror["b"], mirror["d"]
	out := make([]byte, len(a))
	for i := range a {
		switch op {
		case "and":
			out[i] = a[i] & b[i]
		case "or":
			out[i] = a[i] | b[i]
		case "xor":
			out[i] = a[i] ^ b[i]
		case "nand":
			out[i] = ^(a[i] & b[i])
		case "nor":
			out[i] = ^(a[i] | b[i])
		case "xnor":
			out[i] = ^(a[i] ^ b[i])
		case "not":
			out[i] = ^a[i]
		case "copy":
			out[i] = a[i]
		case "reduce":
			out[i] = a[i] & b[i] & d[i]
		}
	}
	return out
}

// outcome classifies one op request's result, uniformly across the two
// protocols: HTTP statuses and wire statuses collapse onto the same
// classes, so the report means the same thing in either mode.
type outcome int

const (
	outcomeOK       outcome = iota
	outcomeRejected         // 503 / saturated / draining (backoff and retry)
	outcomeDeadline         // 504 / deadline
	outcomeError            // anything else
)

// transport issues the workload's requests over one protocol. Each worker
// owns one transport; implementations need not be safe for concurrent
// use.
type transport interface {
	putVector(name string, raw []byte) error
	getVector(name string) ([]byte, error)
	issueOp(pfx, op string) (outcome, error)
	issueQuery(q queryCall) (*queryReply, outcome, error)
	scrapeStats() (*server.StatsPayload, error)
	close()
}

// queryCall is one bitmap-index query, protocol-independent (mode is the
// wire code; the JSON transport maps it to the mode string).
type queryCall struct {
	namespace string
	predicate string
	mode      uint8
	cursor    uint64
	limit     uint32
}

// queryReply is the protocol-independent query response: the universe
// width and cardinality, plus the mode-specific payload.
type queryReply struct {
	bits      int
	count     uint64
	data      []byte   // bits mode: the match vector's raw bytes
	positions []uint64 // positions mode: the page
	next      uint64   // positions mode: the resume cursor (0 = exhausted)
}

// queryModeNames maps the wire mode codes onto the JSON mode strings.
var queryModeNames = [...]string{wire.QueryCount: "count", wire.QueryBits: "bits", wire.QueryPositions: "positions"}

// newTransportFactory returns a constructor for per-worker transports
// against the target address (host:port for wire, HTTP base otherwise).
func newTransportFactory(opt options, target string) func() (transport, error) {
	if opt.wireMode {
		// Workers share a bounded pool of multiplexed connections instead
		// of dialing one each: with many in-flight requests per connection
		// the frame writers on both ends (the server's responses, the
		// client's requests) batch frames into shared writev syscalls. The default
		// pool size matches the server's per-connection worker width, so
		// pipelining depth is preserved. Sharing a *wire.Client across
		// transports is safe (it is concurrency-safe and Close is
		// idempotent).
		n := opt.wirePoolSize()
		var mu sync.Mutex
		var pool []*wire.Client
		next := 0
		return func() (transport, error) {
			mu.Lock()
			defer mu.Unlock()
			var c *wire.Client
			if len(pool) < n {
				nc, err := wire.Dial(target)
				if err != nil {
					return nil, err
				}
				pool = append(pool, nc)
				c = nc
			} else {
				c = pool[next%len(pool)]
				next++
			}
			return &wireTransport{c: c, timeoutMS: uint32(opt.timeout.Milliseconds())}, nil
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        opt.clients * 2,
		MaxIdleConnsPerHost: opt.clients * 2,
	}}
	base := "http://" + target
	return func() (transport, error) {
		return &jsonTransport{client: client, base: base, timeout: opt.timeout}, nil
	}
}

// jsonTransport is the HTTP/JSON path (shared pooled http.Client).
type jsonTransport struct {
	client  *http.Client
	base    string
	timeout time.Duration
}

// issueOp posts one op/reduce request and classifies the HTTP status.
func (t *jsonTransport) issueOp(pfx, op string) (outcome, error) {
	var path string
	var body any
	if op == "reduce" {
		path = "/v1/reduce"
		body = server.ReduceRequest{Op: "and", Dst: pfx + "r", Srcs: []string{pfx + "a", pfx + "b", pfx + "d"}}
	} else {
		path = "/v1/op"
		body = server.OpRequest{Op: op, Dst: pfx + "r", X: pfx + "a", Y: pfx + "b"}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return outcomeError, err
	}
	url := fmt.Sprintf("%s%s?timeout_ms=%d", t.base, path, t.timeout.Milliseconds())
	resp, err := t.client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return outcomeError, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		return outcomeOK, nil
	case http.StatusServiceUnavailable:
		return outcomeRejected, nil
	case http.StatusGatewayTimeout:
		return outcomeDeadline, nil
	default:
		return outcomeError, nil
	}
}

// issueQuery posts one /v1/query request and classifies the HTTP status.
func (t *jsonTransport) issueQuery(q queryCall) (*queryReply, outcome, error) {
	body := server.QueryRequest{
		Namespace: q.namespace, Predicate: q.predicate,
		Mode: queryModeNames[q.mode], Cursor: int(q.cursor), Limit: int(q.limit),
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, outcomeError, err
	}
	url := fmt.Sprintf("%s/v1/query?timeout_ms=%d", t.base, t.timeout.Milliseconds())
	resp, err := t.client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, outcomeError, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, outcomeRejected, nil
	case http.StatusGatewayTimeout:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, outcomeDeadline, nil
	default:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, outcomeError, nil
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return nil, outcomeError, err
	}
	reply := &queryReply{bits: qr.Bits, count: uint64(qr.Count), next: uint64(qr.NextCursor)}
	if q.mode == wire.QueryBits {
		if reply.data, err = base64.StdEncoding.DecodeString(qr.Data); err != nil {
			return nil, outcomeError, err
		}
	}
	if q.mode == wire.QueryPositions {
		reply.positions = make([]uint64, len(qr.Positions))
		for i, p := range qr.Positions {
			reply.positions[i] = uint64(p)
		}
	}
	return reply, outcomeOK, nil
}

// putVector stores raw bytes under name.
func (t *jsonTransport) putVector(name string, raw []byte) error {
	payload := server.VectorPayload{Bits: len(raw) * 8, Data: base64.StdEncoding.EncodeToString(raw)}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, t.base+"/v1/vectors/"+name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// getVector fetches a vector's raw bytes.
func (t *jsonTransport) getVector(name string) ([]byte, error) {
	resp, err := t.client.Get(t.base + "/v1/vectors/" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", name, resp.StatusCode)
	}
	var payload server.VectorPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(payload.Data)
}

// scrapeStats fetches the target's /v1/stats.
func (t *jsonTransport) scrapeStats() (*server.StatsPayload, error) {
	resp, err := t.client.Get(t.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sp server.StatsPayload
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

// close is a no-op: the pooled http.Client is shared across workers.
func (t *jsonTransport) close() {}

// wireOpCodes maps the mix's op names onto wire op codes.
var wireOpCodes = map[string]uint8{
	"not": wire.BitNot, "and": wire.BitAnd, "or": wire.BitOr,
	"nand": wire.BitNand, "nor": wire.BitNor, "xor": wire.BitXor,
	"xnor": wire.BitXnor, "copy": wire.BitCopy,
}

// wireTransport is the elpwire path: workers share persistent
// multiplexed connections from the -conns pool (see
// newTransportFactory), so concurrent requests pipeline and their
// frames coalesce into shared writev flushes on both sides.
type wireTransport struct {
	c         *wire.Client
	timeoutMS uint32
}

// issueOp executes one op/reduce over the wire and classifies the status.
func (t *wireTransport) issueOp(pfx, op string) (outcome, error) {
	var err error
	if op == "reduce" {
		_, err = t.c.Reduce(wire.BitAnd, t.timeoutMS, pfx+"r", []string{pfx + "a", pfx + "b", pfx + "d"})
	} else {
		code, ok := wireOpCodes[op]
		if !ok {
			return outcomeError, fmt.Errorf("no wire code for op %q", op)
		}
		y := pfx + "b"
		if op == "not" || op == "copy" {
			y = ""
		}
		_, err = t.c.Op(code, t.timeoutMS, pfx+"r", pfx+"a", y)
	}
	if err == nil {
		return outcomeOK, nil
	}
	var se *wire.StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case wire.StatusSaturated, wire.StatusDraining:
			return outcomeRejected, nil
		case wire.StatusDeadline:
			return outcomeDeadline, nil
		default:
			return outcomeError, nil
		}
	}
	return outcomeError, err // transport-level failure
}

// issueQuery executes one KindQuery request and classifies the status.
func (t *wireTransport) issueQuery(q queryCall) (*queryReply, outcome, error) {
	qr, err := t.c.Query(t.timeoutMS, q.namespace, q.predicate, q.mode, q.cursor, q.limit)
	if err != nil {
		var se *wire.StatusError
		if errors.As(err, &se) {
			switch se.Code {
			case wire.StatusSaturated, wire.StatusDraining:
				return nil, outcomeRejected, nil
			case wire.StatusDeadline:
				return nil, outcomeDeadline, nil
			default:
				return nil, outcomeError, nil
			}
		}
		return nil, outcomeError, err
	}
	reply := &queryReply{bits: qr.Bits, count: qr.Count, positions: qr.Positions, next: qr.NextCursor}
	if q.mode == wire.QueryBits {
		reply.data = wordsToBytes(qr.Words, (qr.Bits+7)/8)
	}
	return reply, outcomeOK, nil
}

// putVector stores raw bytes under name as little-endian words.
func (t *wireTransport) putVector(name string, raw []byte) error {
	return t.c.Put(name, len(raw)*8, bytesToWords(raw))
}

// getVector fetches a vector's raw bytes.
func (t *wireTransport) getVector(name string) ([]byte, error) {
	bits, _, words, err := t.c.Get(name, nil)
	if err != nil {
		return nil, err
	}
	return wordsToBytes(words, (bits+7)/8), nil
}

// scrapeStats fetches the stats payload over the wire (the same JSON
// bytes /v1/stats serves).
func (t *wireTransport) scrapeStats() (*server.StatsPayload, error) {
	raw, err := t.c.StatsJSON()
	if err != nil {
		return nil, err
	}
	var sp server.StatsPayload
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

// close tears down the worker's connection.
func (t *wireTransport) close() { _ = t.c.Close() }

// bytesToWords packs raw bytes into little-endian words, zero-padding
// the final partial word.
func bytesToWords(raw []byte) []uint64 {
	words := make([]uint64, (len(raw)+7)/8)
	var buf [8]byte
	for i := range words {
		n := copy(buf[:], raw[i*8:])
		for j := n; j < 8; j++ {
			buf[j] = 0
		}
		words[i] = binary.LittleEndian.Uint64(buf[:])
	}
	return words
}

// wordsToBytes unpacks little-endian words into nbytes raw bytes.
func wordsToBytes(words []uint64, nbytes int) []byte {
	out := make([]byte, len(words)*8)
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	return out[:nbytes]
}

// summarize computes the latency percentile block.
func summarize(ms []float64) LatencySummary {
	if len(ms) == 0 {
		return LatencySummary{}
	}
	sort.Float64s(ms)
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	q := func(p float64) float64 {
		i := int(p * float64(len(ms)-1))
		return ms[i]
	}
	return LatencySummary{
		Mean: sum / float64(len(ms)),
		P50:  q(0.50),
		P95:  q(0.95),
		P99:  q(0.99),
		Max:  ms[len(ms)-1],
	}
}
