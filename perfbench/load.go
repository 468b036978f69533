package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"

	elp2im "repro"
	"repro/internal/server"
)

// env is one in-process elpd: the accelerator (or shard router), the
// server over it, and its loopback listener.
type env struct {
	srv    *server.Server
	acc    *elp2im.Accelerator // single-module servers
	shard  *elp2im.Shard       // sharded servers
	ln     net.Listener
	hs     *http.Server // JSON servers
	served chan error
}

// startServer builds an elpd with the default configuration, as elpd
// runs it, and serves it on a loopback port over the given protocol.
func startServer(shards int, protocol string) (*env, error) {
	e := &env{served: make(chan error, 1)}
	var cfg server.Config
	if shards > 1 {
		sh, err := elp2im.NewShard(shards)
		if err != nil {
			return nil, err
		}
		e.shard, cfg.Shard = sh, sh
	} else {
		acc, err := elp2im.New()
		if err != nil {
			return nil, err
		}
		e.acc, cfg.Accelerator = acc, acc
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if protocol == "wire" {
		go func() { e.served <- srv.ServeWire(e.ln) }()
	} else {
		e.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { e.served <- e.hs.Serve(e.ln) }()
	}
	return e, nil
}

// addr is the listener's loopback address.
func (e *env) addr() string { return e.ln.Addr().String() }

// close drains the server, stops its listener and waits for every
// serving goroutine to end. Clients must be closed first.
func (e *env) close() error {
	e.srv.Drain()
	var err error
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = e.hs.Shutdown(ctx)
		cancel()
	} else {
		err = e.ln.Close()
		e.srv.CloseWireConns()
	}
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// snapshot returns the metric series of every accelerator behind the
// server, the server's own series and the scheduler memo's counters.
func (e *env) snapshot() elp2im.MetricsSnapshot {
	if e.shard != nil {
		return e.shard.Snapshot()
	}
	return e.acc.Snapshot()
}

// outcome classifies one request's result.
type outcome int

const (
	outOK        outcome = iota
	outRejected          // 503: admission queue full or draining
	outDeadline          // 504: deadline expired
	outTransport         // the connection failed
	outWrong             // any other status: a request the server should have served
)

// modeled is the modeled DRAM cost one response reports.
type modeled struct {
	latencyNS, energyNJ         float64
	rowOps, commands, wordlines uint64
}

func (m *modeled) add(o modeled) {
	m.latencyNS += o.latencyNS
	m.energyNJ += o.energyNJ
	m.rowOps += o.rowOps
	m.commands += o.commands
	m.wordlines += o.wordlines
}

// result is what one request returned.
type result struct {
	out outcome
	st  modeled
	err error
}

// workload is one traffic mix: its dataset and request streams (both
// generated from the seed before set-up), its protocol client, its host
// oracle and its layer replay.
type workload interface {
	// shape fixes the server and the load.
	shape() shape
	// connect opens the workload's client connections to addr and forgets
	// every result recorded against an earlier server.
	connect(addr string) error
	// load stores the dataset through the workload's protocol.
	load() error
	// issue sends request seq of slot's stream and records what the
	// oracle needs to check its answer. Each slot is driven by one
	// goroutine.
	issue(slot, seq int) result
	// verify reads results back and checks every recorded answer against
	// the host oracle. It runs outside the timed interval.
	verify() error
	// closeClients closes the client connections.
	closeClients()
	// replay sends the first n requests of the streams through each
	// layer's public entry points, one span per call.
	replay(tr *tracer, n int) (replayStats, error)
	// streamBytes is a canonical encoding of the dataset and request
	// streams.
	streamBytes() []byte
}

// shape is a workload's server and load geometry.
type shape struct {
	protocol string // "wire" or "json"
	shards   int
	conns    int
	window   int // outstanding requests per connection
	warmup   int // requests per slot in set-up's warm-up
	replay   int // requests replayed by the traced run
}

func (s shape) slots() int { return s.conns * s.window }

// replayStats are the layer counts a replay computes besides its spans.
type replayStats struct {
	requests    int // requests replayed
	execs       int // requests that reached an execution entry point
	gates       int // kernel gates applied
	bytes       int64
	steps       int   // vertical µProgram steps
	transposed  int64 // elements transposed by SliceInto/UnsliceInto
	transposeNS int64
	kernelNS    int64 // time inside kernel Apply calls
	execNS      int64 // time inside the facade execution calls
	codecNS     int64 // time inside request and response codecs
}

// sample is one completed request: when it completed, in ns since the
// load started, and its latency in ns.
type sample struct{ done, lat int64 }

// loadRun is the outcome of driving every slot for a while.
type loadRun struct {
	elapsed   time.Duration
	attempted int
	ok        int
	failed    [outWrong + 1]int
	wrong     []error  // first few unexpected statuses
	samples   []sample // completed requests, in completion order
	cpu       time.Duration
	modeled   modeled // summed in slot-then-sequence order
}

// driver owns each slot's position in its request stream, so warm-up and
// the timed loads continue one stream per slot.
type driver struct {
	w    workload
	next []int
}

func newDriver(w workload) *driver { return &driver{w: w, next: make([]int, w.shape().slots())} }

// run drives every slot as a closed loop: each slot sends its next
// request as soon as the previous one is answered. With count > 0 each
// slot sends exactly count requests; otherwise slots keep sending until
// d has passed and the timed interval ends when the last reply arrives.
// With tr set, every request is one span.
func (dr *driver) run(count int, d time.Duration, tr *tracer) loadRun {
	slots := len(dr.next)
	type slotRun struct {
		samples []sample
		st      []modeled
		ok      int
		failed  [outWrong + 1]int
		wrong   []error
		started int
	}
	per := make([]slotRun, slots)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sr := &per[s]
			for count > 0 && sr.started < count || count == 0 && time.Now().Before(deadline) {
				seq := dr.next[s]
				dr.next[s]++
				sr.started++
				var o openSpan
				if tr != nil {
					o = tr.begin("client.roundtrip", reqID(s, seq), 0)
				}
				t0 := time.Now()
				res := dr.w.issue(s, seq)
				lat := time.Since(t0)
				if tr != nil {
					o.end()
				}
				if res.out != outOK {
					sr.failed[res.out]++
					if res.out == outWrong && len(sr.wrong) < 4 {
						sr.wrong = append(sr.wrong, fmt.Errorf("slot %d request %d: %w", s, seq, res.err))
					}
					continue
				}
				sr.ok++
				sr.samples = append(sr.samples, sample{done: int64(time.Since(start)), lat: int64(lat)})
				if count > 0 {
					sr.st = append(sr.st, res.st)
				}
			}
		}(s)
	}
	wg.Wait()
	lr := loadRun{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for s := range per {
		sr := &per[s]
		lr.attempted += sr.started
		lr.ok += sr.ok
		for i, n := range sr.failed {
			lr.failed[i] += n
		}
		lr.wrong = append(lr.wrong, sr.wrong...)
		lr.samples = append(lr.samples, sr.samples...)
		for _, st := range sr.st {
			lr.modeled.add(st)
		}
	}
	sort.Slice(lr.samples, func(i, j int) bool { return lr.samples[i].done < lr.samples[j].done })
	return lr
}

// failedCount is the number of attempted requests that did not succeed.
func (lr *loadRun) failedCount() int { return lr.attempted - lr.ok }

// Segmenting: the timed interval's completions are split, in completion
// order, into consecutive segments of at least minSegment requests, the
// fewest that give a p99 with 10 samples beyond it. Throughput and p50 are
// medians over segments. The p99 is the lower quartile over segments:
// the host's hypervisor stalls this VM's CPUs in bursts, and one stall
// delays every in-flight request at once (ops_wire's 16 share one
// micro-batch), so a quarter or more of the segments can carry a stall
// tail that says more about the host than about elpd.
const minSegment = 1000

// segmented is throughput and latency summarized over segments.
type segmented struct {
	throughput float64 // completed requests per second, median
	p50        float64 // ms, median of the segments' medians
	p99        float64 // ms, lower quartile of the segments' p99s
	segments   int
	size       int // samples per segment, at least
}

func (lr *loadRun) segmented() segmented {
	n := len(lr.samples)
	if n == 0 {
		return segmented{}
	}
	k := max(1, n/minSegment)
	seg := segmented{segments: k, size: n / k}
	var tput, p50, p99 []float64
	prev := int64(0)
	for g := 0; g < k; g++ {
		part := lr.samples[g*n/k : (g+1)*n/k]
		end := part[len(part)-1].done
		lat := make([]int64, len(part))
		for i, s := range part {
			lat[i] = s.lat
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		tput = append(tput, float64(len(part))/(float64(max(end-prev, 1))/1e9))
		p50 = append(p50, nearestRank(lat, 0.50))
		p99 = append(p99, nearestRank(lat, 0.99))
		prev = end
	}
	seg.throughput, seg.p50, seg.p99 = median(tput), median(p50), lowerQuartile(p99)
	return seg
}

// lowerQuartile is the first quartile of xs, interpolated between ranks
// like Python's statistics.quantiles (exclusive method).
func lowerQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0]
	}
	pos := float64(len(s)+1)/4 - 1
	i := max(0, min(int(math.Floor(pos)), len(s)-2))
	frac := max(0, min(pos-float64(i), 1))
	return s[i] + frac*(s[i+1]-s[i])
}

// nearestRank is the q-quantile of sorted latencies in ms.
func nearestRank(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(rank, len(sorted)-1))]) / 1e6
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
