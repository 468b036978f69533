package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// gatedConn wraps a net.Conn so a test can park the connection's writer
// at a known point: after arm(), the next Write signals blocked and then
// waits for the gate to open. Subsequent writes pass through.
type gatedConn struct {
	net.Conn
	mu      sync.Mutex
	armed   bool
	blocked chan struct{} // closed when the armed write parks
	gate    chan struct{} // close to release the parked write
}

func newGatedConn(nc net.Conn) *gatedConn {
	return &gatedConn{Conn: nc, blocked: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedConn) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func (g *gatedConn) Write(p []byte) (int, error) {
	g.mu.Lock()
	armed := g.armed
	g.armed = false
	g.mu.Unlock()
	if armed {
		close(g.blocked)
		<-g.gate
	}
	return g.Conn.Write(p)
}

// flushLog records OnFlush observations.
type flushLog struct {
	mu    sync.Mutex
	sizes []int
}

func (l *flushLog) record(n int) {
	l.mu.Lock()
	l.sizes = append(l.sizes, n)
	l.mu.Unlock()
}

func (l *flushLog) snapshot() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.sizes...)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlushCoalescing pins the flush-on-empty policy deterministically:
// an idle connection flushes a lone response immediately (flush of 1),
// and responses completing while a write is in flight ride the next
// flush together (flush of 8). The first write is parked with a gated
// conn so the remaining eight responses demonstrably queue behind it.
func TestFlushCoalescing(t *testing.T) {
	cn, sn := net.Pipe()
	g := newGatedConn(sn)
	var log flushLog
	cfg := ServerConfig{
		Backend:  &echoBackend{stats: Stats{LatencyNS: 10, RowOps: 1}},
		StatusOf: stubStatusOf,
		OnFlush:  log.record,
	}.withDefaults()
	sc := newServerConn(g, cfg)
	done := make(chan error, 1)
	go func() { done <- sc.serve() }()
	c := NewClient(cn)
	defer func() {
		_ = c.Close()
		_ = sn.Close()
		<-done
	}()

	// Park the first response's write mid-flush.
	g.arm()
	results := make(chan error, 9)
	op := func() {
		_, err := c.Op(BitAnd, 0, "dst", "x", "y")
		results <- err
	}
	go op()
	select {
	case <-g.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("first flush never reached the connection write")
	}
	if got := log.snapshot(); len(got) != 0 {
		t.Fatalf("OnFlush fired before the write completed: %v", got)
	}

	// Eight more requests complete while the writer is parked: they must
	// queue, not write.
	for i := 0; i < 8; i++ {
		go op()
	}
	waitUntil(t, "8 responses queued behind the in-flight flush", func() bool {
		return sc.w.pending() == 8
	})

	// Release the parked write: the writer finishes the 1-frame flush,
	// then drains all 8 queued frames in a single writev.
	close(g.gate)
	for i := 0; i < 9; i++ {
		if err := <-results; err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitUntil(t, "second flush recorded", func() bool { return len(log.snapshot()) >= 2 })
	if got := log.snapshot(); len(got) != 2 || got[0] != 1 || got[1] != 8 {
		t.Fatalf("flush sizes = %v, want [1 8]", got)
	}
}

// TestWriteErrorEndsServe is the regression test for the formerly
// swallowed write error: a client that hangs up mid-stream (requests
// admitted, responses undeliverable) must end ServeConn promptly with
// the write error, with every queued response dropped rather than
// encoded into the dead socket forever.
func TestWriteErrorEndsServe(t *testing.T) {
	cn, sn := net.Pipe()
	cfg := ServerConfig{
		Backend:  &echoBackend{stats: Stats{LatencyNS: 10, RowOps: 1}},
		StatusOf: stubStatusOf,
	}.withDefaults()
	sc := newServerConn(sn, cfg)
	done := make(chan error, 1)
	go func() { done <- sc.serve() }()

	// Deliver four requests, then hang up without reading any response.
	// net.Pipe is unbuffered, so the writer's first write parks until the
	// close fails it.
	var frame []byte
	for id := uint64(1); id <= 4; id++ {
		frame = AppendOpRequest(frame[:0], id, BitAnd, 0, "dst", "x", "y")
		if _, err := cn.Write(frame); err != nil {
			t.Fatalf("write request %d: %v", id, err)
		}
	}
	_ = cn.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeConn returned nil after a mid-stream hangup, want write error")
		}
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("ServeConn returned %v, want io.ErrClosedPipe", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not end after the peer hung up")
	}
	if n := sc.w.pending(); n != 0 {
		t.Fatalf("%d frames left in the flush queue after teardown, want 0", n)
	}
}

// TestServeConnDrainsOnCleanClose pins the teardown contract the server's
// graceful drain depends on: when the read side ends cleanly with
// responses still queued (or in flight), ServeConn must flush every one
// of them un-truncated before returning. Uses a real TCP pair so the
// peer can half-close its write side.
func TestServeConnDrainsOnCleanClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const reqs = 32
	cfg := ServerConfig{
		Backend:  &echoBackend{stats: Stats{LatencyNS: 10, RowOps: 1}},
		StatusOf: stubStatusOf,
	}
	done := make(chan error, 1)
	go func() {
		sn, aerr := ln.Accept()
		if aerr != nil {
			done <- aerr
			return
		}
		defer sn.Close()
		done <- ServeConn(sn, cfg)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	var frame []byte
	for id := uint64(1); id <= reqs; id++ {
		frame = AppendOpRequest(frame[:0], id, BitAnd, 0, "dst", "x", "y")
		if _, err := nc.Write(frame); err != nil {
			t.Fatalf("write request %d: %v", id, err)
		}
	}
	// Half-close: the server sees EOF with work still in its pipeline.
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}

	// Every admitted request must still get its response.
	seen := make(map[uint64]bool)
	var lenWord [frameLenSize]byte
	for i := 0; i < reqs; i++ {
		if _, err := io.ReadFull(nc, lenWord[:]); err != nil {
			t.Fatalf("response %d: %v (got %d of %d)", i, err, len(seen), reqs)
		}
		body := make([]byte, binary.LittleEndian.Uint32(lenWord[:]))
		if _, err := io.ReadFull(nc, body); err != nil {
			t.Fatalf("response %d body: %v", i, err)
		}
		id := binary.LittleEndian.Uint64(body)
		if st := body[8]; st != StatusOK {
			t.Fatalf("response for id %d: status %d, want OK", id, st)
		}
		if seen[id] {
			t.Fatalf("duplicate response for id %d", id)
		}
		seen[id] = true
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeConn: %v, want nil on clean close", err)
	}
}

// TestClientWriteCoalescing checks the client-side writer accounts for
// every request frame and that concurrent callers can share flushes.
func TestClientWriteCoalescing(t *testing.T) {
	c := startStub(t, ServerConfig{})
	const (
		goroutines = 16
		perG       = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := c.Op(BitAnd, 0, "dst", "x", "y"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The writer bumps its counters after the writev returns, so they can
	// trail the last response by an instant.
	waitUntil(t, "all frames counted", func() bool {
		_, frames := c.WriteStats()
		return frames >= goroutines*perG
	})
	flushes, frames := c.WriteStats()
	if frames != goroutines*perG {
		t.Fatalf("client wrote %d frames, want %d", frames, goroutines*perG)
	}
	if flushes == 0 || flushes > frames {
		t.Fatalf("client flushes = %d, want 1..%d", flushes, frames)
	}
}

// TestClientUsableAfterWriteError checks a client whose writer failed
// reports errors instead of hanging: calls made after the connection
// drops fail fast.
func TestClientUsableAfterWriteError(t *testing.T) {
	cn, sn := net.Pipe()
	c := NewClient(cn)
	_ = sn.Close() // server vanishes before any call
	if err := c.Ping(); err == nil {
		t.Fatal("Ping succeeded against a closed peer")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("second Ping succeeded against a closed peer")
	}
	_ = c.Close()
}

// recConn is a net.Conn stand-in for the frame writer alone: it records
// the bytes written and the Close calls, and fails every Write with err
// when set.
type recConn struct {
	net.Conn
	mu     sync.Mutex
	buf    bytes.Buffer
	err    error
	closes int
}

func (r *recConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return 0, r.err
	}
	return r.buf.Write(p)
}

func (r *recConn) Close() error {
	r.mu.Lock()
	r.closes++
	r.mu.Unlock()
	return nil
}

func (r *recConn) closeCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closes
}

// frameOf returns a pooled buffer holding one ping frame with the given id.
func frameOf(id uint64) *[]byte {
	bp := getBuf(0)
	*bp = AppendPingRequest(*bp, id)
	return bp
}

// TestFrameWriter pins the write path's contract, which the server's
// responses and the client's requests both rely on: close drains every
// queued frame, a send after close fails with net.ErrClosed, and the
// first write error latches, failing later sends, closing the conn once
// and coming back from wait.
func TestFrameWriter(t *testing.T) {
	t.Run("close drains the queue", func(t *testing.T) {
		rc := &recConn{}
		g := newGatedConn(rc)
		w := newFrameWriter(g, nil)
		var want []byte
		g.arm()
		for id := uint64(1); id <= 6; id++ {
			want = AppendPingRequest(want, id)
			if err := w.send(frameOf(id)); err != nil {
				t.Fatalf("send %d: %v", id, err)
			}
			if id == 1 {
				<-g.blocked // frames 2..6 queue behind the parked write
			}
		}
		w.close()
		close(g.gate)
		if err := w.wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
		if !bytes.Equal(rc.buf.Bytes(), want) {
			t.Fatalf("wrote %x, want %x", rc.buf.Bytes(), want)
		}
		if n := rc.closeCount(); n != 0 {
			t.Fatalf("clean close closed the conn %d times, want 0", n)
		}
	})
	t.Run("send after close", func(t *testing.T) {
		w := newFrameWriter(&recConn{}, nil)
		w.close()
		bp := frameOf(1)
		if err := w.send(bp); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("send after close: %v, want net.ErrClosed", err)
		}
		if len(*bp) != 0 {
			t.Fatal("refused frame was not recycled")
		}
		if err := w.wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
	})
	t.Run("write error latches", func(t *testing.T) {
		boom := errors.New("boom")
		rc := &recConn{err: boom}
		w := newFrameWriter(rc, func(int) { t.Error("flush hook ran for a failed write") })
		if err := w.send(frameOf(1)); err != nil {
			t.Fatalf("first send: %v", err)
		}
		waitUntil(t, "the failed write to close the conn", func() bool { return rc.closeCount() > 0 })
		for id := uint64(2); id <= 3; id++ {
			bp := frameOf(id)
			if err := w.send(bp); !errors.Is(err, boom) {
				t.Fatalf("send %d after the write error: %v, want %v", id, err, boom)
			}
			if len(*bp) != 0 {
				t.Fatalf("refused frame %d was not recycled", id)
			}
		}
		w.close()
		if err := w.wait(); !errors.Is(err, boom) {
			t.Fatalf("wait: %v, want %v", err, boom)
		}
		if n := rc.closeCount(); n != 1 {
			t.Fatalf("conn closed %d times, want 1", n)
		}
	})
}
