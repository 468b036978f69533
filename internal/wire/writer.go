package wire

import (
	"net"
	"runtime"
	"sync"
)

// frameWriter is one connection's write path, the same on both ends: the
// server sends its response frames through one and the Client its request
// frames. Senders hand encoded frames to a queue; one writer goroutine
// parks while the queue is empty and, on each wakeup, swaps the whole
// queue out and writes it with one writev ("flush-on-empty", as in
// gRPC/netty write batching). An idle connection therefore writes every
// frame at once — one wakeup away from a direct write — while frames
// sent during an in-flight writev pile up and ride the next one, so
// syscalls amortize under load without a timer.
//
// The first write error latches: the writer closes the connection, which
// unblocks the reader on the same socket so the whole connection unwinds,
// and every later send fails with that error instead of queueing into a
// dead socket.
type frameWriter struct {
	nc net.Conn
	// onFlush, when set, observes every successful flush with the number
	// of frames it carried. It runs on the writer goroutine, so it must
	// be fast and must not block.
	onFlush func(frames int)

	mu      sync.Mutex // guards queue, err and closing
	cond    sync.Cond  // signaled on send and close; L is &mu
	queue   []*[]byte
	err     error // the first write error
	closing bool  // set by close; the writer exits once the queue is empty
	done    chan struct{}

	iov net.Buffers // writer-goroutine-only writev scratch, reused across flushes
}

// newFrameWriter starts the writer goroutine for nc.
func newFrameWriter(nc net.Conn, onFlush func(frames int)) *frameWriter {
	w := &frameWriter{nc: nc, onFlush: onFlush, done: make(chan struct{})}
	w.cond.L = &w.mu
	go w.loop()
	return w
}

// send hands one encoded frame to the writer, taking ownership of the
// pooled buffer. Once a write has failed it returns that error, and after
// close it returns net.ErrClosed; either way it recycles the buffer on the
// spot.
func (w *frameWriter) send(bp *[]byte) error {
	w.mu.Lock()
	err := w.err
	if err == nil && w.closing {
		err = net.ErrClosed
	}
	if err != nil {
		w.mu.Unlock()
		putBuf(bp)
		return err
	}
	w.queue = append(w.queue, bp)
	w.mu.Unlock()
	w.cond.Signal()
	return nil
}

// close stops the writer accepting frames. The writer goroutine writes
// every frame already queued and then exits.
func (w *frameWriter) close() {
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	w.cond.Signal()
}

// wait blocks until the writer goroutine has exited, which it does only
// after close, and returns the first write error, or nil.
func (w *frameWriter) wait() error {
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// pending reports the number of queued frames not yet handed to a write.
func (w *frameWriter) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue)
}

// loop is the writer goroutine. Once a write has failed it keeps draining
// the queue without writing, so every sent buffer is recycled.
func (w *frameWriter) loop() {
	defer close(w.done)
	var batch []*[]byte
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closing {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		// Signal parks the writer in the scheduler's run-next slot, so
		// without this yield it would wake after the first send and write
		// a 1-frame batch while senders finishing at the same time are
		// still queued behind it. One Gosched lets them append their
		// frames first (the loopy-writer trick), at the cost of a
		// sub-microsecond yield on the idle path.
		runtime.Gosched()
		w.mu.Lock()
		batch, w.queue = w.queue, batch[:0]
		failed := w.err != nil
		w.mu.Unlock()
		if !failed {
			if err := w.write(batch); err != nil {
				// The first write error: later batches are never written,
				// so this latches and closes exactly once.
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
				_ = w.nc.Close()
			} else if w.onFlush != nil {
				w.onFlush(len(batch))
			}
		}
		for i, bp := range batch {
			putBuf(bp)
			batch[i] = nil
		}
	}
}

// write writes every frame in batch with one syscall: a plain Write for a
// single frame, a net.Buffers writev otherwise (net.Buffers falls back to
// sequential writes on connections without vectored I/O, such as
// net.Pipe).
func (w *frameWriter) write(batch []*[]byte) error {
	if len(batch) == 1 {
		_, err := w.nc.Write(*batch[0])
		return err
	}
	w.iov = w.iov[:0]
	for _, bp := range batch {
		w.iov = append(w.iov, *bp)
	}
	// WriteTo consumes and mutates the slice it is called on, so hand it
	// a view; the backing array is re-filled from scratch next flush.
	v := w.iov
	_, err := v.WriteTo(w.nc)
	return err
}
