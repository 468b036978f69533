package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Backend executes one decoded request. On success it appends the
// per-opcode OK payload to resp and returns nil; on failure it returns an
// error, which the serving loop classifies into a wire status through the
// connection's StatusOf and renders as an error payload. The request (and
// the frame buffer its strings and WordData alias) is only valid for the
// duration of the call.
type Backend interface {
	Handle(ctx context.Context, req *Request, resp *Response) error
}

// StatusFunc classifies a Backend error into a response status code and
// a retry-after hint in milliseconds (zero for none).
type StatusFunc func(error) (code uint8, retryAfterMS uint32)

// defaultStatusOf is the classifier used when ServerConfig.StatusOf is
// nil: malformed-tagged errors are the client's fault, everything else a
// server fault.
func defaultStatusOf(err error) (uint8, uint32) {
	if errors.Is(err, ErrMalformed) {
		return StatusBadRequest, 0
	}
	return StatusInternal, 0
}

// Per-connection serving constants.
const (
	// connWorkers is the number of requests one connection executes
	// concurrently — the multiplexing width. Decoded requests are handed
	// to a fixed worker pool, so many requests execute at once while the
	// reader keeps draining frames.
	connWorkers = 16
	// maxInterned bounds the per-connection name-intern cache that makes
	// repeated vector names allocation-free; beyond it, new names fall
	// back to plain copies.
	maxInterned = 4096
)

// ServerConfig parameterizes ServeConn. Zero values select documented
// defaults.
type ServerConfig struct {
	// Backend executes decoded requests. Required.
	Backend Backend
	// StatusOf classifies Backend errors into wire statuses. Default:
	// ErrMalformed → StatusBadRequest, anything else → StatusInternal.
	StatusOf StatusFunc
	// MaxFrame bounds accepted frame bodies. Default DefaultMaxFrame.
	MaxFrame int
	// OnFlush, when set, observes every write-path flush with the number
	// of response frames it carried. Under load the frame writer
	// coalesces many frames into one writev, so frames-per-flush > 1
	// measures how well syscalls are being amortized. Called from the
	// writer goroutine after each successful flush; it must be fast and
	// must not block.
	OnFlush func(frames int)
}

// withDefaults normalizes cfg.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.StatusOf == nil {
		c.StatusOf = defaultStatusOf
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// Response accumulates one response frame. Backends append their OK
// payload through the Append methods, or reserve it with Extend; the
// serving loop owns the header and the final write.
type Response struct {
	b []byte
	// limit is the connection's MaxFrame, which the finished frame body
	// may not exceed; zero means unbounded.
	limit int
}

// Extend grows the payload by n bytes and returns them for the caller to
// fill, growing the frame buffer at most once, to its final size. When
// the finished frame body would exceed the connection's frame limit it
// grows nothing and returns an error tagged ErrFrameTooLarge, which the
// serving loop answers with StatusBadRequest — so a backend building a
// large payload learns before doing the work that fills it.
func (r *Response) Extend(n int) ([]byte, error) {
	if body := len(r.b) - frameLenSize + n; r.limit > 0 && body > r.limit {
		return nil, responseTooLarge(body, r.limit)
	}
	r.b = grow(r.b, n)
	return r.b[len(r.b)-n:], nil
}

// responseTooLarge is the error for a response frame body of n bytes
// over the limit.
func responseTooLarge(n, limit int) error {
	return fmt.Errorf("%w: response body %d bytes (limit %d)", ErrFrameTooLarge, n, limit)
}

// AppendU8 appends one byte to the payload.
func (r *Response) AppendU8(v uint8) { r.b = append(r.b, v) }

// AppendU32 appends a little-endian uint32 to the payload.
func (r *Response) AppendU32(v uint32) { r.b = appendU32(r.b, v) }

// AppendU64 appends a little-endian uint64 to the payload.
func (r *Response) AppendU64(v uint64) { r.b = appendU64(r.b, v) }

// AppendStats appends the 48-byte stats block to the payload.
func (r *Response) AppendStats(st Stats) { r.b = AppendStats(r.b, st) }

// AppendWords appends a word payload (u32 count + raw LE words).
func (r *Response) AppendWords(words []uint64) { r.b = AppendWords(r.b, words) }

// AppendBytes appends raw bytes to the payload.
func (r *Response) AppendBytes(p []byte) { r.b = append(r.b, p...) }

// Buffer pools shared by every connection (server and client side): frame
// read buffers, response build buffers, and decoded-request carriers. All
// three cycle through the steady-state loop without allocating.
var (
	bufPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	}}
	connReqPool = sync.Pool{New: func() any { return new(connReq) }}
)

// getBuf fetches a pooled buffer with at least n capacity, length n.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putBuf recycles a pooled buffer.
func putBuf(bp *[]byte) {
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// connReq carries one decoded request and the frame buffer it aliases
// from the reader goroutine to a worker. The response builder lives here
// too (rather than as a local in handle) so that taking its address for
// the Backend.Handle interface call never forces a per-request heap
// allocation — the whole carrier is pooled.
type connReq struct {
	req  Request
	resp Response
	buf  *[]byte
}

// serverConn is one connection's serving state.
type serverConn struct {
	br   *bufio.Reader
	cfg  ServerConfig
	work chan *connReq
	wg   sync.WaitGroup
	w    *frameWriter // the response write path

	// names interns decoded strings so the steady-state loop does not
	// allocate per request. Reader-goroutine-only; bounded by maxInterned.
	names map[string]string
}

// ServeConn serves one elpwire connection until the peer closes it, a
// read fails, a write fails, or a protocol-level framing violation
// (oversize or undersize frame) makes the stream untrustworthy. It
// returns nil on a clean peer close (EOF between frames) with every
// queued response flushed. Responses are written as requests complete —
// out of order when the worker pool executes several concurrently —
// matched to requests by their echoed id. Requests run under
// context.Background(): closing the connection does not cancel admitted
// work.
func ServeConn(nc net.Conn, cfg ServerConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Backend == nil {
		return errors.New("wire: ServerConfig.Backend is required")
	}
	return newServerConn(nc, cfg).serve()
}

// newServerConn builds one connection's serving state and starts its
// worker pool and frame writer. cfg must already be normalized and carry
// a Backend.
func newServerConn(nc net.Conn, cfg ServerConfig) *serverConn {
	c := &serverConn{
		br:    bufio.NewReaderSize(nc, 64<<10),
		cfg:   cfg,
		work:  make(chan *connReq, connWorkers),
		w:     newFrameWriter(nc, cfg.OnFlush),
		names: make(map[string]string),
	}
	for i := 0; i < connWorkers; i++ {
		c.wg.Add(1)
		go c.worker()
	}
	return c
}

// serve runs the read loop, then unwinds: workers drain the in-flight
// requests, the writer writes out every response they sent, and only
// then does the connection report its terminal error. A write error
// takes precedence over the read-side error it usually causes (closing
// the socket under the reader).
func (c *serverConn) serve() error {
	err := c.readLoop()
	close(c.work)
	c.wg.Wait()
	c.w.close()
	if werr := c.w.wait(); werr != nil {
		return werr
	}
	return err
}

// intern returns the canonical string for b, allocation-free once a name
// has been seen on this connection.
func (c *serverConn) intern(b []byte) string {
	if s, ok := c.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(c.names) < maxInterned {
		c.names[s] = s
	}
	return s
}

// readLoop reads and decodes frames, handing each to the worker pool.
// Decode failures answer StatusBadRequest on the spot (the frame is
// length-delimited, so the stream stays in sync); framing failures
// (short length word, oversize declaration) end the connection.
func (c *serverConn) readLoop() error {
	var lenWord [frameLenSize]byte
	for {
		if _, err := io.ReadFull(c.br, lenWord[:]); err != nil {
			if err == io.EOF {
				return nil // clean close between frames
			}
			return err
		}
		n := int(binary.LittleEndian.Uint32(lenWord[:]))
		if n < headerLen {
			return fmt.Errorf("%w: frame body %d bytes, want at least %d", ErrMalformed, n, headerLen)
		}
		if n > c.cfg.MaxFrame {
			return fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, c.cfg.MaxFrame)
		}
		bp := getBuf(n)
		if _, err := io.ReadFull(c.br, *bp); err != nil {
			putBuf(bp)
			return fmt.Errorf("wire: truncated frame: %w", err)
		}
		cr := connReqPool.Get().(*connReq)
		cr.buf = bp
		if err := DecodeRequest(*bp, &cr.req, c.intern); err != nil {
			// The id decodes first whenever the body is ≥ 9 bytes, which it
			// is here, so the error can be correlated by the client.
			c.writeError(cr.req.ID, err)
			c.release(cr)
			continue
		}
		c.work <- cr
	}
}

// worker executes decoded requests until the work channel closes.
func (c *serverConn) worker() {
	defer c.wg.Done()
	for cr := range c.work {
		c.handle(cr)
		c.release(cr)
	}
}

// release recycles a request carrier and its frame buffer.
func (c *serverConn) release(cr *connReq) {
	putBuf(cr.buf)
	cr.buf = nil
	cr.req.reset()
	connReqPool.Put(cr)
}

// handle runs one request through the backend and sends its response. A response whose frame body outgrew MaxFrame is
// replaced by a StatusBadRequest answer naming the limit: the peer would
// refuse the frame and drop the connection, so the limit is enforced on
// the sending side, in band, and the connection stays usable. That
// status is the protocol's own, whatever the backend's classifier says.
func (c *serverConn) handle(cr *connReq) {
	rp := getBuf(0)
	cr.resp.b = BeginFrame(*rp, cr.req.ID, StatusOK)
	cr.resp.limit = c.cfg.MaxFrame
	err := c.cfg.Backend.Handle(context.Background(), &cr.req, &cr.resp)
	if body := len(cr.resp.b) - frameLenSize; err == nil && body > c.cfg.MaxFrame {
		err = responseTooLarge(body, c.cfg.MaxFrame)
	}
	if err != nil {
		code, retry := c.cfg.StatusOf(err)
		if errors.Is(err, ErrFrameTooLarge) {
			code, retry = StatusBadRequest, 0
		}
		cr.resp.b = BeginFrame(cr.resp.b[:0], cr.req.ID, code)
		cr.resp.b = AppendErrorPayload(cr.resp.b, retry, err.Error())
	}
	cr.resp.b = FinishFrame(cr.resp.b, 0)
	*rp = cr.resp.b // the frame may have outgrown the pooled buffer
	cr.resp.b = nil
	_ = c.w.send(rp) // a failed writer drops the frame
}

// writeError answers a request that failed before reaching the backend.
func (c *serverConn) writeError(id uint64, err error) {
	rp := getBuf(0)
	code, retry := c.cfg.StatusOf(err)
	b := BeginFrame(*rp, id, code)
	b = AppendErrorPayload(b, retry, err.Error())
	b = FinishFrame(b, 0)
	*rp = b
	_ = c.w.send(rp)
}
