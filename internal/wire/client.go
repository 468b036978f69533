package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/vertical"
)

// Client is a multiplexing elpwire client: one persistent connection
// carries many concurrent in-flight requests, matched to their callers by
// request id, so N goroutines can share a connection and pipeline without
// head-of-line blocking on the serving side. Request frames go out
// through the same frame writer the server answers with, so under load
// concurrent callers share a writev while a lone request still flushes
// immediately. All methods are safe for concurrent use. The steady-state
// op path allocates nothing: request encode buffers, response buffers and
// rendezvous slots all cycle through pools.
type Client struct {
	nc net.Conn
	br *bufio.Reader
	w  *frameWriter // the request write path

	flushes atomic.Uint64 // write-path flushes (≈ syscalls)
	frames  atomic.Uint64 // request frames written

	mu      sync.Mutex // guards pending, nextID, readErr
	pending map[uint64]*slot
	nextID  uint64
	readErr error

	readerDone chan struct{}
}

// slot is one in-flight request's rendezvous point.
type slot struct {
	done    chan struct{} // buffered(1); signaled exactly once
	status  uint8
	payload *[]byte // response frame body (id+status+payload); pooled
}

// slotPool recycles rendezvous slots.
var slotPool = sync.Pool{New: func() any {
	return &slot{done: make(chan struct{}, 1)}
}}

// Dial connects to an elpwire server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc), nil
}

// NewClient wraps an established connection. The client owns the
// connection and closes it on Close.
func NewClient(nc net.Conn) *Client {
	c := &Client{
		nc:         nc,
		br:         bufio.NewReaderSize(nc, 64<<10),
		pending:    make(map[uint64]*slot),
		readerDone: make(chan struct{}),
	}
	c.w = newFrameWriter(nc, c.countFlush)
	go c.readLoop()
	return c
}

// Close tears the connection down; every in-flight call fails. The
// writer is stopped before the socket closes, so a peer that stopped
// reading cannot hang Close in a write.
func (c *Client) Close() error {
	c.w.close()
	err := c.nc.Close()
	_ = c.w.wait()
	<-c.readerDone
	return err
}

// WriteStats reports the client's write-path batching counters: flushes
// is the number of write wakeups (each one syscall on a vectored
// connection) and frames the number of request frames they carried.
// frames/flushes > 1 means concurrent callers shared syscalls.
func (c *Client) WriteStats() (flushes, frames uint64) {
	return c.flushes.Load(), c.frames.Load()
}

// countFlush is the writer's flush hook: it feeds WriteStats.
func (c *Client) countFlush(frames int) {
	c.flushes.Add(1)
	c.frames.Add(uint64(frames))
}

// readLoop dispatches response frames to their pending calls by id.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	var lenWord [frameLenSize]byte
	for {
		if _, err := io.ReadFull(c.br, lenWord[:]); err != nil {
			c.failAll(err)
			return
		}
		n := int(binary.LittleEndian.Uint32(lenWord[:]))
		if n < headerLen || n > DefaultMaxFrame {
			c.failAll(fmt.Errorf("%w: response body %d bytes", ErrMalformed, n))
			return
		}
		bp := getBuf(n)
		if _, err := io.ReadFull(c.br, *bp); err != nil {
			putBuf(bp)
			c.failAll(fmt.Errorf("wire: truncated response: %w", err))
			return
		}
		id := binary.LittleEndian.Uint64(*bp)
		c.mu.Lock()
		s := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if s == nil {
			// A response nothing waits for (caller gave up): drop it.
			putBuf(bp)
			continue
		}
		s.status = (*bp)[8]
		s.payload = bp
		s.done <- struct{}{}
	}
}

// failAll settles every pending call with err and refuses new ones.
func (c *Client) failAll(err error) {
	if errors.Is(err, io.EOF) {
		err = fmt.Errorf("wire: connection closed: %w", err)
	}
	c.mu.Lock()
	c.readErr = err
	slots := make([]*slot, 0, len(c.pending))
	for id, s := range c.pending {
		delete(c.pending, id)
		slots = append(slots, s)
	}
	c.mu.Unlock()
	for _, s := range slots {
		s.payload = nil
		s.done <- struct{}{}
	}
}

// call is every method's round trip. It registers a rendezvous slot,
// sends the frame build appends (given the request id and a pooled
// buffer), and waits for the response. A non-OK status becomes a
// *StatusError; an OK payload goes to decode (nil ignores it), which must
// copy what it keeps, since the buffer is recycled when call returns.
func (c *Client) call(build func(id uint64, b []byte) []byte, decode func(payload []byte) error) error {
	s := slotPool.Get().(*slot)
	c.mu.Lock()
	if err := c.readErr; err != nil {
		c.mu.Unlock()
		slotPool.Put(s)
		return err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = s
	c.mu.Unlock()

	bp := getBuf(0)
	*bp = build(id, *bp)
	if err := c.w.send(bp); err != nil {
		c.mu.Lock()
		_, mine := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if !mine {
			<-s.done // failAll settled the slot first; consume its signal
		}
		slotPool.Put(s)
		return err
	}
	<-s.done
	bp, status := s.payload, s.status
	s.payload = nil
	slotPool.Put(s)
	if bp == nil {
		return c.errNow()
	}
	defer putBuf(bp)
	payload := (*bp)[headerLen:]
	switch {
	case status != StatusOK:
		return DecodeErrorPayload(status, payload)
	case decode != nil:
		return decode(payload)
	}
	return nil
}

// errNow returns the connection's terminal error.
func (c *Client) errNow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return errors.New("wire: connection failed")
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	return c.call(func(id uint64, b []byte) []byte {
		return AppendPingRequest(b, id)
	}, nil)
}

// Put stores a vector of the given bit length. A nil words slice stores
// an all-zero vector; otherwise words must hold exactly ceil(bits/64)
// little-endian words with no bits set beyond the length.
func (c *Client) Put(name string, bits int, words []uint64) error {
	return c.call(func(id uint64, b []byte) []byte {
		return AppendPutRequest(b, id, name, bits, words)
	}, nil)
}

// Get fetches a vector's contents: its bit length, popcount, and words
// decoded into dst's storage, which is reused when its capacity suffices
// (pass nil to allocate).
func (c *Client) Get(name string, dst []uint64) (bits int, popcount uint64, words []uint64, err error) {
	err = c.call(func(id uint64, b []byte) []byte {
		return AppendGetRequest(b, id, name)
	}, func(p []byte) error {
		d := decoder{b: p}
		n, pc, raw := int(d.u32()), d.u64(), d.wordBytes()
		d.done()
		if d.err == nil {
			bits, popcount, words = n, pc, decodeWords(dst, raw)
		}
		return d.err
	})
	return bits, popcount, words, err
}

// Delete removes a vector.
func (c *Client) Delete(name string) error {
	return c.call(func(id uint64, b []byte) []byte {
		return AppendDeleteRequest(b, id, name)
	}, nil)
}

// Op executes dst = op(x, y) (y empty for the unary BitNot/BitCopy) and
// returns the operation's modeled cost. timeoutMS of zero defers to the
// server's default deadline policy.
func (c *Client) Op(op uint8, timeoutMS uint32, dst, x, y string) (st Stats, err error) {
	err = c.call(func(id uint64, b []byte) []byte {
		return AppendOpRequest(b, id, op, timeoutMS, dst, x, y)
	}, func(p []byte) (err error) {
		st, err = DecodeStats(p)
		return err
	})
	return st, err
}

// Reduce executes dst = srcs[0] op srcs[1] op ... and returns the modeled
// cost.
func (c *Client) Reduce(op uint8, timeoutMS uint32, dst string, srcs []string) (st Stats, err error) {
	err = c.call(func(id uint64, b []byte) []byte {
		return AppendReduceRequest(b, id, op, timeoutMS, dst, srcs)
	}, func(p []byte) (err error) {
		st, err = DecodeStats(p)
		return err
	})
	return st, err
}

// Eval evaluates a boolean expression over stored vectors, storing the
// result under dst; it returns the modeled cost and the result length.
func (c *Client) Eval(timeoutMS uint32, dst, expr string) (st Stats, bits int, err error) {
	err = c.call(func(id uint64, b []byte) []byte {
		return AppendEvalRequest(b, id, timeoutMS, dst, expr)
	}, func(p []byte) error {
		d := decoder{b: p}
		s, n := d.stats(), int(d.u32())
		d.done()
		if d.err == nil {
			st, bits = s, n
		}
		return d.err
	})
	return st, bits, err
}

// Arith executes dst = op(x, y) over stored vertical vectors (y empty
// for the unary ArithPopcount, mask empty for unmasked operations) and
// returns the modeled cost plus the result's element width and count.
func (c *Client) Arith(op uint8, timeoutMS uint32, dst, x, y, mask string) (st Stats, elemWidth, elems int, err error) {
	err = c.call(func(id uint64, b []byte) []byte {
		return AppendArithRequest(b, id, op, timeoutMS, dst, x, y, mask)
	}, func(p []byte) error {
		d := decoder{b: p}
		s, w, n := d.stats(), int(d.u8()), int(d.u32())
		d.done()
		if d.err == nil {
			st, elemWidth, elems = s, w, n
		}
		return d.err
	})
	return st, elemWidth, elems, err
}

// PutVert stores a vertical (bit-sliced) vector of width-bit elements.
// Every element value must be < 2^width.
func (c *Client) PutVert(name string, width int, elems []uint64) error {
	return c.call(func(id uint64, b []byte) []byte {
		return AppendPutVertRequest(b, id, name, width, elems)
	}, nil)
}

// GetVert fetches a vertical vector's element width and values. The
// response carries the stored bit slices (see KindGetVert), which
// GetVert decodes into a pooled buffer and transposes into dst's
// storage, reused when its capacity suffices (pass nil to allocate).
func (c *Client) GetVert(name string, dst []uint64) (width int, elems []uint64, err error) {
	err = c.call(func(id uint64, b []byte) []byte {
		return AppendGetVertRequest(b, id, name)
	}, func(p []byte) error {
		w, n, raw, err := decodeGetVert(p)
		if err != nil {
			return err
		}
		width, elems = w, unsliceInto(dst, raw, w, n)
		return nil
	})
	return width, elems, err
}

// sliceBufPool recycles GetVert's slice-word buffers (*[]uint64), so a
// steady stream of read-backs decodes without allocating.
var sliceBufPool = sync.Pool{New: func() any { return new([]uint64) }}

// unsliceInto decodes width bit slices of n elements from their
// little-endian bytes and transposes them into dst's storage, which is
// reused when its capacity suffices, and returns the n elements.
func unsliceInto(dst []uint64, raw []byte, width, n int) []uint64 {
	bp := sliceBufPool.Get().(*[]uint64)
	defer sliceBufPool.Put(bp)
	*bp = decodeWords(*bp, raw)
	var slices [64][]uint64
	words := vertical.SliceWords(n)
	for j := range slices[:width] {
		slices[j] = (*bp)[j*words : (j+1)*words]
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	vertical.UnsliceInto(dst, slices[:width])
	return dst
}

// QueryResult is a decoded KindQuery response. Bits and Count are always
// set; Words carries the match bitvector in QueryBits mode; Positions and
// NextCursor carry the page in QueryPositions mode (NextCursor zero means
// the page exhausted the matches).
type QueryResult struct {
	// Stats is the predicate evaluation's modeled cost.
	Stats Stats
	// Bits is the universe width of the queried namespace.
	Bits int
	// Count is the match cardinality.
	Count uint64
	// Words is the match bitvector (QueryBits mode only).
	Words []uint64
	// Positions are the page's set-bit positions (QueryPositions mode).
	Positions []uint64
	// NextCursor resumes pagination (QueryPositions mode); zero when the
	// page reached the last match.
	NextCursor uint64
}

// Query evaluates a boolean predicate over the bitmap indices of a
// namespace. mode selects the result shape (a Query* code); cursor and
// limit page the positions mode (a zero limit asks for the server's
// default page size).
func (c *Client) Query(timeoutMS uint32, namespace, predicate string, mode uint8, cursor uint64, limit uint32) (qr QueryResult, err error) {
	err = c.call(func(id uint64, b []byte) []byte {
		return AppendQueryRequest(b, id, timeoutMS, namespace, predicate, mode, cursor, limit)
	}, func(p []byte) error {
		d := decoder{b: p}
		r := QueryResult{Stats: d.stats(), Bits: int(d.u32()), Count: d.u64()}
		switch mode {
		case QueryBits:
			r.Words = decodeWords(nil, d.wordBytes())
		case QueryPositions:
			r.NextCursor = d.u64()
			r.Positions = decodeWords(nil, d.wordBytes())
		}
		d.done()
		if d.err == nil {
			qr = r
		}
		return d.err
	})
	return qr, err
}

// StatsJSON fetches the serving-layer stats payload: the same JSON bytes
// the HTTP path serves on /v1/stats.
func (c *Client) StatsJSON() (raw []byte, err error) {
	err = c.call(func(id uint64, b []byte) []byte {
		return AppendStatsRequest(b, id)
	}, func(p []byte) error {
		raw = append([]byte(nil), p...)
		return nil
	})
	return raw, err
}
