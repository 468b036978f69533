package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// Client is a multiplexing elpwire client: one persistent connection
// carries many concurrent in-flight requests, matched to their callers by
// request id, so N goroutines can share a connection and pipeline without
// head-of-line blocking on the serving side. Request frames from
// concurrent callers are coalesced: callers enqueue encoded frames and a
// dedicated writer goroutine drains the whole queue in one writev per
// wakeup, so under load many requests share a syscall while a lone
// request still flushes immediately. All methods are safe for concurrent
// use. The steady-state op path allocates nothing: request encode
// buffers, response buffers and call slots all cycle through pools.
type Client struct {
	nc net.Conn
	br *bufio.Reader

	// Request coalescer, mirroring the server's response flusher: outq
	// and werr are guarded by wmu; the writer goroutine drains outq in
	// one writev per wakeup and parks on wcond while it is empty.
	wmu        sync.Mutex
	wcond      *sync.Cond
	outq       []*[]byte
	werr       error
	closing    bool
	iov        net.Buffers // writer-only writev scratch
	writerDone chan struct{}

	flushes atomic.Uint64 // write-path flushes (≈ syscalls)
	frames  atomic.Uint64 // request frames written

	mu      sync.Mutex // guards pending, nextID, readErr
	pending map[uint64]*call
	nextID  uint64
	readErr error

	readerDone chan struct{}
	maxFrame   int
}

// call is one in-flight request's rendezvous slot.
type call struct {
	done    chan struct{} // buffered(1); signaled exactly once
	status  uint8
	payload *[]byte // response frame body (id+status+payload); pooled
}

// callPool recycles rendezvous slots.
var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan struct{}, 1)}
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
		pending:    make(map[uint64]*call),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
		maxFrame:   DefaultMaxFrame,
	}
	c.wcond = sync.NewCond(&c.wmu)
	go c.writeLoop()
	go c.readLoop()
	return c
}

// Close tears the connection down; every in-flight call fails.
func (c *Client) Close() error {
	c.wmu.Lock()
	c.closing = true
	c.wmu.Unlock()
	c.wcond.Signal()
	err := c.nc.Close()
	<-c.writerDone
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

// enqueue hands one encoded request frame to the writer goroutine,
// taking ownership of the pooled buffer. It fails fast — recycling the
// frame — once the writer has hit an error or the client is closing.
func (c *Client) enqueue(bp *[]byte) error {
	c.wmu.Lock()
	if c.werr != nil || c.closing {
		err := c.werr
		c.wmu.Unlock()
		putBuf(bp)
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	c.outq = append(c.outq, bp)
	c.wmu.Unlock()
	c.wcond.Signal()
	return nil
}

// writeLoop is the connection's single writer: per wakeup it swaps the
// whole outbound queue and writes it in one writev (flush-on-empty, as
// on the server's response side). On a write error it records werr,
// closes the connection — the read loop then fails every pending call —
// and keeps draining the queue so enqueued buffers are recycled.
func (c *Client) writeLoop() {
	defer close(c.writerDone)
	var queue []*[]byte
	for {
		c.wmu.Lock()
		for len(c.outq) == 0 && !c.closing {
			c.wcond.Wait()
		}
		if len(c.outq) == 0 {
			c.wmu.Unlock()
			return
		}
		c.wmu.Unlock()
		// Yield once before draining so callers woken alongside us get to
		// append their frames to this batch; see serverConn.flusher.
		runtime.Gosched()
		c.wmu.Lock()
		queue, c.outq = c.outq, queue[:0]
		failed := c.werr != nil
		c.wmu.Unlock()
		if !failed {
			if err := c.writeBatch(queue); err != nil {
				c.wmu.Lock()
				if c.werr == nil {
					c.werr = err
				}
				c.wmu.Unlock()
				_ = c.nc.Close()
			} else {
				c.flushes.Add(1)
				c.frames.Add(uint64(len(queue)))
			}
		}
		for i, bp := range queue {
			putBuf(bp)
			queue[i] = nil
		}
	}
}

// writeBatch writes every frame in queue with one syscall where the
// connection supports vectored I/O; see serverConn.writeBatch.
func (c *Client) writeBatch(queue []*[]byte) error {
	if len(queue) == 1 {
		_, err := c.nc.Write(*queue[0])
		return err
	}
	c.iov = c.iov[:0]
	for _, bp := range queue {
		c.iov = append(c.iov, *bp)
	}
	v := c.iov
	_, err := v.WriteTo(c.nc)
	return err
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
		if n < headerLen || n > c.maxFrame {
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
		status := (*bp)[8]
		c.mu.Lock()
		ca := c.pending[id]
		if ca != nil {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ca == nil {
			// A response nothing waits for (caller gave up): drop it.
			putBuf(bp)
			continue
		}
		ca.status = status
		ca.payload = bp
		ca.done <- struct{}{}
	}
}

// failAll settles every pending call with err and refuses new ones.
func (c *Client) failAll(err error) {
	if errors.Is(err, io.EOF) {
		err = fmt.Errorf("wire: connection closed: %w", err)
	}
	c.mu.Lock()
	c.readErr = err
	calls := make([]*call, 0, len(c.pending))
	for id, ca := range c.pending {
		delete(c.pending, id)
		calls = append(calls, ca)
	}
	c.mu.Unlock()
	for _, ca := range calls {
		ca.status = StatusInternal
		ca.payload = nil
		ca.done <- struct{}{}
	}
}

// roundTrip registers a call, enqueues the frame built by build (which
// receives the id and a pooled buffer to append the full frame to) for
// the writer goroutine, and waits for the response. On success the
// returned call holds the response; the caller must finish() it after
// decoding.
func (c *Client) roundTrip(build func(id uint64, b []byte) []byte) (*call, error) {
	ca := callPool.Get().(*call)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		callPool.Put(ca)
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ca
	c.mu.Unlock()

	bp := getBuf(0)
	*bp = build(id, *bp)
	if err := c.enqueue(bp); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		callPool.Put(ca)
		return nil, err
	}
	<-ca.done
	if ca.payload == nil {
		err := c.errNow()
		callPool.Put(ca)
		return nil, err
	}
	return ca, nil
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

// finish recycles a completed call and its payload buffer.
func (c *Client) finish(ca *call) {
	if ca.payload != nil {
		putBuf(ca.payload)
		ca.payload = nil
	}
	ca.status = 0
	callPool.Put(ca)
}

// statusErr converts a non-OK response into a *StatusError. It copies the
// message out of the pooled payload, so the call can be finished by the
// caller regardless.
func statusErr(ca *call) error {
	return DecodeErrorPayload(ca.status, (*ca.payload)[headerLen:])
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendPingRequest(b, id)
	})
	if err != nil {
		return err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return statusErr(ca)
	}
	return nil
}

// Put stores a vector of the given bit length. A nil words slice stores
// an all-zero vector; otherwise words must hold exactly ceil(bits/64)
// little-endian words with no bits set beyond the length.
func (c *Client) Put(name string, bits int, words []uint64) error {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendPutRequest(b, id, name, bits, words)
	})
	if err != nil {
		return err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return statusErr(ca)
	}
	return nil
}

// Get fetches a vector's contents: its bit length, popcount, and words
// decoded into dst's storage, which is reused when its capacity suffices
// (pass nil to allocate).
func (c *Client) Get(name string, dst []uint64) (bits int, popcount uint64, words []uint64, err error) {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendGetRequest(b, id, name)
	})
	if err != nil {
		return 0, 0, nil, err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return 0, 0, nil, statusErr(ca)
	}
	d := decoder{b: (*ca.payload)[headerLen:]}
	bits = int(d.u32())
	popcount = d.u64()
	n := int(d.u32())
	raw := d.take(n * 8)
	d.done()
	if d.err != nil {
		return 0, 0, nil, d.err
	}
	return bits, popcount, decodeWords(dst, raw), nil
}

// Delete removes a vector.
func (c *Client) Delete(name string) error {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendDeleteRequest(b, id, name)
	})
	if err != nil {
		return err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return statusErr(ca)
	}
	return nil
}

// Op executes dst = op(x, y) (y empty for the unary BitNot/BitCopy) and
// returns the operation's modeled cost. timeoutMS of zero defers to the
// server's default deadline policy.
func (c *Client) Op(op uint8, timeoutMS uint32, dst, x, y string) (Stats, error) {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendOpRequest(b, id, op, timeoutMS, dst, x, y)
	})
	if err != nil {
		return Stats{}, err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return Stats{}, statusErr(ca)
	}
	return DecodeStats((*ca.payload)[headerLen:])
}

// Reduce executes dst = srcs[0] op srcs[1] op ... and returns the modeled
// cost.
func (c *Client) Reduce(op uint8, timeoutMS uint32, dst string, srcs []string) (Stats, error) {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendReduceRequest(b, id, op, timeoutMS, dst, srcs)
	})
	if err != nil {
		return Stats{}, err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return Stats{}, statusErr(ca)
	}
	return DecodeStats((*ca.payload)[headerLen:])
}

// Eval evaluates a boolean expression over stored vectors, storing the
// result under dst; it returns the modeled cost and the result length.
func (c *Client) Eval(timeoutMS uint32, dst, expr string) (Stats, int, error) {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendEvalRequest(b, id, timeoutMS, dst, expr)
	})
	if err != nil {
		return Stats{}, 0, err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return Stats{}, 0, statusErr(ca)
	}
	payload := (*ca.payload)[headerLen:]
	st, err := DecodeStats(payload)
	if err != nil {
		return Stats{}, 0, err
	}
	if len(payload) < statsWireLen+4 {
		return Stats{}, 0, malformedf("eval response is %d bytes", len(payload))
	}
	bits := int(binary.LittleEndian.Uint32(payload[statsWireLen:]))
	return st, bits, nil
}

// Arith executes dst = op(x, y) over stored vertical vectors (y empty
// for the unary ArithPopcount, mask empty for unmasked operations) and
// returns the modeled cost plus the result's element width and count.
func (c *Client) Arith(op uint8, timeoutMS uint32, dst, x, y, mask string) (st Stats, elemWidth, elems int, err error) {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendArithRequest(b, id, op, timeoutMS, dst, x, y, mask)
	})
	if err != nil {
		return Stats{}, 0, 0, err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return Stats{}, 0, 0, statusErr(ca)
	}
	payload := (*ca.payload)[headerLen:]
	if st, err = DecodeStats(payload); err != nil {
		return Stats{}, 0, 0, err
	}
	d := decoder{b: payload[statsWireLen:]}
	elemWidth = int(d.u8())
	elems = int(d.u32())
	d.done()
	if d.err != nil {
		return Stats{}, 0, 0, d.err
	}
	return st, elemWidth, elems, nil
}

// PutVert stores a vertical (bit-sliced) vector of width-bit elements.
// Every element value must be < 2^width.
func (c *Client) PutVert(name string, width int, elems []uint64) error {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendPutVertRequest(b, id, name, width, elems)
	})
	if err != nil {
		return err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return statusErr(ca)
	}
	return nil
}

// GetVert fetches a vertical vector's element width and values, the
// values decoded into dst's storage, which is reused when its capacity
// suffices (pass nil to allocate).
func (c *Client) GetVert(name string, dst []uint64) (width int, elems []uint64, err error) {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendGetVertRequest(b, id, name)
	})
	if err != nil {
		return 0, nil, err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return 0, nil, statusErr(ca)
	}
	d := decoder{b: (*ca.payload)[headerLen:]}
	width = int(d.u8())
	n := int(d.u32())
	raw := d.take(n * 8)
	d.done()
	if d.err != nil {
		return 0, nil, d.err
	}
	return width, decodeWords(dst, raw), nil
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
func (c *Client) Query(timeoutMS uint32, namespace, predicate string, mode uint8, cursor uint64, limit uint32) (QueryResult, error) {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendQueryRequest(b, id, timeoutMS, namespace, predicate, mode, cursor, limit)
	})
	if err != nil {
		return QueryResult{}, err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return QueryResult{}, statusErr(ca)
	}
	payload := (*ca.payload)[headerLen:]
	var qr QueryResult
	if qr.Stats, err = DecodeStats(payload); err != nil {
		return QueryResult{}, err
	}
	d := decoder{b: payload[statsWireLen:]}
	qr.Bits = int(d.u32())
	qr.Count = d.u64()
	switch mode {
	case QueryBits:
		n := int(d.u32())
		raw := d.take(n * 8)
		if d.err == nil {
			qr.Words = make([]uint64, n)
			for i := range qr.Words {
				qr.Words[i] = binary.LittleEndian.Uint64(raw[i*8:])
			}
		}
	case QueryPositions:
		qr.NextCursor = d.u64()
		n := int(d.u32())
		raw := d.take(n * 8)
		if d.err == nil {
			qr.Positions = make([]uint64, n)
			for i := range qr.Positions {
				qr.Positions[i] = binary.LittleEndian.Uint64(raw[i*8:])
			}
		}
	}
	d.done()
	if d.err != nil {
		return QueryResult{}, d.err
	}
	return qr, nil
}

// StatsJSON fetches the serving-layer stats payload: the same JSON bytes
// the HTTP path serves on /v1/stats.
func (c *Client) StatsJSON() ([]byte, error) {
	ca, err := c.roundTrip(func(id uint64, b []byte) []byte {
		return AppendStatsRequest(b, id)
	})
	if err != nil {
		return nil, err
	}
	defer c.finish(ca)
	if ca.status != StatusOK {
		return nil, statusErr(ca)
	}
	return append([]byte(nil), (*ca.payload)[headerLen:]...), nil
}
