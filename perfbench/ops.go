package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	elp2im "repro"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/wire"
)

// ops_wire: bulk AND/OR/XOR and k-way reductions over 64 Ki-bit vectors
// on the binary protocol, 2 connections with 8 requests outstanding on
// each. A request's kernel work is one 1,024-word pass, so the serving
// path around it dominates: codec, admission, the micro-batch window,
// entry locks and the coalesced response flush.
const (
	opsBits    = 64 << 10
	opsWords   = opsBits / 64
	opsPool    = 1024 // stored source vectors
	opsDsts    = 4    // destinations per slot
	opsStream  = 4000 // requests per slot before its stream repeats: 200 mix blocks
	opsMaxSrcs = 8
)

// The wire op codes the workload sends, and the facade and engine ops
// that compute them.
var (
	opsFacadeOp = map[uint8]elp2im.Op{wire.BitAnd: elp2im.OpAnd, wire.BitOr: elp2im.OpOr, wire.BitXor: elp2im.OpXor}
	opsEngineOp = map[uint8]engine.Op{wire.BitAnd: engine.OpAND, wire.BitOr: engine.OpOR, wire.BitXor: engine.OpXOR}
)

// opsReq is one generated ops_wire request.
type opsReq struct {
	kind uint8 // wire.KindOp, wire.KindReduce or wire.KindGet
	op   uint8 // wire.BitAnd, BitOr or BitXor
	dst  int   // destination index within the slot
	srcs []int // pool indices
	// names are the pool vectors' names, in srcs order.
	names []string
}

// opsRead is one recorded read-back: the GET's answer and the sequence
// number of the slot's request that last wrote the vector before it.
type opsRead struct {
	writer int
	hash   uint64
	pop    uint64
	bits   int
}

type opsWorkload struct {
	pool     [][]uint64 // opsPool vectors of opsWords words
	poolName []string
	streams  [][]opsReq // per slot
	dstName  [][]string // per slot

	clients []*wire.Client
	// Per-slot oracle state, owned by the slot's goroutine while a load
	// runs: the last successful writer of each destination and the GET
	// answers seen.
	written [][opsDsts]int
	reads   [][]opsRead
	getBuf  [][]uint64
}

func newOps(seed int64) *opsWorkload {
	sh := opsShape()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6f70735f77697265))
	w := &opsWorkload{
		pool:     make([][]uint64, opsPool),
		poolName: make([]string, opsPool),
		streams:  make([][]opsReq, sh.slots()),
		dstName:  make([][]string, sh.slots()),
	}
	for i := range w.pool {
		w.pool[i] = make([]uint64, opsWords)
		for j := range w.pool[i] {
			w.pool[i][j] = rng.Uint64()
		}
		w.poolName[i] = fmt.Sprintf("p%04d", i)
	}
	for s := range w.streams {
		w.dstName[s] = make([]string, opsDsts)
		for d := range w.dstName[s] {
			w.dstName[s][d] = fmt.Sprintf("s%02d.d%d", s, d)
		}
		var written [opsDsts]bool
		reqs := make([]opsReq, opsStream)
		// Mix: 20% each of and/or/xor, 30% reduce, 10% GET of a
		// destination the slot has already written.
		kinds := dealt(rng, opsStream, 4, 4, 4, 6, 2)
		for i := range reqs {
			r := opsReq{dst: rng.IntN(opsDsts)}
			switch k := kinds[i]; k {
			case 0, 1, 2:
				r.kind, r.op = wire.KindOp, []uint8{wire.BitAnd, wire.BitOr, wire.BitXor}[k]
				r.srcs = []int{rng.IntN(opsPool), rng.IntN(opsPool)}
			case 3:
				r.kind, r.op = wire.KindReduce, []uint8{wire.BitAnd, wire.BitOr}[rng.IntN(2)]
				r.srcs = make([]int, 3+rng.IntN(opsMaxSrcs-2))
				for j := range r.srcs {
					r.srcs[j] = rng.IntN(opsPool)
				}
			default:
				r.kind = wire.KindGet
			}
			if r.kind == wire.KindGet && !written[r.dst] {
				r.kind, r.op, r.srcs = wire.KindOp, wire.BitAnd, []int{rng.IntN(opsPool), rng.IntN(opsPool)}
			}
			if r.kind != wire.KindGet {
				written[r.dst] = true
			}
			for _, p := range r.srcs {
				r.names = append(r.names, w.poolName[p])
			}
			reqs[i] = r
		}
		w.streams[s] = reqs
	}
	return w
}

func opsShape() shape {
	return shape{protocol: "wire", shards: 1, conns: 2, window: 8, warmup: 256, replay: 1920}
}

func (w *opsWorkload) shape() shape { return opsShape() }

func (w *opsWorkload) req(slot, seq int) *opsReq { return &w.streams[slot][seq%opsStream] }

// wireRequest renders a generated request as the frame the client sends.
func (w *opsWorkload) wireRequest(slot, seq int) *wire.Request {
	r := w.req(slot, seq)
	wr := &wire.Request{ID: uint64(reqID(slot, seq)), Kind: r.kind, Op: r.op}
	switch r.kind {
	case wire.KindGet:
		wr.Name = w.dstName[slot][r.dst]
	case wire.KindOp:
		wr.Dst, wr.X, wr.Y = w.dstName[slot][r.dst], r.names[0], r.names[1]
	case wire.KindReduce:
		wr.Dst, wr.Srcs = w.dstName[slot][r.dst], r.names
	}
	return wr
}

func (w *opsWorkload) streamBytes() []byte {
	var b []byte
	for _, v := range w.pool {
		b = appendWords(b, v)
	}
	for s := range w.streams {
		for i := range w.streams[s] {
			b = wire.EncodeRequest(b, w.wireRequest(s, i))
		}
	}
	return b
}

func (w *opsWorkload) connect(addr string) error {
	sh := w.shape()
	var err error
	if w.clients, err = dialWire(addr, sh.conns); err != nil {
		return err
	}
	w.written = make([][opsDsts]int, sh.slots())
	for s := range w.written {
		for d := range w.written[s] {
			w.written[s][d] = -1
		}
	}
	w.reads = make([][]opsRead, sh.slots())
	w.getBuf = make([][]uint64, sh.slots())
	for s := range w.getBuf {
		w.getBuf[s] = make([]uint64, 0, opsWords)
	}
	return nil
}

func (w *opsWorkload) closeClients() { closeWire(w.clients) }

// load stores the source pool, half over each connection.
func (w *opsWorkload) load() error {
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for ci, c := range w.clients {
		wg.Add(1)
		go func(ci int, c *wire.Client) {
			defer wg.Done()
			for i := ci; i < opsPool; i += len(w.clients) {
				if err := c.Put(w.poolName[i], opsBits, w.pool[i]); err != nil {
					errs[ci] = fmt.Errorf("put %s: %w", w.poolName[i], err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// client is the connection a slot sends on.
func (w *opsWorkload) client(slot int) *wire.Client { return w.clients[slot%len(w.clients)] }

func (w *opsWorkload) issue(slot, seq int) result {
	r := w.req(slot, seq)
	c := w.client(slot)
	dst := w.dstName[slot][r.dst]
	var st wire.Stats
	var err error
	switch r.kind {
	case wire.KindOp:
		st, err = c.Op(r.op, 0, dst, r.names[0], r.names[1])
	case wire.KindReduce:
		st, err = c.Reduce(r.op, 0, dst, r.names)
	case wire.KindGet:
		var bits int
		var pop uint64
		var words []uint64
		bits, pop, words, err = c.Get(dst, w.getBuf[slot][:0])
		if err == nil {
			w.reads[slot] = append(w.reads[slot], opsRead{writer: w.written[slot][r.dst], hash: hashWords(words), pop: pop, bits: bits})
		}
	}
	if err != nil {
		return wireFailure(err)
	}
	if r.kind != wire.KindGet {
		w.written[slot][r.dst] = seq
	}
	return result{st: fromWire(st)}
}

// expect computes on the host what request seq of slot writes.
func (w *opsWorkload) expect(slot, seq int) []uint64 {
	r := w.req(slot, seq)
	out := append([]uint64(nil), w.pool[r.srcs[0]]...)
	for _, p := range r.srcs[1:] {
		src := w.pool[p]
		for i := range out {
			switch r.op {
			case wire.BitAnd:
				out[i] &= src[i]
			case wire.BitOr:
				out[i] |= src[i]
			case wire.BitXor:
				out[i] ^= src[i]
			}
		}
	}
	return out
}

// verify checks every GET answer seen during the loads, then reads each
// destination back and compares it word for word with the oracle.
func (w *opsWorkload) verify() error {
	for s := range w.reads {
		for i, rd := range w.reads[s] {
			if rd.writer < 0 {
				return fmt.Errorf("ops_wire: slot %d read %d returned a vector no request wrote", s, i)
			}
			want := w.expect(s, rd.writer)
			if rd.bits != opsBits || rd.hash != hashWords(want) || rd.pop != popcount(want) {
				return fmt.Errorf("ops_wire: slot %d read %d disagrees with the oracle (writer request %d)", s, i, rd.writer)
			}
		}
	}
	c := w.clients[0]
	for s := range w.written {
		for d, writer := range w.written[s] {
			if writer < 0 {
				continue
			}
			bits, _, words, err := c.Get(w.dstName[s][d], nil)
			if err != nil {
				return fmt.Errorf("ops_wire: read back %s: %w", w.dstName[s][d], err)
			}
			if bits != opsBits || !equalWords(words, w.expect(s, writer)) {
				return fmt.Errorf("ops_wire: %s disagrees with the oracle (writer request %d)", w.dstName[s][d], writer)
			}
		}
	}
	return nil
}

// replay sends the first n requests, interleaved across slots as the
// load sends them, through the wire codec, the facade's Op and Reduce on
// a benchmark-owned accelerator, and the node kernels those calls run.
func (w *opsWorkload) replay(tr *tracer, n int) (replayStats, error) {
	var rs replayStats
	acc, err := elp2im.New()
	if err != nil {
		return rs, err
	}
	kset := kernel.NewSet(acc.BaseExecutor(), moduleConfig())
	vecs := make(map[int]*elp2im.BitVector)
	vec := func(p int) *elp2im.BitVector {
		if v := vecs[p]; v != nil {
			return v
		}
		v := elp2im.NewBitVector(opsBits)
		copy(v.Words(), w.pool[p])
		vecs[p] = v
		return v
	}
	dst := elp2im.NewBitVector(opsBits)
	kdst := make([]uint64, opsWords)
	var frame []byte
	var dec wire.Request
	slots := w.shape().slots()
	for i := 0; i < n; i++ {
		slot, seq := i%slots, i/slots
		r := w.req(slot, seq)
		id := reqID(slot, seq)
		root := tr.begin("request", id, 0)
		wr := w.wireRequest(slot, seq)
		rs.codecNS += tr.do("wire.encode", id, root.id, func() { frame = wire.EncodeRequest(frame[:0], wr) })
		var derr error
		rs.codecNS += tr.do("wire.decode", id, root.id, func() { derr = wire.DecodeRequest(frame[4:], &dec, nil) })
		if derr != nil {
			return rs, fmt.Errorf("ops_wire: replay decode: %w", derr)
		}
		rs.requests++
		if r.kind == wire.KindGet {
			root.end()
			continue
		}
		op := opsFacadeOp[r.op]
		srcs := make([]*elp2im.BitVector, len(r.srcs))
		for j, p := range r.srcs {
			srcs[j] = vec(p)
		}
		var xerr error
		rs.execNS += tr.do("elp2im.exec", id, root.id, func() {
			if r.kind == wire.KindOp {
				_, xerr = acc.Op(op, dst, srcs[0], srcs[1])
			} else {
				_, xerr = acc.Reduce(op, dst, srcs...)
			}
		})
		if xerr != nil {
			return rs, fmt.Errorf("ops_wire: replay exec: %w", xerr)
		}
		rs.execs++
		k, kerr := kset.Kernel(opsEngineOp[r.op])
		if kerr != nil {
			return rs, kerr
		}
		rs.kernelNS += tr.do("kernel.apply", id, root.id, func() {
			k.Apply(kdst, srcs[0].Words(), srcs[1].Words())
			for _, v := range srcs[2:] {
				k.Apply(kdst, kdst, v.Words())
			}
		})
		rs.gates += len(srcs) - 1
		rs.bytes += int64(len(srcs)-1) * 3 * opsWords * 8
		root.end()
		want := w.expect(slot, seq)
		if !equalWords(dst.Words(), want) || !equalWords(kdst, want) {
			return rs, fmt.Errorf("ops_wire: replay of slot %d request %d disagrees with the oracle", slot, seq)
		}
	}
	return rs, nil
}
