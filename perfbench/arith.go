package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	elp2im "repro"
	"repro/internal/vertical"
	"repro/internal/wire"
)

// arith_wire: SIMDRAM-style bit-serial arithmetic over stored vertical
// (bit-sliced) operands of 1 Mi elements, on the binary protocol, 2
// connections with one request outstanding on each. Each request runs a
// µProgram of many narrow fused steps over 16 Ki-word slices, so the
// kernels do most of the work; the (op, width) pairs fit the server's
// compiled-program cache, so every compile after the first hits.
const (
	arithElems    = 1 << 20
	arithWords    = arithElems / 64
	arithOperands = 3       // stored operands per width
	arithDsts     = 3       // destinations per slot
	arithStream   = 54 * 19 // 54 mix blocks
)

// arithWidths are the element widths the workload computes at.
var arithWidths = [...]int{8, 16, 32}

// arithCodes are the operations it sends. Wire codes, vertical.Op and
// elp2im.ArithOp share one numbering.
var arithCodes = [...]uint8{wire.ArithAdd, wire.ArithSub, wire.ArithLt, wire.ArithEq, wire.ArithPopcount, wire.ArithSelect}

// arithReq is one generated arith_wire request: an arith operation, or a
// GetVert read-back of one of the slot's destinations.
type arithReq struct {
	get  bool
	code uint8
	wi   int // index into arithWidths
	x, y int // operand indices at that width
	dst  int
}

// arithRead is one recorded GetVert answer and the slot request that last
// wrote the destination before it.
type arithRead struct {
	writer int
	width  int
	n      int
	hash   uint64
}

type arithWorkload struct {
	elems   [len(arithWidths)][arithOperands][]uint64
	names   [len(arithWidths)][arithOperands]string
	mask    []uint64 // select mask, one bit per element
	streams [][]arithReq
	dstName [][]string

	clients []*wire.Client
	written [][arithDsts]int
	reads   [][]arithRead
	getBuf  [][]uint64
}

func arithShape() shape {
	return shape{protocol: "wire", shards: 1, conns: 2, window: 1, warmup: 120, replay: 38}
}

func (w *arithWorkload) shape() shape { return arithShape() }

const arithMaskName = "mask"

func newArith(seed int64) *arithWorkload {
	sh := arithShape()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x61726974685f7772))
	w := &arithWorkload{
		mask:    make([]uint64, arithWords),
		streams: make([][]arithReq, sh.slots()),
		dstName: make([][]string, sh.slots()),
	}
	for wi, width := range arithWidths {
		m := vertical.WidthMask(width)
		for k := range w.elems[wi] {
			e := make([]uint64, arithElems)
			for i := range e {
				e[i] = rng.Uint64() & m
			}
			w.elems[wi][k] = e
			w.names[wi][k] = fmt.Sprintf("v%d.%d", width, k)
		}
	}
	for i := range w.mask {
		w.mask[i] = rng.Uint64()
	}
	for s := range w.streams {
		w.dstName[s] = make([]string, arithDsts)
		for d := range w.dstName[s] {
			w.dstName[s][d] = fmt.Sprintf("s%d.z%d", s, d)
		}
		var written [arithDsts]bool
		reqs := make([]arithReq, arithStream)
		// Each block of 19 requests computes every (op, width) pair once
		// and reads one written destination back.
		classes := make([]int, len(arithCodes)*len(arithWidths)+1)
		for c := range classes {
			classes[c] = 1
		}
		kinds := dealt(rng, arithStream, classes...)
		for i := range reqs {
			k := kinds[i]
			r := arithReq{
				code: arithCodes[k%len(arithCodes)],
				wi:   k / len(arithCodes) % len(arithWidths),
				x:    rng.IntN(arithOperands),
				y:    rng.IntN(arithOperands),
				dst:  rng.IntN(arithDsts),
			}
			r.get = k == len(classes)-1 && written[r.dst]
			written[r.dst] = true
			reqs[i] = r
		}
		w.streams[s] = reqs
	}
	return w
}

func (w *arithWorkload) req(slot, seq int) *arithReq { return &w.streams[slot][seq%arithStream] }

func (w *arithWorkload) wireRequest(slot, seq int) *wire.Request {
	r := w.req(slot, seq)
	dst := w.dstName[slot][r.dst]
	if r.get {
		return &wire.Request{ID: uint64(reqID(slot, seq)), Kind: wire.KindGetVert, Name: dst}
	}
	wr := &wire.Request{ID: uint64(reqID(slot, seq)), Kind: wire.KindArith, Op: r.code, Dst: dst, X: w.names[r.wi][r.x]}
	if vertical.Op(r.code).Binary() {
		wr.Y = w.names[r.wi][r.y]
	}
	if vertical.Op(r.code).Masked() {
		wr.Mask = arithMaskName
	}
	return wr
}

func (w *arithWorkload) streamBytes() []byte {
	var b []byte
	for wi := range w.elems {
		for _, e := range w.elems[wi] {
			b = appendWords(b, e)
		}
	}
	b = appendWords(b, w.mask)
	for s := range w.streams {
		for i := range w.streams[s] {
			b = wire.EncodeRequest(b, w.wireRequest(s, i))
		}
	}
	return b
}

func (w *arithWorkload) connect(addr string) error {
	sh := w.shape()
	var err error
	if w.clients, err = dialWire(addr, sh.conns); err != nil {
		return err
	}
	w.written = make([][arithDsts]int, sh.slots())
	for s := range w.written {
		for d := range w.written[s] {
			w.written[s][d] = -1
		}
	}
	w.reads = make([][]arithRead, sh.slots())
	if w.getBuf == nil {
		w.getBuf = make([][]uint64, sh.slots())
		for s := range w.getBuf {
			w.getBuf[s] = make([]uint64, 0, arithElems)
		}
	}
	return nil
}

func (w *arithWorkload) closeClients() { closeWire(w.clients) }

// load stores the operands, spread over both connections, and the mask.
func (w *arithWorkload) load() error {
	if err := w.clients[0].Put(arithMaskName, arithElems, w.mask); err != nil {
		return fmt.Errorf("put mask: %w", err)
	}
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for ci, c := range w.clients {
		wg.Add(1)
		go func(ci int, c *wire.Client) {
			defer wg.Done()
			for i := ci; i < len(arithWidths)*arithOperands; i += len(w.clients) {
				wi, k := i/arithOperands, i%arithOperands
				if err := c.PutVert(w.names[wi][k], arithWidths[wi], w.elems[wi][k]); err != nil {
					errs[ci] = fmt.Errorf("put %s: %w", w.names[wi][k], err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *arithWorkload) issue(slot, seq int) result {
	r := w.req(slot, seq)
	c := w.clients[slot%len(w.clients)]
	wr := w.wireRequest(slot, seq)
	if r.get {
		width, elems, err := c.GetVert(wr.Name, w.getBuf[slot][:0])
		if err != nil {
			return wireFailure(err)
		}
		w.reads[slot] = append(w.reads[slot], arithRead{writer: w.written[slot][r.dst], width: width, n: len(elems), hash: hashWords(elems)})
		return result{}
	}
	st, width, n, err := c.Arith(wr.Op, 0, wr.Dst, wr.X, wr.Y, wr.Mask)
	if err != nil {
		return wireFailure(err)
	}
	if op := vertical.Op(r.code); width != op.OutWidth(arithWidths[r.wi]) || n != arithElems {
		return result{out: outWrong, err: fmt.Errorf("arith_wire: %s answered %d elements of width %d", op, n, width)}
	}
	w.written[slot][r.dst] = seq
	return result{st: fromWire(st)}
}

// expect computes on the host the elements request seq of slot writes.
func (w *arithWorkload) expect(slot, seq int) (width int, elems []uint64) {
	r := w.req(slot, seq)
	op := vertical.Op(r.code)
	x, y := w.elems[r.wi][r.x], w.elems[r.wi][r.y]
	return op.OutWidth(arithWidths[r.wi]), vertical.Reference(op, arithWidths[r.wi], x, y, w.mask)
}

// verify checks every GetVert answer seen during the loads against the
// oracle, then reads each destination back and compares it element for
// element.
func (w *arithWorkload) verify() error {
	hashes := make(map[arithReq]uint64) // the oracle's answer per request shape
	want := func(slot, seq int) (int, uint64) {
		r := *w.req(slot, seq)
		r.dst, r.get = 0, false
		width := vertical.Op(r.code).OutWidth(arithWidths[r.wi])
		if h, ok := hashes[r]; ok {
			return width, h
		}
		_, elems := w.expect(slot, seq)
		hashes[r] = hashWords(elems)
		return width, hashes[r]
	}
	for s := range w.reads {
		for i, rd := range w.reads[s] {
			if rd.writer < 0 {
				return fmt.Errorf("arith_wire: slot %d read %d returned a vector no request wrote", s, i)
			}
			width, h := want(s, rd.writer)
			if rd.width != width || rd.n != arithElems || rd.hash != h {
				return fmt.Errorf("arith_wire: slot %d read %d disagrees with the oracle (writer request %d)", s, i, rd.writer)
			}
		}
	}
	for s := range w.written {
		for d, writer := range w.written[s] {
			if writer < 0 {
				continue
			}
			width, elems, err := w.clients[0].GetVert(w.dstName[s][d], nil)
			if err != nil {
				return fmt.Errorf("arith_wire: read back %s: %w", w.dstName[s][d], err)
			}
			wantWidth, wantElems := w.expect(s, writer)
			if width != wantWidth || !equalWords(elems, wantElems) {
				return fmt.Errorf("arith_wire: %s disagrees with the oracle (writer request %d)", w.dstName[s][d], writer)
			}
		}
	}
	return nil
}

// replay sends the first n requests through the wire codec, CompileArith,
// ArithProg on a benchmark-owned accelerator, the fused kernels of every
// µProgram step, and the transposes a vertical PUT and GET run.
func (w *arithWorkload) replay(tr *tracer, n int) (replayStats, error) {
	var rs replayStats
	acc, err := elp2im.New()
	if err != nil {
		return rs, err
	}
	cr := newClusterRunner(acc)
	mask := elp2im.NewBitVector(arithElems)
	copy(mask.Words(), w.mask)
	operands := make(map[[2]int]*elp2im.Vertical)
	// operand transposes an operand into slices the way a vertical PUT
	// does, timed, and builds the facade's vertical from them.
	operand := func(id, parent int64, wi, k int) (*elp2im.Vertical, error) {
		if v := operands[[2]int{wi, k}]; v != nil {
			return v, nil
		}
		slices := make([][]uint64, arithWidths[wi])
		for j := range slices {
			slices[j] = make([]uint64, arithWords)
		}
		rs.transposeNS += tr.do("vertical.slice", id, parent, func() { vertical.SliceInto(slices, w.elems[wi][k]) })
		rs.transposed += arithElems
		v, err := elp2im.VerticalFromElements(w.elems[wi][k], arithWidths[wi])
		if err != nil {
			return nil, err
		}
		for j := range slices {
			if !equalWords(slices[j], v.Slice(j).Words()) {
				return nil, fmt.Errorf("arith_wire: replay transpose of %s disagrees with the facade", w.names[wi][k])
			}
		}
		operands[[2]int{wi, k}] = v
		return v, nil
	}
	last := make(map[[2]int]*elp2im.Vertical) // slot, dst → latest replayed result
	elemBuf := make([]uint64, arithElems)
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
			return rs, fmt.Errorf("arith_wire: replay decode: %w", derr)
		}
		rs.requests++
		if r.get {
			if v := last[[2]int{slot, r.dst}]; v != nil {
				slices := make([][]uint64, v.Width())
				for j := range slices {
					slices[j] = v.Slice(j).Words()
				}
				rs.transposeNS += tr.do("vertical.unslice", id, root.id, func() { vertical.UnsliceInto(elemBuf, slices) })
				rs.transposed += arithElems
			}
			root.end()
			continue
		}
		op, width := vertical.Op(r.code), arithWidths[r.wi]
		x, err := operand(id, root.id, r.wi, r.x)
		if err != nil {
			return rs, err
		}
		var y *elp2im.Vertical
		if op.Binary() {
			if y, err = operand(id, root.id, r.wi, r.y); err != nil {
				return rs, err
			}
		}
		var m *elp2im.BitVector
		if op.Masked() {
			m = mask
		}
		var ca *elp2im.CompiledArith
		var cerr error
		tr.do("plan.compile", id, root.id, func() { ca, cerr = elp2im.CompileArith(elp2im.ArithOp(r.code), width) })
		if cerr != nil {
			return rs, cerr
		}
		var out *elp2im.Vertical
		var xerr error
		rs.execNS += tr.do("elp2im.exec", id, root.id, func() { out, _, xerr = acc.ArithProg(ca, x, y, m) })
		if xerr != nil {
			return rs, fmt.Errorf("arith_wire: replay exec: %w", xerr)
		}
		rs.execs++
		rs.steps += ca.Steps()
		last[[2]int{slot, r.dst}] = out
		if err := w.replayKernels(tr, id, root.id, cr, op, width, x, y, out, &rs); err != nil {
			return rs, err
		}
		root.end()
	}
	return rs, nil
}

// replayKernels runs every step of the operation's µProgram through the
// fused kernels and checks the result slices against the facade's.
func (w *arithWorkload) replayKernels(tr *tracer, id, parent int64, cr *clusterRunner, op vertical.Op, width int, x, y, out *elp2im.Vertical, rs *replayStats) error {
	prog, err := vertical.Build(op, width)
	if err != nil {
		return err
	}
	binds := make(map[string][]uint64)
	for j := 0; j < width; j++ {
		binds[vertical.XVar(j)] = x.Slice(j).Words()
		if y != nil {
			binds[vertical.YVar(j)] = y.Slice(j).Words()
		}
	}
	binds[vertical.MaskVar] = w.mask
	for j := 0; j < prog.OutWidth; j++ {
		binds[vertical.ZVar(j)] = make([]uint64, arithWords)
	}
	for _, t := range prog.Temps {
		binds[t] = make([]uint64, arithWords)
	}
	vars := func(name string) []uint64 { return binds[name] }
	for _, st := range prog.Steps {
		if err := cr.run(tr, id, parent, st.Plan, vars, binds[st.Dst], rs); err != nil {
			return err
		}
	}
	for j := 0; j < prog.OutWidth; j++ {
		if !equalWords(binds[vertical.ZVar(j)], out.Slice(j).Words()) {
			return fmt.Errorf("arith_wire: kernel replay of %s/%d disagrees with ArithProg at slice %d", op, width, j)
		}
	}
	return nil
}

// appendWords appends words little-endian.
func appendWords(b []byte, ws []uint64) []byte {
	for _, x := range ws {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24), byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
	}
	return b
}
