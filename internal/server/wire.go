package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"time"

	elp2im "repro"
	"repro/internal/wire"
)

// This file threads elpwire (internal/wire) through the serving layer:
// ServeWire accepts persistent binary-protocol connections that execute
// against the same store, request cores, per-shard admission gates and
// drain semantics as the HTTP/JSON handlers — only the codec differs.
// The differential tests in wire_server_test.go pin the two paths
// bit-for-bit equal; wire statuses come from the same error table as
// HTTP's (errorClasses), pinned by TestWireErrorStatusContract exactly
// the way TestErrorStatusContract pins the HTTP one.

// bitOps maps wire bitwise-operation codes onto the facade's ops. The
// indices are the wire.Bit* constants — a stable protocol contract pinned
// by TestWireBitOpTable.
var bitOps = [8]elp2im.Op{
	wire.BitNot:  elp2im.OpNot,
	wire.BitAnd:  elp2im.OpAnd,
	wire.BitOr:   elp2im.OpOr,
	wire.BitNand: elp2im.OpNand,
	wire.BitNor:  elp2im.OpNor,
	wire.BitXor:  elp2im.OpXor,
	wire.BitXnor: elp2im.OpXnor,
	wire.BitCopy: elp2im.OpCopy,
}

// bitOpFor validates and maps a wire op code.
func bitOpFor(code uint8) (elp2im.Op, bool) {
	if int(code) >= len(bitOps) {
		return 0, false
	}
	return bitOps[code], true
}

// arithOps maps wire vertical-arithmetic opcodes onto the facade's
// ArithOps. The indices are the wire.Arith* constants — the same stable
// protocol contract as bitOps, pinned by TestWireArithOpTable.
var arithOps = [9]elp2im.ArithOp{
	wire.ArithAdd:      elp2im.ArithAdd,
	wire.ArithSub:      elp2im.ArithSub,
	wire.ArithLt:       elp2im.ArithLt,
	wire.ArithLe:       elp2im.ArithLe,
	wire.ArithEq:       elp2im.ArithEq,
	wire.ArithLts:      elp2im.ArithLts,
	wire.ArithLes:      elp2im.ArithLes,
	wire.ArithPopcount: elp2im.ArithPopcount,
	wire.ArithSelect:   elp2im.ArithSelect,
}

// arithOpFor validates and maps a wire arithmetic op code.
func arithOpFor(code uint8) (elp2im.ArithOp, bool) {
	if int(code) >= len(arithOps) {
		return 0, false
	}
	return arithOps[code], true
}

// wireStats converts the facade's Stats into the wire encoding's shape.
func wireStats(st elp2im.Stats) wire.Stats {
	return wire.Stats{
		LatencyNS:     st.LatencyNS,
		EnergyNJ:      st.EnergyNJ,
		AveragePowerW: st.AveragePowerW,
		RowOps:        uint64(st.RowOps),
		Commands:      uint64(st.Commands),
		Wordlines:     uint64(st.Wordlines),
	}
}

// ServeWire serves elpwire connections from ln until the listener
// closes, sharing the store, request cores, admission gates and drain
// state with the HTTP handlers. Accepted connections are tracked so
// CloseWireConns can end them after a drain. A clean listener close
// returns nil.
func (s *Server) ServeWire(ln net.Listener) error {
	cfg := wire.ServerConfig{
		Backend:  &wireBackend{s: s},
		StatusOf: wireStatusFor,
		OnFlush:  s.obs.wire.onFlush,
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wireMu.Lock()
		s.wireConns[conn] = struct{}{}
		s.wireMu.Unlock()
		s.obs.wire.connections.Add(1)
		s.wireWG.Add(1)
		go func(conn net.Conn) {
			defer s.wireWG.Done()
			_ = wire.ServeConn(conn, cfg)
			_ = conn.Close()
			s.obs.wire.connections.Add(-1)
			s.wireMu.Lock()
			delete(s.wireConns, conn)
			s.wireMu.Unlock()
		}(conn)
	}
}

// CloseWireConns ends every live wire connection and waits for their
// serving goroutines to exit. Call it after the listener is closed and
// Drain has settled admitted work. Responses for that work can still be
// sitting in per-connection frame writers, so rather than closing sockets
// under a writer (truncating frames mid-write) this nudges each
// connection's read loop with an already-expired read deadline: the
// serving loop unwinds, drains its workers and frame writer — delivering
// every queued response un-truncated — and closes the socket itself. A
// bounded write deadline guards against peers that stopped reading;
// their connections end with a write error instead of wedging shutdown.
func (s *Server) CloseWireConns() {
	expired := time.Unix(1, 0)
	writeBudget := time.Now().Add(5 * time.Second)
	s.wireMu.Lock()
	for c := range s.wireConns {
		_ = c.SetReadDeadline(expired)
		_ = c.SetWriteDeadline(writeBudget)
	}
	s.wireMu.Unlock()
	s.wireWG.Wait()
}

// wireBackend executes decoded wire requests against the server — the
// binary twin of the HTTP handlers, sharing their request cores. Each
// request runs synchronously on one of its connection's worker
// goroutines. The op/reduce arm is the steady-state hot path: names come
// interned from the connection, the request descriptor lives on the
// stack, and the response is built into a pooled buffer.
type wireBackend struct {
	s *Server
}

// Handle dispatches one request by opcode.
func (wb *wireBackend) Handle(ctx context.Context, req *wire.Request, resp *wire.Response) error {
	s := wb.s
	s.obs.wire.requests.Inc()
	var err error
	switch req.Kind {
	case wire.KindPing:
		// Liveness only.
	case wire.KindPut:
		err = wb.handlePut(req, resp)
	case wire.KindGet:
		err = wb.handleGet(req, resp)
	case wire.KindDelete:
		err = wb.handleDelete(req)
	case wire.KindOp, wire.KindReduce:
		err = wb.handleOp(ctx, req, resp)
	case wire.KindEval:
		err = wb.handleEval(req, resp)
	case wire.KindArith:
		err = wb.handleArith(req, resp)
	case wire.KindQuery:
		err = wb.handleQuery(req, resp)
	case wire.KindPutVert:
		err = wb.handlePutVert(req, resp)
	case wire.KindGetVert:
		err = wb.handleGetVert(req, resp)
	case wire.KindStats:
		err = wb.handleStats(resp)
	default:
		err = badRequestf("server: unknown wire opcode 0x%02x", req.Kind)
	}
	if err != nil {
		s.obs.wire.errors.Inc()
	}
	return err
}

// handlePut stores a vector from its raw word payload through the same
// builder as the JSON path's DecodeBits: an empty payload stores an
// all-zero vector, and bits set beyond the declared length are rejected.
func (wb *wireBackend) handlePut(req *wire.Request, resp *wire.Response) error {
	vec, err := bitsFromLE(req.WordData, req.Bits)
	if err != nil {
		return err
	}
	wb.s.store.set(req.Name, vec)
	resp.AppendU32(uint32(vec.Len()))
	return nil
}

// handleGet returns a bit vector's length, popcount and raw words
// through the shared read core; a vertical answers 400.
func (wb *wireBackend) handleGet(req *wire.Request, resp *wire.Response) error {
	return wb.s.readVector(req.Name, func(words []uint64, n int) error {
		resp.AppendU32(uint32(n))
		resp.AppendU64(uint64(popcountWords(words)))
		resp.AppendWords(words)
		return nil
	}, func(*elp2im.Vertical) error {
		return badRequestf("server: %q is a vertical vector; use get_vert", req.Name)
	})
}

// handleDelete removes a vector.
func (wb *wireBackend) handleDelete(req *wire.Request) error {
	if !wb.s.store.remove(req.Name) {
		return unknownVector(req.Name)
	}
	return nil
}

// handleOp executes an op or reduce through opCore — the wire hot path.
// A zero TimeoutMS executes with no deadline (no timer, no allocation); a
// nonzero one buys a per-request deadline exactly like the JSON
// ?timeout_ms.
func (wb *wireBackend) handleOp(ctx context.Context, req *wire.Request, resp *wire.Response) error {
	op, ok := bitOpFor(req.Op)
	if !ok {
		return badRequestf("server: unknown wire op code %d", req.Op)
	}
	oreq := opRequest{op: op, dst: req.Dst}
	if req.Kind == wire.KindReduce {
		oreq.reduce, oreq.srcs = true, req.Srcs
	} else {
		oreq.x, oreq.y = req.X, req.Y
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	st, err := wb.s.opCore(ctx, &oreq)
	if err != nil {
		return err
	}
	resp.AppendStats(wireStats(st))
	return nil
}

// handleEval evaluates an expression through the shared eval core. Like
// the HTTP handler, eval runs under the shard gate with no per-request
// deadline.
func (wb *wireBackend) handleEval(req *wire.Request, resp *wire.Response) error {
	st, bits, err := wb.s.evalCore(req.Expr, req.Dst)
	if err != nil {
		return err
	}
	resp.AppendStats(wireStats(st))
	resp.AppendU32(uint32(bits))
	return nil
}

// handleArith runs one vertical arithmetic operation through the shared
// arith core — the binary twin of POST /v1/arith. A nonzero TimeoutMS is
// accepted for frame symmetry with op/reduce but, like eval, arith runs
// under the shard gate without a per-request deadline.
func (wb *wireBackend) handleArith(req *wire.Request, resp *wire.Response) error {
	op, ok := arithOpFor(req.Op)
	if !ok {
		return badRequestf("server: unknown wire arith code %d", req.Op)
	}
	st, width, elems, err := wb.s.arithCore(op, req.Dst, req.X, req.Y, req.Mask)
	if err != nil {
		return err
	}
	resp.AppendStats(wireStats(st))
	resp.AppendU8(uint8(width))
	resp.AppendU32(uint32(elems))
	return nil
}

// handlePutVert stores a vertical (bit-sliced integer) vector from its
// raw element payload, transposing straight from the frame bytes exactly
// like the JSON PUT's vertical path — including its strict rejection of
// elements with bits set at or above the declared width.
func (wb *wireBackend) handlePutVert(req *wire.Request, resp *wire.Response) error {
	v, err := buildVertical(req.WordData, req.ElemWidth)
	if err != nil {
		return err
	}
	wb.s.store.setVert(req.Name, v)
	resp.AppendU32(uint32(v.Len()))
	return nil
}

// handleGetVert returns a vertical vector's element width, element count
// and stored bit slices through the shared read core, copying the slice
// words into the payload under the read lock; the client transposes them
// (see wire.KindGetVert). A bit vector answers 400.
func (wb *wireBackend) handleGetVert(req *wire.Request, resp *wire.Response) error {
	return wb.s.readVector(req.Name, func([]uint64, int) error {
		return badRequestf("server: %q is a bit vector; use get", req.Name)
	}, func(v *elp2im.Vertical) error {
		return resp.AppendVert(v.Len(), sliceWords(v))
	})
}

// handleStats marshals the exact /v1/stats payload, so the two protocols
// serve byte-identical stats by construction.
func (wb *wireBackend) handleStats(resp *wire.Response) error {
	raw, err := json.Marshal(wb.s.Stats())
	if err != nil {
		return err
	}
	resp.AppendBytes(raw)
	return nil
}
