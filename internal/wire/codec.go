package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vertical"
)

// This file is the codec: append-style encoders shared by the client and
// the serving loop, and the strict decoder the fuzz targets hammer. Both
// directions operate on explicit byte slices with no hidden state, so
// encode(decode(x)) is testable byte-for-byte, and decoding never reads
// outside the frame it was handed.

// appendU16 appends a little-endian uint16.
func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

// appendU32 appends a little-endian uint32.
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// appendU64 appends a little-endian uint64.
func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendF64 appends a little-endian IEEE-754 float64.
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

// appendStr16 appends a str16 (uint16 LE length + bytes). Strings longer
// than 65535 bytes cannot be represented; callers validate first
// (EncodeableString).
func appendStr16(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// EncodeableString reports whether s fits a str16 field.
func EncodeableString(s string) bool { return len(s) <= maxString }

// AppendStats appends the 48-byte wire encoding of st.
func AppendStats(b []byte, st Stats) []byte {
	b = appendF64(b, st.LatencyNS)
	b = appendF64(b, st.EnergyNJ)
	b = appendF64(b, st.AveragePowerW)
	b = appendU64(b, st.RowOps)
	b = appendU64(b, st.Commands)
	return appendU64(b, st.Wordlines)
}

// DecodeStats decodes the 48-byte wire encoding of Stats.
func DecodeStats(b []byte) (Stats, error) {
	if len(b) < statsWireLen {
		return Stats{}, malformedf("stats payload is %d bytes, want %d", len(b), statsWireLen)
	}
	return Stats{
		LatencyNS:     math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		EnergyNJ:      math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		AveragePowerW: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		RowOps:        binary.LittleEndian.Uint64(b[24:]),
		Commands:      binary.LittleEndian.Uint64(b[32:]),
		Wordlines:     binary.LittleEndian.Uint64(b[40:]),
	}, nil
}

// AppendWords appends a word payload: u32 LE count + raw LE words. The
// buffer grows at most once, to the payload's final size, before the
// words are written.
func AppendWords(b []byte, words []uint64) []byte {
	b = appendU32(b, uint32(len(words)))
	b = grow(b, 8*len(words))
	putWords(b[len(b)-8*len(words):], words)
	return b
}

// putWords writes words into raw as little-endian uint64s.
func putWords(raw []byte, words []uint64) {
	for i, w := range words {
		binary.LittleEndian.PutUint64(raw[8*i:], w)
	}
}

// grow extends b by n bytes, reallocating at most once and then to
// exactly the length needed, and returns the extended slice. The new
// bytes are unspecified; callers overwrite them.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), len(b)+n)
		copy(nb, b)
		b = nb
	}
	return b[:len(b)+n]
}

// decodeWords decodes the little-endian words of raw into dst's storage,
// reallocating only when dst's capacity is too small, and returns them.
func decodeWords(dst []uint64, raw []byte) []uint64 {
	n := len(raw) / 8
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return dst
}

// AppendVert appends a KindGetVert OK payload: the element width
// len(slices), the element count n, and the bit slices, each
// vertical.SliceWords(n) words. A vector whose frame would exceed the
// connection's limit with its n elements at 8 bytes each is refused, so
// every answer stays within the bound a client sizes its element buffer
// from (see KindGetVert); the payload is then reserved through Extend.
// Either refusal writes nothing and is tagged ErrFrameTooLarge.
func (r *Response) AppendVert(n int, slices [][]uint64) error {
	const header = 1 + 4 // elem_width, elems
	if body := len(r.b) - frameLenSize + header + 8*n; r.limit > 0 && body > r.limit {
		return fmt.Errorf("%w: %d elements at 8 bytes each make a %d-byte frame body (limit %d)", ErrFrameTooLarge, n, body, r.limit)
	}
	words := vertical.SliceWords(n)
	payload, err := r.Extend(header + 8*words*len(slices))
	if err != nil {
		return err
	}
	payload[0] = uint8(len(slices))
	binary.LittleEndian.PutUint32(payload[1:], uint32(n))
	for j, s := range slices {
		putWords(payload[header+8*words*j:], s)
	}
	return nil
}

// decodeGetVert validates a KindGetVert OK payload and returns its
// element width, element count and slice bytes (aliasing p). It checks
// everything before the caller sizes an element buffer: the width, a
// nonzero element count whose 8-byte elements fit DefaultMaxFrame (the
// bound the server answers within), and exactly elem_width slices of
// ceil(elems/64) words with nothing after them.
func decodeGetVert(p []byte) (width, elems int, slices []byte, err error) {
	d := decoder{b: p}
	w, n := int(d.u8()), int(d.u32())
	if d.err == nil && (w == 0 || w > 64) {
		d.fail("get_vert element width %d out of range [1, 64]", w)
	}
	if d.err == nil && (n == 0 || 8*n > DefaultMaxFrame) {
		d.fail("get_vert declares %d elements, want 1 to %d (8 bytes each within the frame limit)", n, DefaultMaxFrame/8)
	}
	raw := d.take(w * vertical.SliceWords(n) * 8)
	d.done()
	return w, n, raw, d.err
}

// appendHeader appends the 9-byte frame body prefix (id + kind). The
// uint32 length word is patched in by FinishFrame.
func appendHeader(b []byte, id uint64, kind uint8) []byte {
	b = appendU64(b, id)
	return append(b, kind)
}

// BeginFrame starts a frame in b: a 4-byte length placeholder, the id and
// the kind byte. Append the payload to the result, then call FinishFrame.
func BeginFrame(b []byte, id uint64, kind uint8) []byte {
	b = appendU32(b, 0)
	return appendHeader(b, id, kind)
}

// FinishFrame patches the length word of the frame begun at offset start
// and returns the completed buffer.
func FinishFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-frameLenSize))
	return b
}

// AppendPingRequest appends a complete KindPing request frame.
func AppendPingRequest(b []byte, id uint64) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindPing)
	return FinishFrame(b, start)
}

// AppendPutRequest appends a complete KindPut request frame. A nil words
// slice stores an all-zero vector of the given length.
func AppendPutRequest(b []byte, id uint64, name string, bits int, words []uint64) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindPut)
	b = appendStr16(b, name)
	b = appendU32(b, uint32(bits))
	b = AppendWords(b, words)
	return FinishFrame(b, start)
}

// AppendGetRequest appends a complete KindGet request frame.
func AppendGetRequest(b []byte, id uint64, name string) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindGet)
	b = appendStr16(b, name)
	return FinishFrame(b, start)
}

// AppendDeleteRequest appends a complete KindDelete request frame.
func AppendDeleteRequest(b []byte, id uint64, name string) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindDelete)
	b = appendStr16(b, name)
	return FinishFrame(b, start)
}

// AppendOpRequest appends a complete KindOp request frame.
func AppendOpRequest(b []byte, id uint64, op uint8, timeoutMS uint32, dst, x, y string) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindOp)
	b = append(b, op)
	b = appendU32(b, timeoutMS)
	b = appendStr16(b, dst)
	b = appendStr16(b, x)
	b = appendStr16(b, y)
	return FinishFrame(b, start)
}

// AppendReduceRequest appends a complete KindReduce request frame.
func AppendReduceRequest(b []byte, id uint64, op uint8, timeoutMS uint32, dst string, srcs []string) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindReduce)
	b = append(b, op)
	b = appendU32(b, timeoutMS)
	b = appendStr16(b, dst)
	b = appendU16(b, uint16(len(srcs)))
	for _, s := range srcs {
		b = appendStr16(b, s)
	}
	return FinishFrame(b, start)
}

// AppendEvalRequest appends a complete KindEval request frame.
func AppendEvalRequest(b []byte, id uint64, timeoutMS uint32, dst, expr string) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindEval)
	b = appendU32(b, timeoutMS)
	b = appendStr16(b, dst)
	b = appendStr16(b, expr)
	return FinishFrame(b, start)
}

// AppendArithRequest appends a complete KindArith request frame. y is
// empty for unary operations, mask for unmasked ones.
func AppendArithRequest(b []byte, id uint64, op uint8, timeoutMS uint32, dst, x, y, mask string) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindArith)
	b = append(b, op)
	b = appendU32(b, timeoutMS)
	b = appendStr16(b, dst)
	b = appendStr16(b, x)
	b = appendStr16(b, y)
	b = appendStr16(b, mask)
	return FinishFrame(b, start)
}

// AppendPutVertRequest appends a complete KindPutVert request frame
// storing width-bit elements.
func AppendPutVertRequest(b []byte, id uint64, name string, width int, elems []uint64) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindPutVert)
	b = appendStr16(b, name)
	b = append(b, byte(width))
	b = AppendWords(b, elems)
	return FinishFrame(b, start)
}

// AppendGetVertRequest appends a complete KindGetVert request frame.
func AppendGetVertRequest(b []byte, id uint64, name string) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindGetVert)
	b = appendStr16(b, name)
	return FinishFrame(b, start)
}

// AppendQueryRequest appends a complete KindQuery request frame. cursor
// and limit only matter in QueryPositions mode (a zero limit asks for the
// server's default page size).
func AppendQueryRequest(b []byte, id uint64, timeoutMS uint32, namespace, predicate string, mode uint8, cursor uint64, limit uint32) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindQuery)
	b = appendU32(b, timeoutMS)
	b = appendStr16(b, namespace)
	b = appendStr16(b, predicate)
	b = append(b, mode)
	b = appendU64(b, cursor)
	b = appendU32(b, limit)
	return FinishFrame(b, start)
}

// AppendStatsRequest appends a complete KindStats request frame.
func AppendStatsRequest(b []byte, id uint64) []byte {
	start := len(b)
	b = BeginFrame(b, id, KindStats)
	return FinishFrame(b, start)
}

// AppendErrorPayload appends a non-OK response payload: retry_after_ms
// u32 + message str16 (the message is clipped to fit a str16).
func AppendErrorPayload(b []byte, retryAfterMS uint32, msg string) []byte {
	if len(msg) > maxString {
		msg = msg[:maxString]
	}
	b = appendU32(b, retryAfterMS)
	return appendStr16(b, msg)
}

// DecodeErrorPayload decodes a non-OK response payload into a
// StatusError carrying the given status code.
func DecodeErrorPayload(code uint8, payload []byte) *StatusError {
	e := &StatusError{Code: code}
	d := decoder{b: payload}
	e.RetryAfterMS = d.u32()
	if msg, ok := d.str16Bytes(); ok {
		e.Msg = string(msg)
	}
	return e
}

// decoder walks a frame with explicit bounds checks: every read either
// returns the value or sets err, and nothing ever indexes past len(b).
type decoder struct {
	b   []byte
	off int
	err error
}

// fail records the first error.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = malformedf(format, args...)
	}
}

// take returns the next n bytes, or nil after recording truncation.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// u8 reads one byte.
func (d *decoder) u8() uint8 {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// u16 reads a little-endian uint16.
func (d *decoder) u16() uint16 {
	v := d.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

// u32 reads a little-endian uint32.
func (d *decoder) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

// u64 reads a little-endian uint64.
func (d *decoder) u64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// stats reads a 48-byte stats block.
func (d *decoder) stats() Stats {
	st, _ := DecodeStats(d.take(statsWireLen)) // take records a short block
	return st
}

// wordBytes reads a word payload (u32 count + raw LE words) and returns
// the words' raw bytes (aliasing d.b).
func (d *decoder) wordBytes() []byte { return d.take(int(d.u32()) * 8) }

// str16Bytes reads a str16 and returns its byte view (aliasing d.b).
func (d *decoder) str16Bytes() ([]byte, bool) {
	n := d.u16()
	v := d.take(int(n))
	if d.err != nil {
		return nil, false
	}
	return v, true
}

// done checks that the frame was consumed exactly.
func (d *decoder) done() {
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes after payload", len(d.b)-d.off)
	}
}

// internFunc converts a decoded byte view into a string. The serving loop
// passes a per-connection interner so repeated names cost zero
// allocations in steady state; nil falls back to a plain copy.
type internFunc func([]byte) string

// rawString is the nil-interner fallback.
func rawString(b []byte) string { return string(b) }

// DecodeRequest decodes one request frame body (id + kind + payload —
// everything after the uint32 length word) into req, which is reset
// first. String fields are produced through intern (nil means plain
// copies); WordData aliases frame. Every malformed input returns an
// error tagged ErrMalformed; DecodeRequest never panics and never reads
// outside frame.
func DecodeRequest(frame []byte, req *Request, intern internFunc) error {
	req.reset()
	if intern == nil {
		intern = rawString
	}
	if len(frame) < headerLen {
		return malformedf("frame body is %d bytes, want at least %d", len(frame), headerLen)
	}
	d := decoder{b: frame}
	req.ID = d.u64()
	req.Kind = d.u8()
	switch req.Kind {
	case KindPing, KindStats:
		// Empty payload.
	case KindPut:
		name, _ := d.str16Bytes()
		bits := d.u32()
		nwords := d.u32()
		if d.err == nil && (bits == 0 || bits > MaxBits) {
			d.fail("put bits %d out of range [1, %d]", bits, MaxBits)
		}
		if d.err == nil && nwords != 0 && int(nwords) != (int(bits)+63)/64 {
			d.fail("put declares %d words for %d bits, want 0 or %d", nwords, bits, (int(bits)+63)/64)
		}
		data := d.take(int(nwords) * 8)
		if d.err == nil {
			if len(name) == 0 {
				d.fail("put name must not be empty")
			}
			req.Name = intern(name)
			req.Bits = int(bits)
			req.WordData = data
		}
	case KindGet, KindDelete, KindGetVert:
		name, ok := d.str16Bytes()
		if ok && len(name) == 0 {
			d.fail("vector name must not be empty")
		}
		if d.err == nil {
			req.Name = intern(name)
		}
	case KindPutVert:
		name, _ := d.str16Bytes()
		width := d.u8()
		elems := d.u32()
		if d.err == nil && (width == 0 || width > 64) {
			d.fail("put_vert element width %d out of range [1, 64]", width)
		}
		if d.err == nil && elems == 0 {
			d.fail("put_vert needs at least one element")
		}
		data := d.take(int(elems) * 8)
		if d.err == nil {
			if len(name) == 0 {
				d.fail("put_vert name must not be empty")
			} else {
				req.Name = intern(name)
				req.ElemWidth = int(width)
				req.WordData = data
			}
		}
	case KindArith:
		req.Op = d.u8()
		req.TimeoutMS = d.u32()
		dst, _ := d.str16Bytes()
		x, _ := d.str16Bytes()
		y, _ := d.str16Bytes()
		mask, _ := d.str16Bytes()
		if d.err == nil {
			if len(dst) == 0 || len(x) == 0 {
				d.fail("arith needs dst and x")
			} else {
				req.Dst = intern(dst)
				req.X = intern(x)
				if len(y) > 0 {
					req.Y = intern(y)
				}
				if len(mask) > 0 {
					req.Mask = intern(mask)
				}
			}
		}
	case KindOp:
		req.Op = d.u8()
		req.TimeoutMS = d.u32()
		dst, _ := d.str16Bytes()
		x, _ := d.str16Bytes()
		y, _ := d.str16Bytes()
		if d.err == nil {
			if len(dst) == 0 || len(x) == 0 {
				d.fail("op needs dst and x")
			} else {
				req.Dst = intern(dst)
				req.X = intern(x)
				if len(y) > 0 {
					req.Y = intern(y)
				}
			}
		}
	case KindReduce:
		req.Op = d.u8()
		req.TimeoutMS = d.u32()
		dst, _ := d.str16Bytes()
		n := d.u16()
		if d.err == nil && len(dst) == 0 {
			d.fail("reduce needs dst")
		}
		if d.err == nil && n < 2 {
			d.fail("reduce needs at least two srcs, got %d", n)
		}
		for i := 0; d.err == nil && i < int(n); i++ {
			src, ok := d.str16Bytes()
			if ok && len(src) == 0 {
				d.fail("reduce src %d must not be empty", i)
			}
			if d.err == nil {
				req.Srcs = append(req.Srcs, intern(src))
			}
		}
		if d.err == nil {
			req.Dst = intern(dst)
		}
	case KindEval:
		req.TimeoutMS = d.u32()
		dst, _ := d.str16Bytes()
		expr, _ := d.str16Bytes()
		if d.err == nil {
			if len(dst) == 0 || len(expr) == 0 {
				d.fail("eval needs dst and expr")
			} else {
				req.Dst = intern(dst)
				req.Expr = intern(expr)
			}
		}
	case KindQuery:
		req.TimeoutMS = d.u32()
		ns, _ := d.str16Bytes()
		pred, _ := d.str16Bytes()
		mode := d.u8()
		cursor := d.u64()
		limit := d.u32()
		if d.err == nil && mode > QueryPositions {
			d.fail("unknown query mode %d", mode)
		}
		if d.err == nil {
			if len(ns) == 0 || len(pred) == 0 {
				d.fail("query needs namespace and predicate")
			} else {
				req.Name = intern(ns)
				req.Expr = intern(pred)
				req.Mode = mode
				req.Cursor = cursor
				req.Limit = limit
			}
		}
	default:
		d.fail("unknown request kind 0x%02x", req.Kind)
	}
	d.done()
	if d.err != nil {
		req.Srcs = req.Srcs[:0]
		return d.err
	}
	return nil
}

// EncodeRequest appends the complete frame for req to b — the inverse of
// DecodeRequest, used by the round-trip fuzz target and the client.
func EncodeRequest(b []byte, req *Request) []byte {
	switch req.Kind {
	case KindPing:
		return AppendPingRequest(b, req.ID)
	case KindStats:
		return AppendStatsRequest(b, req.ID)
	case KindPut:
		start := len(b)
		b = BeginFrame(b, req.ID, KindPut)
		b = appendStr16(b, req.Name)
		b = appendU32(b, uint32(req.Bits))
		b = appendU32(b, uint32(len(req.WordData)/8))
		b = append(b, req.WordData...)
		return FinishFrame(b, start)
	case KindGet:
		return AppendGetRequest(b, req.ID, req.Name)
	case KindDelete:
		return AppendDeleteRequest(b, req.ID, req.Name)
	case KindGetVert:
		return AppendGetVertRequest(b, req.ID, req.Name)
	case KindPutVert:
		start := len(b)
		b = BeginFrame(b, req.ID, KindPutVert)
		b = appendStr16(b, req.Name)
		b = append(b, byte(req.ElemWidth))
		b = appendU32(b, uint32(len(req.WordData)/8))
		b = append(b, req.WordData...)
		return FinishFrame(b, start)
	case KindArith:
		return AppendArithRequest(b, req.ID, req.Op, req.TimeoutMS, req.Dst, req.X, req.Y, req.Mask)
	case KindOp:
		return AppendOpRequest(b, req.ID, req.Op, req.TimeoutMS, req.Dst, req.X, req.Y)
	case KindReduce:
		return AppendReduceRequest(b, req.ID, req.Op, req.TimeoutMS, req.Dst, req.Srcs)
	case KindEval:
		return AppendEvalRequest(b, req.ID, req.TimeoutMS, req.Dst, req.Expr)
	case KindQuery:
		return AppendQueryRequest(b, req.ID, req.TimeoutMS, req.Name, req.Expr, req.Mode, req.Cursor, req.Limit)
	default:
		start := len(b)
		b = BeginFrame(b, req.ID, req.Kind)
		return FinishFrame(b, start)
	}
}
