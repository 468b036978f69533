// Package wire is elpwire: the length-prefixed binary serving protocol
// for elpd's hot endpoints (op/reduce/eval/arith plus plain and vertical
// vector PUT/GET), carrying bit payloads as raw little-endian 64-bit
// words instead of JSON-encoded base64 text. It exists because BENCH_shards.json showed the modeled PIM
// hardware scaling 3.98× at 4 shards while achieved wall-clock QPS stayed
// flat: the HTTP/1+JSON path (text codecs, per-request allocations, one
// request in flight per connection) had become the bottleneck, not the
// accelerator. elpwire is the thin control path the bulk-bitwise-PIM
// papers assume — persistent connections, request-ID multiplexing so one
// connection pipelines many in-flight requests, and pooled buffers so the
// steady-state read→decode→dispatch→encode→write loop allocates nothing.
//
// # Frame layout
//
// Every message — request or response — is one frame:
//
//	offset 0  uint32 LE  n: byte length of the rest of the frame (≥ 9)
//	offset 4  uint64 LE  request id (echoed verbatim in the response)
//	offset 12 uint8      kind (request opcode) / status (response code)
//	offset 13 payload    n-9 bytes, layout per kind (see request docs)
//
// Integers are little-endian. Strings are a uint16 LE length followed by
// that many bytes of UTF-8. Bit payloads are a uint32 LE word count
// followed by count raw little-endian uint64 words (bit i of the vector
// is bit i%64 of word i/64 — the accelerator's native layout, so neither
// side re-packs anything). A vertical read-back likewise carries the
// stored bit slices as they are, and the client transposes them into
// elements (KindGetVert).
//
// The package is pure protocol: it knows nothing about the store or the
// accelerator. The serving side (ServeConn) executes decoded requests
// through a Backend and maps its errors onto response statuses through a
// caller-supplied classifier; internal/server provides both over the same
// store, request cores, admission gates and drain semantics as the
// HTTP/JSON path, and pins the two paths bit-for-bit equal in its
// differential tests.
package wire

import (
	"errors"
	"fmt"
)

// Request opcodes (the kind byte of a request frame), with their payload
// layouts. String fields are str16 (uint16 LE length + bytes); words are
// u32 LE count + count raw LE uint64s.
const (
	// KindPing is a no-op round trip: empty payload, empty OK response.
	KindPing uint8 = 0x01
	// KindPut stores a vector: name str16, bits u32, words. A zero word
	// count stores an all-zero vector of the given length; otherwise the
	// count must be exactly ceil(bits/64) and bits set beyond the length
	// in the final word are rejected. OK response: bits u32.
	KindPut uint8 = 0x02
	// KindGet fetches a vector: name str16. OK response: bits u32,
	// popcount u64, words.
	KindGet uint8 = 0x03
	// KindDelete removes a vector: name str16. OK response: empty.
	KindDelete uint8 = 0x04
	// KindOp executes dst = op(x, y): op u8, timeout_ms u32, dst str16,
	// x str16, y str16 (empty for the unary not/copy). OK response: Stats.
	KindOp uint8 = 0x05
	// KindReduce executes dst = srcs[0] op srcs[1] op ...: op u8,
	// timeout_ms u32, dst str16, count u16, count × str16. OK response:
	// Stats.
	KindReduce uint8 = 0x06
	// KindEval evaluates a boolean expression over stored vectors:
	// timeout_ms u32, dst str16, expr str16. OK response: Stats, bits u32.
	KindEval uint8 = 0x07
	// KindStats fetches the serving-layer stats: empty payload. OK
	// response: the UTF-8 JSON encoding of the HTTP /v1/stats payload,
	// byte-for-byte the same marshaling — so the two paths cannot drift.
	KindStats uint8 = 0x08
	// KindArith executes a vertical arithmetic operation dst = op(x, y)
	// over stored vertical (bit-sliced) vectors: op u8 (an Arith* code),
	// timeout_ms u32, dst str16, x str16, y str16 (empty for the unary
	// popcount), mask str16 (empty for unmasked operations). OK response:
	// Stats, elem_width u8, elems u32.
	KindArith uint8 = 0x09
	// KindPutVert stores a vertical vector: name str16, elem_width u8
	// (1..64), elems u32 (≥ 1), elems raw LE uint64 element values, each
	// < 2^elem_width. OK response: elems u32.
	KindPutVert uint8 = 0x0A
	// KindGetVert fetches a vertical vector in its stored bit-slice
	// layout: name str16. OK response: elem_width u8 (1..64), elems u32
	// (≥ 1), then elem_width bit slices, slice 0 first, each
	// ceil(elems/64) raw LE uint64 words with no count before it. Slice
	// j holds bit j of every element: bit j of element i is bit i%64 of
	// word i/64 of slice j, and the bits of a slice's last word at or
	// beyond elems are zero, so element i is the OR over j of that bit
	// shifted left by j. The server answers within the element form's
	// bound: a vector whose elems × 8 bytes would not fit a frame is
	// refused with StatusBadRequest, so a client may size its element
	// buffer from elems once it has checked elems × 8 ≤ DefaultMaxFrame.
	KindGetVert uint8 = 0x0B
	// KindQuery evaluates a boolean predicate over the bitmap indices of a
	// namespace: timeout_ms u32, namespace str16, predicate str16, mode u8
	// (a Query* code), cursor u64, limit u32 (positions mode only; zero
	// asks for the server default page size). OK response: Stats, bits u32
	// (the universe width), count u64 (the match cardinality), then per
	// mode — QueryCount: nothing further; QueryBits: the match bitvector
	// as words; QueryPositions: next_cursor u64 (zero when the page
	// exhausted the matches) followed by the page of set-bit positions as
	// words.
	KindQuery uint8 = 0x0C
)

// Query result modes carried in the mode byte of KindQuery requests. Like
// the Bit* codes, the values are a stable protocol contract, pinned to the
// JSON path's mode strings by a test in internal/server.
const (
	// QueryCount returns only the match cardinality.
	QueryCount uint8 = 0
	// QueryBits returns the whole match bitvector.
	QueryBits uint8 = 1
	// QueryPositions returns a cursor/limit page of set-bit positions.
	QueryPositions uint8 = 2
)

// Response status codes (the kind byte of a response frame). StatusOK
// responses carry the per-opcode payload documented on the Kind
// constants; every other status is an error whose payload is
// retry_after_ms u32 followed by a human-readable message str16. The
// codes mirror the HTTP/JSON path's status classes one-for-one —
// internal/server pins the sentinel-error → wire-status mapping next to
// its HTTP TestErrorStatusContract.
const (
	// StatusOK is a successful response.
	StatusOK uint8 = 0x00
	// StatusBadRequest mirrors HTTP 400: request validation failed.
	StatusBadRequest uint8 = 0x01
	// StatusNotFound mirrors HTTP 404: an operand vector is not stored.
	StatusNotFound uint8 = 0x02
	// StatusSaturated mirrors HTTP 503 + Retry-After for a full admission
	// queue; retry_after_ms carries the backoff hint.
	StatusSaturated uint8 = 0x03
	// StatusDraining mirrors HTTP 503 + Retry-After during graceful
	// shutdown.
	StatusDraining uint8 = 0x04
	// StatusDeadline mirrors HTTP 504: the request deadline expired.
	StatusDeadline uint8 = 0x05
	// StatusCanceled mirrors 499: the client went away mid-request.
	StatusCanceled uint8 = 0x06
	// StatusInternal mirrors HTTP 500: an unrecognized server fault.
	StatusInternal uint8 = 0x07
)

// Bitwise-operation codes carried in the op byte of KindOp/KindReduce
// requests. The values are a stable protocol contract, pinned to the
// facade's op set by a test in internal/server.
const (
	// BitNot is the unary complement.
	BitNot uint8 = 0
	// BitAnd is bulk AND.
	BitAnd uint8 = 1
	// BitOr is bulk OR.
	BitOr uint8 = 2
	// BitNand is bulk NAND.
	BitNand uint8 = 3
	// BitNor is bulk NOR.
	BitNor uint8 = 4
	// BitXor is bulk XOR.
	BitXor uint8 = 5
	// BitXnor is bulk XNOR.
	BitXnor uint8 = 6
	// BitCopy is the unary row copy.
	BitCopy uint8 = 7
)

// Vertical-arithmetic operation codes carried in the op byte of KindArith
// requests. Like the Bit* codes, the values are a stable protocol
// contract, pinned to the facade's ArithOp set by a test in
// internal/server.
const (
	// ArithAdd is z = (x + y) mod 2^w.
	ArithAdd uint8 = 0
	// ArithSub is z = (x - y) mod 2^w.
	ArithSub uint8 = 1
	// ArithLt is the unsigned compare z = (x < y).
	ArithLt uint8 = 2
	// ArithLe is the unsigned compare z = (x <= y).
	ArithLe uint8 = 3
	// ArithEq is the equality compare z = (x == y).
	ArithEq uint8 = 4
	// ArithLts is the signed compare z = (x < y).
	ArithLts uint8 = 5
	// ArithLes is the signed compare z = (x <= y).
	ArithLes uint8 = 6
	// ArithPopcount counts each element's set bits (unary).
	ArithPopcount uint8 = 7
	// ArithSelect is the masked blend z = m ? x : y.
	ArithSelect uint8 = 8
)

// Frame-geometry constants.
const (
	// headerLen is the fixed request-id + kind prefix of every frame body
	// (the uint32 length word is not part of the body it counts).
	headerLen = 9
	// frameLenSize is the uint32 length word preceding every frame body.
	frameLenSize = 4
	// DefaultMaxFrame bounds the frame bodies a connection accepts and
	// sends (64 MiB: a 512-Mbit vector payload or an 8 Mi-element
	// vertical one, far beyond the JSON path's 16 MiB body cap). A
	// response that would outgrow the limit is answered in band with
	// StatusBadRequest naming it, so the connection stays usable.
	DefaultMaxFrame = 64 << 20
	// MaxBits bounds the vector length a KindPut may declare (and the
	// JSON PUT's bits), so a tiny hostile request cannot demand a
	// multi-gigabyte allocation. It is deliberately above what one
	// DefaultMaxFrame frame carries (2^30 bits is 128 MiB of words):
	// such a vector can be stored and computed on, but a KindGet of it
	// answers StatusBadRequest rather than an oversized frame.
	MaxBits = 1 << 30
	// maxString bounds str16 fields by construction.
	maxString = 1<<16 - 1
)

// ErrMalformed tags every decode failure: truncated frames, oversize
// declarations, trailing garbage, or field values that violate the
// protocol. Handlers map it to StatusBadRequest; it is the fuzz targets'
// contract that malformed input yields this tag and never a panic or an
// over-read.
var ErrMalformed = errors.New("wire: malformed frame")

// ErrFrameTooLarge tags a frame whose length exceeds the connection's
// limit. For a request frame the serving loop closes the connection,
// since the remaining stream cannot be trusted to be framed; a response
// frame is never sent oversized — the request is answered with
// StatusBadRequest instead (see Response.Extend).
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// malformedf builds an ErrMalformed-tagged error.
func malformedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// Stats is the wire form of an operation's modeled cost, mirroring the
// JSON path's stats block field-for-field (48 bytes on the wire: three
// float64s then three uint64s, little-endian).
type Stats struct {
	// LatencyNS is the modeled latency in nanoseconds.
	LatencyNS float64
	// EnergyNJ is the modeled energy in nanojoules.
	EnergyNJ float64
	// AveragePowerW is EnergyNJ / LatencyNS.
	AveragePowerW float64
	// RowOps is the number of row-wide operations executed.
	RowOps uint64
	// Commands is the number of DRAM command primitives issued.
	Commands uint64
	// Wordlines is the total number of wordlines raised.
	Wordlines uint64
}

// statsWireLen is the encoded size of Stats.
const statsWireLen = 48

// Request is one decoded request frame. String fields and WordData alias
// (or are interned from) the frame buffer they were decoded from, so a
// Request is only valid until its frame buffer is recycled — the serving
// loop guarantees the buffer outlives the Backend.Handle call, and
// anything retained beyond that (vector contents, names entering the
// store) must be copied, which storing them naturally does.
type Request struct {
	// ID is the request id, echoed in the response frame.
	ID uint64
	// Kind is the opcode.
	Kind uint8
	// Op is the bitwise-operation code (KindOp/KindReduce).
	Op uint8
	// TimeoutMS is the per-request deadline in milliseconds; zero defers
	// to the server's configured default.
	TimeoutMS uint32
	// Name is the vector name (KindPut/KindGet/KindDelete) or the
	// namespace (KindQuery).
	Name string
	// Dst is the destination vector name (KindOp/KindReduce/KindEval).
	Dst string
	// X is the first operand (KindOp).
	X string
	// Y is the second operand (KindOp/KindArith, empty for unary ops).
	Y string
	// Mask is the mask vector name (KindArith, empty for unmasked ops).
	Mask string
	// Srcs are the reduction operands (KindReduce).
	Srcs []string
	// Expr is the expression source (KindEval) or the predicate source
	// (KindQuery).
	Expr string
	// Bits is the declared vector length (KindPut).
	Bits int
	// ElemWidth is the declared element width in bits (KindPutVert).
	ElemWidth int
	// Mode is the result mode (KindQuery, a Query* code).
	Mode uint8
	// Cursor is the resume position for paginated results (KindQuery,
	// positions mode).
	Cursor uint64
	// Limit is the page-size bound for paginated results (KindQuery,
	// positions mode; zero defers to the server default).
	Limit uint32
	// WordData is the raw little-endian word payload of a KindPut (8 bytes
	// per word, ceil(Bits/64) words, or empty for an all-zero vector) or
	// the element payload of a KindPutVert (8 bytes per element). It
	// aliases the frame buffer; copy before retaining.
	WordData []byte
}

// reset clears a Request for reuse, keeping the Srcs backing array.
func (r *Request) reset() {
	r.ID, r.Kind, r.Op, r.TimeoutMS = 0, 0, 0, 0
	r.Name, r.Dst, r.X, r.Y, r.Mask, r.Expr = "", "", "", "", "", ""
	r.Srcs = r.Srcs[:0]
	r.Bits, r.ElemWidth = 0, 0
	r.Mode, r.Cursor, r.Limit = 0, 0, 0
	r.WordData = nil
}

// WordCount returns the number of 64-bit words in WordData.
func (r *Request) WordCount() int { return len(r.WordData) / 8 }

// StatusError is the client-side form of a non-OK response: the wire
// status, the server's backoff hint (saturated/draining only), and the
// human-readable message from the error payload.
type StatusError struct {
	// Code is the response status (StatusBadRequest ... StatusInternal).
	Code uint8
	// RetryAfterMS is the server's backoff hint in milliseconds, nonzero
	// only for StatusSaturated/StatusDraining.
	RetryAfterMS uint32
	// Msg is the server's failure description.
	Msg string
}

// Error renders the status and message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("wire: status %s: %s", StatusName(e.Code), e.Msg)
}

// StatusName returns a human-readable name for a response status code.
func StatusName(code uint8) string {
	switch code {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad_request"
	case StatusNotFound:
		return "not_found"
	case StatusSaturated:
		return "saturated"
	case StatusDraining:
		return "draining"
	case StatusDeadline:
		return "deadline"
	case StatusCanceled:
		return "canceled"
	case StatusInternal:
		return "internal"
	default:
		return fmt.Sprintf("unknown(%d)", code)
	}
}
