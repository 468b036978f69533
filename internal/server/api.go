package server

import (
	"encoding/base64"
	"encoding/binary"
	"math/bits"
	"strings"

	elp2im "repro"
	"repro/internal/vertical"
)

// This file defines the JSON wire shapes of the elpd HTTP API. The field
// names are a stable contract: dashboards and clients key on them, so the
// round-trip regression test in api_test.go pins the exact key set —
// renaming a tag is a breaking change and must fail that test.

// VectorPayload is the wire form of a named bulk bit-vector (PUT body and
// GET response of /v1/vectors/{name}).
type VectorPayload struct {
	// Name is the vector's store key (response only; ignored on PUT, where
	// the URL names the vector).
	Name string `json:"name,omitempty"`
	// Bits is the vector length in bits.
	Bits int `json:"bits"`
	// Data is the vector contents: standard base64 of ceil(bits/8) bytes,
	// little-endian within each byte (bit i of the vector is bit i%8 of
	// byte i/8). Empty on PUT means all-zero.
	Data string `json:"data,omitempty"`
	// Popcount is the number of set bits (response only).
	Popcount *int `json:"popcount,omitempty"`
	// ElemWidth, when nonzero, marks a vertical (bit-sliced) vector of
	// elem_width-bit integer elements (1..64). A vertical PUT carries
	// ElemWidth and Elems only (Bits and Data must be absent); a GET of a
	// vertical vector answers with ElemWidth, Elems, and Bits set to the
	// total payload (elements × width).
	ElemWidth int `json:"elem_width,omitempty"`
	// Elems is a vertical vector's element payload: standard base64 of
	// 8 bytes per element, little-endian uint64 values, each < 2^elem_width.
	Elems string `json:"elems,omitempty"`
}

// VectorInfo is one row of the GET /v1/vectors listing.
type VectorInfo struct {
	// Name is the vector's store key.
	Name string `json:"name"`
	// Bits is the vector length in bits.
	Bits int `json:"bits"`
	// Shard is the vector's home shard (always 0 on a single-module
	// server): the shard whose gate admits, and whose accelerator
	// executes, operations writing this vector.
	Shard int `json:"shard"`
	// Elems is a vertical vector's element count (absent for plain bit
	// vectors).
	Elems int `json:"elems,omitempty"`
	// ElemWidth is a vertical vector's element width in bits (absent for
	// plain bit vectors).
	ElemWidth int `json:"elem_width,omitempty"`
}

// ListResponse is the GET /v1/vectors response.
type ListResponse struct {
	// Vectors lists every stored vector, sorted by name.
	Vectors []VectorInfo `json:"vectors"`
}

// OpRequest is the POST /v1/op body: dst = op(x, y), y omitted for the
// unary not/copy.
type OpRequest struct {
	// Op is the operation mnemonic: not, and, or, nand, nor, xor, xnor,
	// copy (case-insensitive).
	Op string `json:"op"`
	// Dst names the destination vector; if absent it is created with x's
	// length, and only becomes visible once the operation succeeds.
	Dst string `json:"dst"`
	// X names the first operand.
	X string `json:"x"`
	// Y names the second operand (binary ops only).
	Y string `json:"y,omitempty"`
}

// ReduceRequest is the POST /v1/reduce body:
// dst = srcs[0] op srcs[1] op ... (and/or only).
type ReduceRequest struct {
	// Op is "and" or "or".
	Op string `json:"op"`
	// Dst names the destination vector; if absent it is created with
	// srcs[0]'s length, and only becomes visible once the operation
	// succeeds.
	Dst string `json:"dst"`
	// Srcs names the operands, at least two.
	Srcs []string `json:"srcs"`
}

// EvalRequest is the POST /v1/eval body: evaluate a boolean expression
// over stored vectors and store the result under dst.
type EvalRequest struct {
	// Expr is the expression source (& | ^ ~ and parentheses over stored
	// vector names).
	Expr string `json:"expr"`
	// Dst names the vector the result is stored under.
	Dst string `json:"dst"`
}

// ArithRequest is the POST /v1/arith body: dst = op(x, y) over stored
// vertical vectors, with the result stored under dst as a vertical
// vector of the operation's output width.
type ArithRequest struct {
	// Op is the vertical-arithmetic mnemonic: add, sub, lt, le, eq, lts,
	// les, popcount, select.
	Op string `json:"op"`
	// Dst names the destination; it is created (or replaced) with the
	// result once the operation succeeds.
	Dst string `json:"dst"`
	// X names the first vertical operand.
	X string `json:"x"`
	// Y names the second vertical operand (omitted for the unary
	// popcount).
	Y string `json:"y,omitempty"`
	// Mask names a plain bit vector selecting per element (select only):
	// element i takes x when bit i is set, y otherwise.
	Mask string `json:"mask,omitempty"`
}

// QueryRequest is the POST /v1/query body: evaluate a boolean predicate
// over the bitmap indices of a namespace. Indices are stored as vectors
// named "<namespace>/<index>" (PUT /v1/vectors/{namespace}/{index}), and
// the predicate references them by bare index name.
type QueryRequest struct {
	// Namespace scopes the predicate's index names.
	Namespace string `json:"namespace"`
	// Predicate is the boolean expression source (& | ^ ~ and
	// parentheses over index names in the namespace).
	Predicate string `json:"predicate"`
	// Mode selects the result shape: "count" (the default), "bits", or
	// "positions".
	Mode string `json:"mode,omitempty"`
	// Cursor is the bit position pagination resumes from (positions mode;
	// pass the previous response's next_cursor).
	Cursor int `json:"cursor,omitempty"`
	// Limit bounds the positions page size (positions mode; zero selects
	// the server default of 4096, capped at 65536).
	Limit int `json:"limit,omitempty"`
}

// QueryResponse is the POST /v1/query response. Bits and Count are
// always present; Data and Positions/NextCursor appear per mode.
type QueryResponse struct {
	// Stats is the predicate evaluation's modeled cost.
	Stats StatsJSON `json:"stats"`
	// Bits is the namespace's universe width.
	Bits int `json:"bits"`
	// Count is the match cardinality.
	Count int `json:"count"`
	// Data is the match bitvector (bits mode only), encoded exactly like
	// VectorPayload.Data.
	Data string `json:"data,omitempty"`
	// Positions are the page's set-bit positions in ascending order
	// (positions mode; absent when the page holds no matches).
	Positions []int `json:"positions,omitempty"`
	// NextCursor resumes pagination (positions mode): pass it as the next
	// request's cursor. Zero (absent) means the page reached the last
	// match.
	NextCursor int `json:"next_cursor,omitempty"`
}

// StatsJSON is the stable wire form of elp2im.Stats.
type StatsJSON struct {
	// LatencyNS is the modeled latency in nanoseconds.
	LatencyNS float64 `json:"latency_ns"`
	// EnergyNJ is the modeled energy in nanojoules.
	EnergyNJ float64 `json:"energy_nj"`
	// AveragePowerW is EnergyNJ / LatencyNS.
	AveragePowerW float64 `json:"average_power_w"`
	// RowOps is the number of row-wide operations executed.
	RowOps int `json:"row_ops"`
	// Commands is the number of DRAM command primitives issued.
	Commands int `json:"commands"`
	// Wordlines is the total number of wordlines raised.
	Wordlines int `json:"wordlines"`
}

// statsJSON converts the facade's Stats into the wire shape.
func statsJSON(st elp2im.Stats) StatsJSON {
	return StatsJSON{
		LatencyNS:     st.LatencyNS,
		EnergyNJ:      st.EnergyNJ,
		AveragePowerW: st.AveragePowerW,
		RowOps:        st.RowOps,
		Commands:      st.Commands,
		Wordlines:     st.Wordlines,
	}
}

// OpResponse is the response body of /v1/op, /v1/reduce and /v1/eval.
type OpResponse struct {
	// Stats is the modeled cost of the operation.
	Stats StatsJSON `json:"stats"`
	// Bits is the result vector's length (eval only, where the result
	// vector is created by the expression).
	Bits int `json:"bits,omitempty"`
	// Elems is the result's element count (arith only).
	Elems int `json:"elems,omitempty"`
	// ElemWidth is the result's element width in bits (arith only).
	ElemWidth int `json:"elem_width,omitempty"`
}

// ServerStats is the serving-layer section of the /v1/stats payload.
type ServerStats struct {
	// QueueDepth is the number of requests currently in flight.
	QueueDepth int64 `json:"queue_depth"`
	// QueueMax is the configured in-flight bound (Config.MaxQueue, summed
	// over shards).
	QueueMax int64 `json:"queue_max"`
	// Rejected counts requests refused with 503 by admission control.
	Rejected int64 `json:"rejected"`
	// DeadlineExpired counts requests whose deadline expired before they
	// executed (504).
	DeadlineExpired int64 `json:"deadline_expired"`
	// BatchesFlushed counts executed op/reduce requests. Each executes
	// on its own, as one flush of one request.
	BatchesFlushed int64 `json:"batches_flushed"`
	// RequestsCoalesced counts executed op/reduce requests; it equals
	// BatchesFlushed.
	RequestsCoalesced int64 `json:"requests_coalesced"`
	// Panics counts handler panics converted to 500s.
	Panics int64 `json:"panics"`
	// WireFlushes counts response write-path flushes on the elpwire
	// listener — one writev syscall each; see WireFramesPerFlush.
	WireFlushes int64 `json:"wire_flushes"`
	// WireFramesPerFlush is the mean number of response frames coalesced
	// into one wire flush. 1.0 means every response paid its own
	// syscall (idle connections); values above 1 mean loaded connections
	// are amortizing writes.
	WireFramesPerFlush float64 `json:"wire_frames_per_flush"`
	// FusionHits counts eval/query plans that executed on the fused-kernel
	// tier, summed across shard accelerators.
	FusionHits int64 `json:"fusion_hits"`
	// FusionFallbacks counts eval/query plans that ran on the
	// command-accurate model instead. A nonzero rate is expected on an
	// accelerator with an executor installed (Accelerator.SetExecutor);
	// otherwise it means predicates are not inheriting the fused tier.
	FusionFallbacks int64 `json:"fusion_fallbacks"`
	// Vectors is the number of stored vectors.
	Vectors int `json:"vectors"`
	// Draining reports whether the server is shutting down.
	Draining bool `json:"draining"`
	// Shards is the number of independent shards the server routes across
	// (1 for a single-module server). The admission counters above
	// aggregate over all of them.
	Shards int `json:"shards"`
	// PerShard breaks the admission counters out per home shard (only
	// present when Shards > 1).
	PerShard []ShardStats `json:"per_shard,omitempty"`
}

// ShardStats is one shard's slice of the serving-layer counters plus its
// modeled execution load.
type ShardStats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// QueueDepth is the number of requests in flight on the shard.
	QueueDepth int64 `json:"queue_depth"`
	// Rejected counts requests this shard refused with 503.
	Rejected int64 `json:"rejected"`
	// DeadlineExpired counts this shard's 504s.
	DeadlineExpired int64 `json:"deadline_expired"`
	// BatchesFlushed counts the shard's executed op/reduce requests.
	BatchesFlushed int64 `json:"batches_flushed"`
	// RequestsCoalesced equals BatchesFlushed.
	RequestsCoalesced int64 `json:"requests_coalesced"`
	// Vectors is the number of stored vectors homed on this shard.
	Vectors int `json:"vectors"`
	// Draining reports whether this shard's gate is draining.
	Draining bool `json:"draining"`
	// ModeledBusyNS is the accumulated modeled latency executed on this
	// shard's accelerator. Shards execute concurrently (private charge
	// pumps and tFAW windows), so the modeled makespan of a run is the MAX
	// over shards, not the sum — dividing completed operations by it shows
	// the modeled hardware's throughput scaling with the shard count.
	ModeledBusyNS float64 `json:"modeled_busy_ns"`
}

// StatsPayload is the GET /v1/stats response: the accelerator identity and
// session totals plus the serving-layer counters, at a stable JSON shape.
type StatsPayload struct {
	// Design is the modeled design's name.
	Design string `json:"design"`
	// ReservedRows is the design's reserved-row count.
	ReservedRows int `json:"reserved_rows"`
	// Totals is the accumulated cost of every operation this session.
	Totals StatsJSON `json:"totals"`
	// Server is the serving-layer section.
	Server ServerStats `json:"server"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// parseOp maps a JSON op name onto the facade's Op, case-insensitively,
// through the wire op table, so both protocols share one op vocabulary.
func parseOp(s string) (elp2im.Op, error) {
	for _, op := range bitOps {
		if strings.EqualFold(s, op.String()) {
			return op, nil
		}
	}
	return 0, badRequestf("server: unknown op %q", s)
}

// EncodeBits renders a vector's contents in the wire format: base64 of
// ceil(bits/8) little-endian bytes. The server's responses stream the
// same bytes through writePayloadJSON instead.
func EncodeBits(v *elp2im.BitVector) string {
	raw := make([]byte, (v.Len()+7)/8)
	putLE(raw, v.Words())
	return base64.StdEncoding.EncodeToString(raw)
}

// putLE writes the first len(dst) little-endian bytes of words into dst
// (bit i of the words is bit i%8 of byte i/8): the byte order of the
// bit payload, and the inverse of bitsFromLE.
func putLE(dst []byte, words []uint64) {
	n := len(dst) / 8
	for i, w := range words[:n] {
		binary.LittleEndian.PutUint64(dst[8*i:], w)
	}
	for i := range dst[8*n:] {
		dst[8*n+i] = byte(words[n] >> (8 * i))
	}
}

// popcountWords counts the set bits across a word snapshot. Stored
// vectors keep their tail bits canonically zero, so this matches
// BitVector.Popcount over the same contents.
func popcountWords(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// DecodeBits parses the wire format back into a fresh vector of the given
// length. Stray bits beyond the length in the final byte are rejected.
func DecodeBits(data string, bits int) (*elp2im.BitVector, error) {
	if bits <= 0 {
		return nil, badRequestf("server: bits must be positive, got %d", bits)
	}
	raw, err := base64.StdEncoding.DecodeString(data)
	if err != nil {
		return nil, badRequestf("server: bad vector data: %v", err)
	}
	if want := (bits + 7) / 8; len(raw) != want {
		return nil, badRequestf("server: vector data is %d bytes, want %d for %d bits", len(raw), want, bits)
	}
	return bitsFromLE(raw, bits)
}

// bitsFromLE builds a bits-long vector from little-endian bytes (bit i is
// bit i%8 of byte i/8), the one builder behind both protocols' PUT. raw
// holds at most the vector's words; a short raw leaves the rest zero, and
// a bit set at or beyond the length is rejected.
func bitsFromLE(raw []byte, bits int) (*elp2im.BitVector, error) {
	v := elp2im.NewBitVector(bits)
	words := v.Words()
	n := len(raw) / 8
	for i := 0; i < n; i++ {
		words[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	for i, b := range raw[8*n:] {
		words[n] |= uint64(b) << (8 * i)
	}
	if rem := bits % 64; rem != 0 && words[len(words)-1]>>rem != 0 {
		return nil, badRequestf("server: vector data has bits set beyond length %d", bits)
	}
	return v, nil
}

// EncodeElems renders a vertical vector's element values in the wire
// format: base64 of 8 little-endian bytes per element.
func EncodeElems(elems []uint64) string {
	raw := make([]byte, 8*len(elems))
	for i, e := range elems {
		binary.LittleEndian.PutUint64(raw[i*8:], e)
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// DecodeElems parses the element wire format back into values.
func DecodeElems(data string) ([]uint64, error) {
	raw, err := decodeElemBytes(data)
	if err != nil {
		return nil, err
	}
	elems := make([]uint64, len(raw)/8)
	for i := range elems {
		elems[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return elems, nil
}

// decodeElemBytes parses the element wire format into its raw bytes, 8
// little-endian bytes per element, which the vertical PUT transposes
// from directly.
func decodeElemBytes(data string) ([]byte, error) {
	raw, err := base64.StdEncoding.DecodeString(data)
	if err != nil {
		return nil, badRequestf("server: bad element data: %v", err)
	}
	if len(raw) == 0 || len(raw)%8 != 0 {
		return nil, badRequestf("server: element data is %d bytes, want a positive multiple of 8", len(raw))
	}
	return raw, nil
}

// buildVertical transposes element values, stored as 8 little-endian
// bytes each in raw (a wire PutVert payload or a decoded JSON elems
// field), straight into a fresh vertical vector of the declared width.
// Elements with bits set at or above the width are rejected (mirroring
// DecodeBits' stray-bit strictness), so a GET always returns exactly
// what was PUT.
func buildVertical(raw []byte, width int) (*elp2im.Vertical, error) {
	if width < 1 || width > 64 {
		return nil, badRequestf("server: elem_width %d out of range [1, 64]", width)
	}
	v, err := elp2im.NewVertical(len(raw)/8, width)
	if err != nil {
		return nil, err
	}
	if i := vertical.SliceBytesInto(sliceWords(v), raw); i >= 0 {
		return nil, badRequestf("server: element %d has bits set beyond width %d", i, width)
	}
	return v, nil
}

// sliceWords returns the word storage of v's bit slices, in slice order,
// for the transpose engine.
func sliceWords(v *elp2im.Vertical) [][]uint64 {
	ws := make([][]uint64, v.Width())
	for j := range ws {
		ws[j] = v.Slice(j).Words()
	}
	return ws
}
