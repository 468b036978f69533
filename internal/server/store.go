package server

import (
	"sort"
	"sync"

	elp2im "repro"
)

// Store is the server's named bit-vector table. The map itself is guarded
// by mu; each entry additionally carries its own RWMutex so the contents
// of a vector can be pinned for the duration of one operation while
// unrelated vectors stay fully concurrent.
//
// The store is also where the serving layer's shard placement lives:
// every vector name maps deterministically onto one of the server's
// shards (shardOf, an FNV-1a hash of the name), and an operation executes
// on its destination's home shard. Placement is a pure function of the
// name and the shard count — no placement table to keep consistent, and
// any two servers with the same shard count agree on it.
//
// Lock ordering: mu is never held while acquiring an entry lock, and
// multi-entry lock sets are always acquired in ascending name order
// (see lockSet), so concurrent requests cannot deadlock.
type Store struct {
	shards int
	mu     sync.RWMutex
	m      map[string]*entry
}

// entry is one stored vector plus its content lock and home shard. The
// vec pointer is only replaced (PUT over an existing name) or read while
// holding mu of the entry, so a request that resolved and locked an
// entry owns the vector it saw until it unlocks.
//
// An entry holds either a plain bit vector (vec) or a vertical
// (bit-sliced integer) vector (vert) — exactly one of the two is non-nil,
// and a PUT of the other kind over the same name swaps the entry's kind
// under its lock. Both pointers follow the same locking rule as vec
// always has: replaced or read only under the entry's mu.
type entry struct {
	mu    sync.RWMutex
	name  string
	shard int
	vec   *elp2im.BitVector
	vert  *elp2im.Vertical
}

// NewStore returns an empty store placing vectors across the given number
// of shards (1 for a single-module server).
func NewStore(shards int) *Store {
	if shards < 1 {
		shards = 1
	}
	return &Store{shards: shards, m: make(map[string]*entry)}
}

// fnv64a constants (hash/fnv's, inlined so the per-request placement hash
// allocates neither the hash.Hash64 nor the []byte(name) conversion —
// shardOf sits on the wire path's zero-alloc dispatch loop).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64aString is FNV-1a over a string, bit-identical to hash/fnv over
// the same bytes (pinned by TestShardOfMatchesFNV).
func fnv64aString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// shardOf returns the home shard of the named vector: an FNV-1a hash of
// the name modulo the shard count. Deterministic, uniform for realistic
// name sets, and independent of insertion order.
func (s *Store) shardOf(name string) int {
	if s.shards == 1 {
		return 0
	}
	return int(fnv64aString(name) % uint64(s.shards))
}

// lookup returns the named entry, or nil when absent.
func (s *Store) lookup(name string) *entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[name]
}

// set stores vec under name, replacing any previous contents (see put).
func (s *Store) set(name string, vec *elp2im.BitVector) { s.put(name, vec, nil) }

// setVert stores a vertical vector under name, replacing any previous
// contents (see put). It returns the vertical it replaced (nil when there
// was none). Every reader of a vertical holds the entry's read lock, so
// once the swap lands no one else holds the old one: the caller owns it.
func (s *Store) setVert(name string, v *elp2im.Vertical) *elp2im.Vertical {
	return s.put(name, nil, v)
}

// put stores one of vec and vert under name and returns the vertical it
// replaced. A new name's entry is inserted already holding the vector,
// under the map lock, so no reader ever resolves a placeholder. An
// existing entry's contents (of either kind) are swapped under its lock,
// taken without holding the map lock (lock-ordering rule), so an
// in-flight operation that pinned the old vector finishes against it
// before the replacement lands.
func (s *Store) put(name string, vec *elp2im.BitVector, vert *elp2im.Vertical) *elp2im.Vertical {
	s.mu.Lock()
	e, ok := s.m[name]
	if !ok {
		s.m[name] = &entry{name: name, shard: s.shardOf(name), vec: vec, vert: vert}
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	e.mu.Lock()
	old := e.vert
	e.vec, e.vert = vec, vert
	e.mu.Unlock()
	return old
}

// adopt publishes a detached entry (a destination created by an
// operation that succeeded) under its name. When a concurrent PUT won the
// name in the meantime, the existing entry stays and only its vector is
// replaced — under the entry lock, per the locking invariant — so readers
// never hold a stale *entry.
func (s *Store) adopt(name string, e *entry) {
	s.mu.Lock()
	cur, ok := s.m[name]
	if !ok {
		e.shard = s.shardOf(name)
		s.m[name] = e
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	cur.mu.Lock()
	cur.vec, cur.vert = e.vec, nil
	cur.mu.Unlock()
}

// hasPrefix reports whether any stored name starts with prefix — the
// query path's namespace-existence probe, distinguishing an unknown
// namespace from an unknown index inside a live one.
func (s *Store) hasPrefix(prefix string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name := range s.m {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// remove deletes the named vector and reports whether it existed. An
// in-flight operation that already resolved the entry keeps the orphaned
// vector alive until it completes; its result is simply discarded. That
// is why a deleted vertical goes to the GC rather than to an
// accelerator's slice pool: a request that resolved the entry before the
// delete may still read it.
func (s *Store) remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[name]; !ok {
		return false
	}
	delete(s.m, name)
	return true
}

// list returns every stored vector's name and length, sorted by name.
// Vertical entries additionally report their element count and width;
// their Bits is the total stored payload (elements × width).
func (s *Store) list() []VectorInfo {
	s.mu.RLock()
	infos := make([]VectorInfo, 0, len(s.m))
	for _, e := range s.m {
		e.mu.RLock()
		info := VectorInfo{Name: e.name, Shard: e.shard}
		if e.vert != nil {
			info.Bits = e.vert.Len() * e.vert.Width()
			info.Elems = e.vert.Len()
			info.ElemWidth = e.vert.Width()
		} else {
			info.Bits = e.vec.Len()
		}
		e.mu.RUnlock()
		infos = append(infos, info)
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// size returns the number of stored vectors.
func (s *Store) size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// sizeByShard returns the stored-vector count per home shard.
func (s *Store) sizeByShard() []int {
	counts := make([]int, s.shards)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.m {
		counts[e.shard]++
	}
	return counts
}

// wordBufPool recycles GET-snapshot word buffers. The bit-vector GETs
// (JSON and wire) and the JSON vertical GET pin an entry only long
// enough to memcpy its words (a vertical's slices, one after another)
// into one of these buffers, then popcount, transpose, encode and write
// outside the lock — an op mutates stored vectors in place under the
// entry write lock and an arith recycles the vertical it replaces, so
// encoding directly from the live words outside the lock would race,
// while encoding under the lock would stall writers for the whole
// base64/frame build and, over JSON, for the response write.
var wordBufPool = sync.Pool{New: func() any {
	s := make([]uint64, 0, 1024)
	return &s
}}

// getWordBuf fetches an empty pooled word buffer.
func getWordBuf() *[]uint64 { return wordBufPool.Get().(*[]uint64) }

// putWordBuf recycles a snapshot buffer.
func putWordBuf(bp *[]uint64) {
	*bp = (*bp)[:0]
	wordBufPool.Put(bp)
}
