package kernel

// The word loops every compiled kernel runs. A loop streams its operands
// once over len(dst) words: it reslices them to that length up front, so
// the compiler proves most indexes in range, and computes four words per
// iteration before a one-word tail. Each word depends only on the same
// word of the operands, so dst may alias any operand. A loop reads only
// the operands its expression names; callers pass any slice (even nil)
// for the others.
//
// There are two sets: gateLoops, one loop per 4-entry truth table (the
// 2-input Kernel's loop, and the one-gate pass of a fused kernel), and
// twoLevel, one loop per two-level composition of the associative cores
// AND, OR and XOR (the multi-gate passes Fused.pack tiles).

// wordLoop is one word loop over up to four operands.
type wordLoop func(dst, a, b, c, d []uint64)

// Core operations of the two-level loops. coreBare marks a child that is
// a bare operand rather than a gate.
const (
	coreAnd = iota
	coreOr
	coreXor
	coreBare
)

// coreTabs maps each core to its 4-entry truth table (bit i =
// f(a=i&1, b=i>>1&1)).
var coreTabs = [3]uint8{coreAnd: 0b1000, coreOr: 0b1110, coreXor: 0b0110}

// gateLoops[t] computes dst = t(a, b) for the 4-entry truth table t (bit
// i = t(a=i&1, b=i>>1&1)).
var gateLoops = [16]wordLoop{
	0b0000: func(dst, _, _, _, _ []uint64) { clear(dst) },
	0b0001: func(dst, a, b, _, _ []uint64) { // NOR
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = ^(a[i] | b[i])
			dst[i+1] = ^(a[i+1] | b[i+1])
			dst[i+2] = ^(a[i+2] | b[i+2])
			dst[i+3] = ^(a[i+3] | b[i+3])
		}
		for ; i < n; i++ {
			dst[i] = ^(a[i] | b[i])
		}
	},
	0b0010: func(dst, a, b, _, _ []uint64) { // a AND NOT b
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = a[i] &^ b[i]
			dst[i+1] = a[i+1] &^ b[i+1]
			dst[i+2] = a[i+2] &^ b[i+2]
			dst[i+3] = a[i+3] &^ b[i+3]
		}
		for ; i < n; i++ {
			dst[i] = a[i] &^ b[i]
		}
	},
	0b0011: func(dst, _, b, _, _ []uint64) { // NOT b
		n := len(dst)
		b = b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = ^b[i]
			dst[i+1] = ^b[i+1]
			dst[i+2] = ^b[i+2]
			dst[i+3] = ^b[i+3]
		}
		for ; i < n; i++ {
			dst[i] = ^b[i]
		}
	},
	0b0100: func(dst, a, b, _, _ []uint64) { // b AND NOT a
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = b[i] &^ a[i]
			dst[i+1] = b[i+1] &^ a[i+1]
			dst[i+2] = b[i+2] &^ a[i+2]
			dst[i+3] = b[i+3] &^ a[i+3]
		}
		for ; i < n; i++ {
			dst[i] = b[i] &^ a[i]
		}
	},
	0b0101: func(dst, a, _, _, _ []uint64) { // NOT a
		n := len(dst)
		a = a[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = ^a[i]
			dst[i+1] = ^a[i+1]
			dst[i+2] = ^a[i+2]
			dst[i+3] = ^a[i+3]
		}
		for ; i < n; i++ {
			dst[i] = ^a[i]
		}
	},
	0b0110: func(dst, a, b, _, _ []uint64) { // XOR
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = a[i] ^ b[i]
			dst[i+1] = a[i+1] ^ b[i+1]
			dst[i+2] = a[i+2] ^ b[i+2]
			dst[i+3] = a[i+3] ^ b[i+3]
		}
		for ; i < n; i++ {
			dst[i] = a[i] ^ b[i]
		}
	},
	0b0111: func(dst, a, b, _, _ []uint64) { // NAND
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = ^(a[i] & b[i])
			dst[i+1] = ^(a[i+1] & b[i+1])
			dst[i+2] = ^(a[i+2] & b[i+2])
			dst[i+3] = ^(a[i+3] & b[i+3])
		}
		for ; i < n; i++ {
			dst[i] = ^(a[i] & b[i])
		}
	},
	0b1000: func(dst, a, b, _, _ []uint64) { // AND
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = a[i] & b[i]
			dst[i+1] = a[i+1] & b[i+1]
			dst[i+2] = a[i+2] & b[i+2]
			dst[i+3] = a[i+3] & b[i+3]
		}
		for ; i < n; i++ {
			dst[i] = a[i] & b[i]
		}
	},
	0b1001: func(dst, a, b, _, _ []uint64) { // XNOR
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = ^(a[i] ^ b[i])
			dst[i+1] = ^(a[i+1] ^ b[i+1])
			dst[i+2] = ^(a[i+2] ^ b[i+2])
			dst[i+3] = ^(a[i+3] ^ b[i+3])
		}
		for ; i < n; i++ {
			dst[i] = ^(a[i] ^ b[i])
		}
	},
	0b1010: func(dst, a, _, _, _ []uint64) { copy(dst, a) }, // a
	0b1011: func(dst, a, b, _, _ []uint64) { // a OR NOT b
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = a[i] | ^b[i]
			dst[i+1] = a[i+1] | ^b[i+1]
			dst[i+2] = a[i+2] | ^b[i+2]
			dst[i+3] = a[i+3] | ^b[i+3]
		}
		for ; i < n; i++ {
			dst[i] = a[i] | ^b[i]
		}
	},
	0b1100: func(dst, _, b, _, _ []uint64) { copy(dst, b) }, // b
	0b1101: func(dst, a, b, _, _ []uint64) { // b OR NOT a
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = b[i] | ^a[i]
			dst[i+1] = b[i+1] | ^a[i+1]
			dst[i+2] = b[i+2] | ^a[i+2]
			dst[i+3] = b[i+3] | ^a[i+3]
		}
		for ; i < n; i++ {
			dst[i] = b[i] | ^a[i]
		}
	},
	0b1110: func(dst, a, b, _, _ []uint64) { // OR
		n := len(dst)
		a, b = a[:n], b[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = a[i] | b[i]
			dst[i+1] = a[i+1] | b[i+1]
			dst[i+2] = a[i+2] | b[i+2]
			dst[i+3] = a[i+3] | b[i+3]
		}
		for ; i < n; i++ {
			dst[i] = a[i] | b[i]
		}
	},
	0b1111: func(dst, _, _, _, _ []uint64) {
		for i := range dst {
			dst[i] = ^uint64(0)
		}
	},
}

// twoLevel[q][l][r] computes dst = q(l(a, b), r(c, d)) for a core q and
// children l ≤ r, where a bare r reads c alone and ignores d. That is 27
// loops: nine child pairs per core. The entries with l > r are nil
// (each core is commutative, so pack orders the children), as is
// q(bare, bare), which is the gate loop of q.
var twoLevel = [3][4][4]wordLoop{
	coreAnd: {
		coreAnd: {
			coreAnd: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) & (c[i] & d[i])
					dst[i+1] = (a[i+1] & b[i+1]) & (c[i+1] & d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) & (c[i+2] & d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) & (c[i+3] & d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) & (c[i] & d[i])
				}
			},
			coreOr: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) & (c[i] | d[i])
					dst[i+1] = (a[i+1] & b[i+1]) & (c[i+1] | d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) & (c[i+2] | d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) & (c[i+3] | d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) & (c[i] | d[i])
				}
			},
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) & (c[i] ^ d[i])
					dst[i+1] = (a[i+1] & b[i+1]) & (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) & (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) & (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) & (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) & c[i]
					dst[i+1] = (a[i+1] & b[i+1]) & c[i+1]
					dst[i+2] = (a[i+2] & b[i+2]) & c[i+2]
					dst[i+3] = (a[i+3] & b[i+3]) & c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) & c[i]
				}
			},
		},
		coreOr: {
			coreOr: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) & (c[i] | d[i])
					dst[i+1] = (a[i+1] | b[i+1]) & (c[i+1] | d[i+1])
					dst[i+2] = (a[i+2] | b[i+2]) & (c[i+2] | d[i+2])
					dst[i+3] = (a[i+3] | b[i+3]) & (c[i+3] | d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) & (c[i] | d[i])
				}
			},
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) & (c[i] ^ d[i])
					dst[i+1] = (a[i+1] | b[i+1]) & (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] | b[i+2]) & (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] | b[i+3]) & (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) & (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) & c[i]
					dst[i+1] = (a[i+1] | b[i+1]) & c[i+1]
					dst[i+2] = (a[i+2] | b[i+2]) & c[i+2]
					dst[i+3] = (a[i+3] | b[i+3]) & c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) & c[i]
				}
			},
		},
		coreXor: {
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] ^ b[i]) & (c[i] ^ d[i])
					dst[i+1] = (a[i+1] ^ b[i+1]) & (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] ^ b[i+2]) & (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] ^ b[i+3]) & (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] ^ b[i]) & (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] ^ b[i]) & c[i]
					dst[i+1] = (a[i+1] ^ b[i+1]) & c[i+1]
					dst[i+2] = (a[i+2] ^ b[i+2]) & c[i+2]
					dst[i+3] = (a[i+3] ^ b[i+3]) & c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] ^ b[i]) & c[i]
				}
			},
		},
	},
	coreOr: {
		coreAnd: {
			coreAnd: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) | (c[i] & d[i])
					dst[i+1] = (a[i+1] & b[i+1]) | (c[i+1] & d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) | (c[i+2] & d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) | (c[i+3] & d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) | (c[i] & d[i])
				}
			},
			coreOr: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) | (c[i] | d[i])
					dst[i+1] = (a[i+1] & b[i+1]) | (c[i+1] | d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) | (c[i+2] | d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) | (c[i+3] | d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) | (c[i] | d[i])
				}
			},
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) | (c[i] ^ d[i])
					dst[i+1] = (a[i+1] & b[i+1]) | (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) | (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) | (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) | (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) | c[i]
					dst[i+1] = (a[i+1] & b[i+1]) | c[i+1]
					dst[i+2] = (a[i+2] & b[i+2]) | c[i+2]
					dst[i+3] = (a[i+3] & b[i+3]) | c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) | c[i]
				}
			},
		},
		coreOr: {
			coreOr: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) | (c[i] | d[i])
					dst[i+1] = (a[i+1] | b[i+1]) | (c[i+1] | d[i+1])
					dst[i+2] = (a[i+2] | b[i+2]) | (c[i+2] | d[i+2])
					dst[i+3] = (a[i+3] | b[i+3]) | (c[i+3] | d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) | (c[i] | d[i])
				}
			},
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) | (c[i] ^ d[i])
					dst[i+1] = (a[i+1] | b[i+1]) | (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] | b[i+2]) | (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] | b[i+3]) | (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) | (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) | c[i]
					dst[i+1] = (a[i+1] | b[i+1]) | c[i+1]
					dst[i+2] = (a[i+2] | b[i+2]) | c[i+2]
					dst[i+3] = (a[i+3] | b[i+3]) | c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) | c[i]
				}
			},
		},
		coreXor: {
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] ^ b[i]) | (c[i] ^ d[i])
					dst[i+1] = (a[i+1] ^ b[i+1]) | (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] ^ b[i+2]) | (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] ^ b[i+3]) | (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] ^ b[i]) | (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] ^ b[i]) | c[i]
					dst[i+1] = (a[i+1] ^ b[i+1]) | c[i+1]
					dst[i+2] = (a[i+2] ^ b[i+2]) | c[i+2]
					dst[i+3] = (a[i+3] ^ b[i+3]) | c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] ^ b[i]) | c[i]
				}
			},
		},
	},
	coreXor: {
		coreAnd: {
			coreAnd: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) ^ (c[i] & d[i])
					dst[i+1] = (a[i+1] & b[i+1]) ^ (c[i+1] & d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) ^ (c[i+2] & d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) ^ (c[i+3] & d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) ^ (c[i] & d[i])
				}
			},
			coreOr: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) ^ (c[i] | d[i])
					dst[i+1] = (a[i+1] & b[i+1]) ^ (c[i+1] | d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) ^ (c[i+2] | d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) ^ (c[i+3] | d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) ^ (c[i] | d[i])
				}
			},
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) ^ (c[i] ^ d[i])
					dst[i+1] = (a[i+1] & b[i+1]) ^ (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] & b[i+2]) ^ (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] & b[i+3]) ^ (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) ^ (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] & b[i]) ^ c[i]
					dst[i+1] = (a[i+1] & b[i+1]) ^ c[i+1]
					dst[i+2] = (a[i+2] & b[i+2]) ^ c[i+2]
					dst[i+3] = (a[i+3] & b[i+3]) ^ c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] & b[i]) ^ c[i]
				}
			},
		},
		coreOr: {
			coreOr: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) ^ (c[i] | d[i])
					dst[i+1] = (a[i+1] | b[i+1]) ^ (c[i+1] | d[i+1])
					dst[i+2] = (a[i+2] | b[i+2]) ^ (c[i+2] | d[i+2])
					dst[i+3] = (a[i+3] | b[i+3]) ^ (c[i+3] | d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) ^ (c[i] | d[i])
				}
			},
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) ^ (c[i] ^ d[i])
					dst[i+1] = (a[i+1] | b[i+1]) ^ (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] | b[i+2]) ^ (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] | b[i+3]) ^ (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) ^ (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] | b[i]) ^ c[i]
					dst[i+1] = (a[i+1] | b[i+1]) ^ c[i+1]
					dst[i+2] = (a[i+2] | b[i+2]) ^ c[i+2]
					dst[i+3] = (a[i+3] | b[i+3]) ^ c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] | b[i]) ^ c[i]
				}
			},
		},
		coreXor: {
			coreXor: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c, d = a[:n], b[:n], c[:n], d[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] ^ b[i]) ^ (c[i] ^ d[i])
					dst[i+1] = (a[i+1] ^ b[i+1]) ^ (c[i+1] ^ d[i+1])
					dst[i+2] = (a[i+2] ^ b[i+2]) ^ (c[i+2] ^ d[i+2])
					dst[i+3] = (a[i+3] ^ b[i+3]) ^ (c[i+3] ^ d[i+3])
				}
				for ; i < n; i++ {
					dst[i] = (a[i] ^ b[i]) ^ (c[i] ^ d[i])
				}
			},
			coreBare: func(dst, a, b, c, d []uint64) {
				n := len(dst)
				a, b, c = a[:n], b[:n], c[:n]
				i := 0
				for ; i+4 <= n; i += 4 {
					dst[i] = (a[i] ^ b[i]) ^ c[i]
					dst[i+1] = (a[i+1] ^ b[i+1]) ^ c[i+1]
					dst[i+2] = (a[i+2] ^ b[i+2]) ^ c[i+2]
					dst[i+3] = (a[i+3] ^ b[i+3]) ^ c[i+3]
				}
				for ; i < n; i++ {
					dst[i] = (a[i] ^ b[i]) ^ c[i]
				}
			},
		},
	},
}
