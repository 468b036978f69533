package main

import (
	"errors"
	"math/bits"
	"math/rand/v2"

	elp2im "repro"
	"repro/internal/dram"
	"repro/internal/wire"
)

// hashWords is FNV-1a over 64-bit words: a read-back is recorded as its
// hash during a load and compared with the oracle's after it.
func hashWords(ws []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h ^= w
		h *= 1099511628211
	}
	return h
}

func popcount(ws []uint64) uint64 {
	var n int
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dealt returns n class labels dealt in blocks: each block holds class c
// counts[c] times, in an order shuffled per block. A workload's mix is
// thereby exact over every whole block, so seeds change which requests
// are sent but not how many of each kind.
func dealt(rng *rand.Rand, n int, counts ...int) []int {
	var block []int
	for c, k := range counts {
		for i := 0; i < k; i++ {
			block = append(block, c)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// fromWire converts a response's modeled cost.
func fromWire(st wire.Stats) modeled {
	return modeled{latencyNS: st.LatencyNS, energyNJ: st.EnergyNJ, rowOps: st.RowOps, commands: st.Commands, wordlines: st.Wordlines}
}

// wireFailure classifies a failed wire call. Saturation and drain are the
// 503 class, an expired deadline the 504 class; any other status is an
// answer the server should not have given.
func wireFailure(err error) result {
	var se *wire.StatusError
	if !errors.As(err, &se) {
		return result{out: outTransport, err: err}
	}
	switch se.Code {
	case wire.StatusSaturated, wire.StatusDraining:
		return result{out: outRejected, err: err}
	case wire.StatusDeadline:
		return result{out: outDeadline, err: err}
	default:
		return result{out: outWrong, err: err}
	}
}

// dialWire opens n elpwire connections to addr.
func dialWire(addr string, n int) ([]*wire.Client, error) {
	cs := make([]*wire.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			closeWire(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// closeWire closes the connections; each call in flight fails.
func closeWire(cs []*wire.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// moduleConfig is the DRAM geometry an accelerator built from the
// default configuration derives its kernels on.
func moduleConfig() dram.Config { return elp2im.DefaultConfig().Module }
