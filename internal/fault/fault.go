// Package fault connects the analog reliability model (§6.1.2, Figure 11)
// to application-level behaviour: it wraps an engine's functional executor
// and flips result bits with the per-access error probability the
// Monte-Carlo circuit model predicts for the device and process-variation
// corner.
//
// The paper notes bitwise PIM lacks ECC compatibility and argues the
// architecture still fits "error tolerant scenarios such as approximate
// computing or neural network acceleration" — this package is the tool for
// quantifying exactly that: run a workload through a faulty executor and
// measure how far the output drifts.
package fault

import (
	"errors"
	"math/rand"

	"repro/internal/analog"
	"repro/internal/dram"
	"repro/internal/engine"
)

// Injector wraps an executor and corrupts each result bit independently
// with the configured probability after every operation.
type Injector struct {
	inner engine.Executor
	rate  float64
	rng   *rand.Rand

	// Injected counts the bits flipped so far.
	Injected int
	// Ops counts the operations executed.
	Ops int
}

// New returns an injector with an explicit per-bit error rate.
func New(inner engine.Executor, rate float64, seed int64) (*Injector, error) {
	if inner == nil {
		return nil, errors.New("fault: nil executor")
	}
	if rate < 0 || rate > 1 {
		return nil, errors.New("fault: rate must be in [0,1]")
	}
	return &Injector{inner: inner, rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

// FromCircuit returns an injector whose error rate comes from the analog
// Monte-Carlo model for the given device and process-variation corner.
func FromCircuit(inner engine.Executor, c analog.Circuit, d analog.Device, vk analog.Variation,
	sigma float64, seed int64) (*Injector, error) {
	rate := analog.ErrorRate(c, d, vk, sigma, 20000, seed)
	return New(inner, rate, seed)
}

// Rate returns the per-bit error probability.
func (in *Injector) Rate() float64 { return in.rate }

// ConsumesOperandA implements engine.OperandConsumer: the injector runs
// the inner executor's sequences unchanged, so it consumes the operand
// rows the inner executor consumes, and a program running through it
// re-stages a live operand exactly as it does on the inner executor.
func (in *Injector) ConsumesOperandA(op engine.Op) bool { return consumesA(in.inner, op) }

// consumesA reports whether ex destroys operand A's row when it runs op
// (engine.OperandConsumer).
func consumesA(ex engine.Executor, op engine.Op) bool {
	oc, ok := ex.(engine.OperandConsumer)
	return ok && oc.ConsumesOperandA(op)
}

// Execute implements engine.Executor: run the real operation, then
// corrupt the destination row.
func (in *Injector) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	if err := in.inner.Execute(sub, op, dst, a, b); err != nil {
		return err
	}
	in.Ops++
	if in.rate <= 0 {
		return nil
	}
	row := sub.RowData(dst)
	for i := 0; i < row.Len(); i++ {
		if in.rng.Float64() < in.rate {
			row.SetBit(i, !row.Bit(i))
			in.Injected++
		}
	}
	return nil
}
