// Package tablescan implements the BitWeaving table-scan case study of
// §6.3.2 (Figure 14): evaluating the predicate `col < C` over a column of
// k-bit codes stored vertically (bit i of every tuple in one DRAM row),
// so one row-wide bitwise op processes one bit position of thousands of
// tuples at once.
//
// The bit-serial LESS-THAN against the constant C maintains two
// accumulators across bit positions, from MSB to LSB:
//
//	lt |= eq AND NOT a_i   (only where C_i = 1)
//	eq &= (C_i = 1 ?  a_i : NOT a_i)
//
// The bulk bitwise part runs in DRAM; the match count runs on the CPU.
// Table scans live in capacity-sensitive commodity modules, so the power
// constraint is enforced (the paper's light-modified regime).
package tablescan

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/primitive"
	"repro/internal/sched"
	"repro/internal/timing"
)

// Workload describes one scan.
type Workload struct {
	// Tuples is the number of table rows scanned.
	Tuples int
	// Width is k, the column code width in bits.
	Width int
	// Constant is the comparison constant C (uses the low Width bits).
	Constant uint64
}

// Default returns the workload at the paper's scale: 64M tuples, with the
// width swept by the Figure 14 harness.
func Default(width int) Workload {
	return Workload{Tuples: 64 << 20, Width: width, Constant: lowHalfOnes(width)}
}

// lowHalfOnes returns a constant with alternating bits — the average case
// for the predicate's per-bit op mix.
func lowHalfOnes(width int) uint64 {
	var c uint64
	for i := 0; i < width; i += 2 {
		c |= 1 << uint(i)
	}
	return c
}

// Validate reports whether the workload is usable.
func (w Workload) Validate() error {
	if w.Tuples <= 0 {
		return errors.New("tablescan: Tuples must be positive")
	}
	if w.Width < 1 || w.Width > 64 {
		return errors.New("tablescan: Width must be in [1,64]")
	}
	return nil
}

// ConstBit returns bit i (0 = LSB) of the comparison constant.
func (w Workload) ConstBit(i int) bool { return w.Constant>>uint(i)&1 == 1 }

// predicateSeq builds the full per-stripe command sequence of the
// bit-serial LESS-THAN (all Width bit positions).
func predicateSeq(w Workload, d engine.Engine) (primitive.Seq, error) {
	andChain, err := d.ChainSeq(engine.OpAND)
	if err != nil {
		return nil, fmt.Errorf("tablescan: %w", err)
	}
	orChain, err := d.ChainSeq(engine.OpOR)
	if err != nil {
		return nil, fmt.Errorf("tablescan: %w", err)
	}
	notAndChain, err := d.NotChainSeq(engine.OpAND)
	if err != nil {
		return nil, fmt.Errorf("tablescan: %w", err)
	}
	var seq primitive.Seq
	for i := w.Width - 1; i >= 0; i-- {
		if w.ConstBit(i) {
			// t = NOT a_i; t &= eq; lt |= t; eq &= a_i
			seq = append(seq, d.Seq(engine.OpNOT)...)
			seq = append(seq, andChain...)
			seq = append(seq, orChain...)
			seq = append(seq, andChain...)
		} else {
			// eq &= NOT a_i — one complement fold.
			seq = append(seq, notAndChain...)
		}
	}
	return seq, nil
}

// Result summarizes one configuration's scan.
type Result struct {
	// Name is the design name (or "CPU").
	Name string
	// Width is the code width scanned.
	Width int
	// DeviceNS is the in-DRAM predicate time.
	DeviceNS float64
	// CountNS is the CPU count time.
	CountNS float64
	// SystemNS is the end-to-end scan time.
	SystemNS float64
	// TuplesPerSec is the system scan throughput.
	TuplesPerSec float64
	// PredicateLatencyNS is the per-stripe predicate latency (Figure
	// 14(b)'s latency aspect).
	PredicateLatencyNS float64
	// EffectiveBanks is the bank parallelism achieved under the power
	// constraint.
	EffectiveBanks float64
	// ReservedRows is the design's reserved space (Figure 14(c)).
	ReservedRows int
}

// SpeedupOver returns the throughput improvement of r over base.
func (r Result) SpeedupOver(base Result) float64 {
	return base.SystemNS / r.SystemNS
}

// Run evaluates the LESS-THAN scan (the Figure 14 configuration) on a PIM
// design under the power constraint.
func Run(w Workload, d engine.Engine, mod dram.Config, tp timing.Params, m cpu.Model) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := mod.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	seq, err := predicateSeq(w, d)
	if err != nil {
		return Result{}, err
	}
	return runWithSeq(w, d, seq, mod, tp, m)
}

// runWithSeq prices an assembled per-stripe predicate sequence.
func runWithSeq(w Workload, d engine.Engine, seq primitive.Seq, mod dram.Config, tp timing.Params, m cpu.Model) (Result, error) {
	latency := seq.Duration(tp)
	stripes := (w.Tuples + mod.Columns - 1) / mod.Columns

	// The width sweep re-prices many predicate profiles against one module
	// config; the process-wide scheduler memo amortizes the simulations.
	profile := sched.ProfileFromSeq(seq, tp)
	res, err := sched.CachedSimulate(profile, sched.Config{
		Banks:            mod.Banks,
		Timing:           tp,
		PowerConstrained: true,
	}, 1_000_000)
	if err != nil {
		return Result{}, fmt.Errorf("tablescan: %w", err)
	}
	if res.EffectiveBanks <= 0 {
		return Result{}, errors.New("tablescan: scheduler reported zero parallelism")
	}

	deviceNS := float64(stripes) * latency / res.EffectiveBanks
	countNS := countPhaseNS(w, m)
	system := deviceNS + countNS
	return Result{
		Name:               d.Name(),
		Width:              w.Width,
		DeviceNS:           deviceNS,
		CountNS:            countNS,
		SystemNS:           system,
		TuplesPerSec:       float64(w.Tuples) / system * 1e9,
		PredicateLatencyNS: latency,
		EffectiveBanks:     res.EffectiveBanks,
		ReservedRows:       d.ReservedRows(),
	}, nil
}

// aggCyclesPerTuple is the scalar per-match aggregation work of the count
// phase (COUNT(*) bookkeeping beyond the popcount itself).
const aggCyclesPerTuple = 0.5

// countPhaseNS models the CPU count phase shared by all configurations:
// popcount the result bitmap plus per-tuple aggregation.
func countPhaseNS(w Workload, m cpu.Model) float64 {
	agg := float64(w.Tuples) * aggCyclesPerTuple / (m.FreqGHz * float64(m.Cores))
	return m.PopcountNS(w.Tuples) + agg
}

// RunCPU evaluates the BitWeaving scan on the CPU baseline: per bit
// position it streams one N-bit column and updates the lt/eq accumulator
// bitmaps. At the paper's table sizes the accumulators do not fit in
// cache, so each bit position moves ~4 memory streams (column read, eq
// read+write, lt read-modify-write on average every other bit).
func RunCPU(w Workload, m cpu.Model) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	bytesPerCol := float64(w.Tuples) / 8
	traffic := bytesPerCol * 4 * float64(w.Width) / m.BandwidthGBps
	// ~3 SIMD ops per bit position over the column.
	compute := bytesPerCol * 3 * float64(w.Width) /
		(m.SIMDBytesPerCycle * m.FreqGHz * float64(m.Cores))
	scan := traffic
	if compute > scan {
		scan = compute
	}
	countNS := countPhaseNS(w, m)
	system := scan + countNS
	return Result{
		Name:         "CPU",
		Width:        w.Width,
		DeviceNS:     scan,
		CountNS:      countNS,
		SystemNS:     system,
		TuplesPerSec: float64(w.Tuples) / system * 1e9,
	}, nil
}
