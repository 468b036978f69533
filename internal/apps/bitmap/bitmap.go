// Package bitmap implements the Bitmap-index case study of §6.3.1
// (Figure 13): tracking the activity of 16 million users, a query counts
// (Q1) the users active every week for the past w weeks and (Q2) the male
// users active each of those weeks.
//
// Both queries are AND-reductions over the week bitmaps followed by a
// count; they are evaluated in one pass over the bitmaps, each maintaining
// its own accumulator. The bulk bitwise part runs in DRAM (ELP2IM / Ambit
// with a configurable reserved-row budget), the count on the CPU.
//
// The reserved-row budget sets Ambit's per-element cost: with 4 rows the
// accumulator cannot stay resident in the B-group (4 commands per fold);
// with 6 it can (3 commands); with 10 the B-group hosts two accumulator
// triples, so the two queries share each week bitmap's staging copy (5
// commands per week for both queries instead of 6) — the diminishing
// returns of Figure 13. ELP2IM pays no staging copies at all: the APP
// primitive reads the operand in place and the AP folds it into the
// accumulator row.
package bitmap

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/sched"
	"repro/internal/timing"
)

// Workload describes one tracking query pair.
type Workload struct {
	// Users is the bitmap width in bits (paper: 16M).
	Users int
	// Weeks is w, the number of week bitmaps intersected.
	Weeks int
}

// Default returns the paper's workload.
func Default() Workload { return Workload{Users: 16 << 20, Weeks: 8} }

// Validate reports whether the workload is usable.
func (w Workload) Validate() error {
	if w.Users <= 0 {
		return errors.New("bitmap: Users must be positive")
	}
	if w.Weeks < 2 {
		return errors.New("bitmap: Weeks must be at least 2")
	}
	return nil
}

// scanFuser is implemented by designs that can fold one operand into two
// resident accumulators with a single fused command sequence (Ambit with
// 10 reserved rows).
type scanFuser interface {
	FusedChainSeq(op engine.Op) (primitive.Seq, error)
}

// Result summarizes one configuration's run of the query pair.
type Result struct {
	// Name is the design name (or "CPU").
	Name string
	// DeviceNS is the in-DRAM bulk bitwise time per query pair.
	DeviceNS float64
	// CountNS is the CPU count time per query pair.
	CountNS float64
	// SystemNS is the end-to-end time per query pair.
	SystemNS float64
	// QueriesPerSec is the system query-pair throughput.
	QueriesPerSec float64
	// RowOps is the number of row-wide DRAM operations issued.
	RowOps int
	// EffectiveBanks is the bank-level parallelism achieved.
	EffectiveBanks float64
	// ReservedRows is the design's reserved-row count (Figure 13(c)).
	ReservedRows int
	// PowerConstrained records whether the tFAW budget was enforced.
	PowerConstrained bool
	// DeviceEnergyNJ is the DRAM energy of the bulk bitwise part
	// (dynamic + background over DeviceNS) — §6.2: "in the following case
	// studies, the power of ELP2IM is 17%∼27% less than Ambit".
	DeviceEnergyNJ float64
}

// SpeedupOver returns the throughput improvement of r over the baseline.
func (r Result) SpeedupOver(base Result) float64 {
	return base.SystemNS / r.SystemNS
}

// Run evaluates the query pair on a PIM design.
func Run(w Workload, d engine.Engine, mod dram.Config, tp timing.Params, pp power.Params, m cpu.Model, constrained bool) (Result, error) {
	if err := pp.Validate(); err != nil {
		return Result{}, err
	}
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := mod.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}

	// Rows touched per bulk AND over the full user population.
	stripes := (w.Users + mod.Columns - 1) / mod.Columns

	// Q1 folds w week bitmaps (w-1 folds); Q2 folds the same w weeks plus
	// the gender bitmap (w folds): 2w-1 folds per stripe — unless the
	// design fuses the two scans, paying one fused fold per week.
	var opSeq primitive.Seq
	var rowOps int
	if f, ok := d.(scanFuser); ok {
		if fused, err := f.FusedChainSeq(engine.OpAND); err == nil {
			opSeq = fused
			rowOps = w.Weeks * stripes
		}
	}
	if opSeq == nil {
		chainSeq, err := d.ChainSeq(engine.OpAND)
		if err != nil {
			return Result{}, fmt.Errorf("bitmap: %w", err)
		}
		opSeq = chainSeq
		rowOps = (2*w.Weeks - 1) * stripes
	}
	opLatency := opSeq.Duration(tp)

	// Bank-level parallelism for the fold profile, through the process-wide
	// scheduler memo: sweeps re-pricing the same (design, op, config)
	// triple pay the event-accurate simulation once.
	profile := sched.ProfileFromSeq(opSeq, tp)
	res, err := sched.CachedSimulate(profile, sched.Config{
		Banks:            mod.Banks,
		Timing:           tp,
		PowerConstrained: constrained,
	}, 500_000)
	if err != nil {
		return Result{}, fmt.Errorf("bitmap: %w", err)
	}
	effBanks := res.EffectiveBanks
	if effBanks <= 0 {
		return Result{}, errors.New("bitmap: scheduler reported zero parallelism")
	}

	deviceNS := float64(rowOps) * opLatency / effBanks
	// Count: stream both query results out of DRAM and popcount them.
	countNS := 2 * m.PopcountNS(w.Users)

	// Device energy: dynamic per row op + module background over the
	// device time.
	deviceEnergy := opSeq.Energy(pp)*float64(rowOps) +
		pp.BackgroundPower*d.BackgroundFactor()*deviceNS

	recordObs(engine.OpAND, opSeq, opLatency, rowOps, pp)

	system := deviceNS + countNS
	return Result{
		Name:             d.Name(),
		DeviceNS:         deviceNS,
		CountNS:          countNS,
		SystemNS:         system,
		QueriesPerSec:    1e9 / system,
		RowOps:           rowOps,
		EffectiveBanks:   effBanks,
		ReservedRows:     d.ReservedRows(),
		PowerConstrained: constrained,
		DeviceEnergyNJ:   deviceEnergy,
	}, nil
}

// recordObs folds one run's modeled per-op costs into the process-wide
// observability registry, so cost-model harnesses (`elpsim fig13`,
// `elpsim -metrics`) report the same per-op-kind series the facade
// records for functional runs. The names mirror the facade's `acc.op.*`
// scheme under `app.op.*`; the histograms observe the per-row-op cost
// (one observation per Run call), the counters accumulate the workload's
// total row ops, activate events, and raised wordlines.
func recordObs(op engine.Op, seq primitive.Seq, perRowLatencyNS float64, rowOps int, pp power.Params) {
	m := obs.Global().Metrics
	name := op.String()
	m.Counter("app.op.rowops." + name).Add(int64(rowOps))
	m.Counter("app.op.activates." + name).Add(int64(seq.ActivateEvents() * rowOps))
	m.Counter("app.op.wordlines." + name).Add(int64(seq.Wordlines() * rowOps))
	m.Histogram("app.op.latency_ns."+name, obs.LatencyBuckets()).Observe(perRowLatencyNS)
	m.Histogram("app.op.energy_nj."+name, obs.EnergyBuckets()).Observe(seq.Energy(pp))
}

// RunCPU evaluates the query pair entirely on the CPU baseline.
func RunCPU(w Workload, m cpu.Model) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	// Q1: AND-reduce w bitmaps; Q2 reuses the intersection (+1 AND).
	scanNS := m.ReduceAndNS(w.Users, w.Weeks) + m.BulkOpNS(w.Users, 2)
	countNS := 2 * m.PopcountNS(w.Users)
	system := scanNS + countNS
	return Result{
		Name:          "CPU",
		DeviceNS:      scanNS,
		CountNS:       countNS,
		SystemNS:      system,
		QueriesPerSec: 1e9 / system,
	}, nil
}
