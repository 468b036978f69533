package elp2im

import (
	"errors"

	"repro/internal/obs"
)

// Shard is a deployment of N independent Accelerator instances — the
// model of a multi-rank (or multi-channel) deployment where each rank has
// its own charge pump and tFAW window, the reason ELP2IM's bank-level
// parallelism scales nearly linearly with ranks (PAPER.md §V).
//
// A Shard places nothing itself: a caller picks an operation's shard
// (internal/server homes every vector by a hash of its name) and runs the
// operation whole on that shard's accelerator (ShardAccelerator), where
// it is executed and charged. The Shard gathers what the accelerators
// share: one configuration, the power-constraint and tracer switches,
// the summed Totals, and the merged Snapshot.
type Shard struct {
	accs []*Accelerator

	// obsc holds the deployment's own series (shard.count, and whatever
	// subsystems layered on top register, such as internal/server's);
	// Snapshot merges it with every shard accelerator's registry.
	obsc *obs.Context
}

// NewShard returns a deployment of `shards` independent accelerators,
// each built from the same configuration (DefaultConfig plus the
// mutators).
func NewShard(shards int, mutators ...func(*Config)) (*Shard, error) {
	cfg := DefaultConfig()
	for _, m := range mutators {
		m(&cfg)
	}
	return NewShardWithConfig(shards, cfg)
}

// NewShardWithConfig returns a deployment of `shards` accelerators with
// an explicit per-shard configuration.
func NewShardWithConfig(shards int, cfg Config) (*Shard, error) {
	if shards < 1 {
		return nil, errors.New("elp2im: shard count must be at least 1")
	}
	sh := &Shard{accs: make([]*Accelerator, shards), obsc: obs.NewContext()}
	for i := range sh.accs {
		acc, err := NewWithConfig(cfg)
		if err != nil {
			return nil, err
		}
		sh.accs[i] = acc
	}
	sh.obsc.Metrics.Gauge("shard.count").Set(int64(shards))
	return sh, nil
}

// Shards returns the number of shard accelerators.
func (sh *Shard) Shards() int { return len(sh.accs) }

// ShardAccelerator returns shard i's accelerator, which executes and
// charges every operation placed on shard i.
func (sh *Shard) ShardAccelerator(i int) *Accelerator { return sh.accs[i] }

// EvalExpr evaluates a compiled expression on shard 0's accelerator (see
// Accelerator.EvalExpr).
func (sh *Shard) EvalExpr(ce *CompiledExpr, vars map[string]*BitVector) (*BitVector, Stats, error) {
	return sh.accs[0].EvalExpr(ce, vars)
}

// Totals returns the sum of every shard accelerator's session totals.
func (sh *Shard) Totals() Stats {
	var total Stats
	for _, acc := range sh.accs {
		total.add(acc.Totals())
	}
	return total
}

// Design returns the modeled design's name.
func (sh *Shard) Design() string { return sh.accs[0].Design() }

// SetPowerConstrained toggles the charge-pump/tFAW latency constraint on
// every shard (each rank has its own pump; the constraint is per-module).
func (sh *Shard) SetPowerConstrained(v bool) {
	for _, acc := range sh.accs {
		acc.SetPowerConstrained(v)
	}
}

// SetTracer installs (or, with nil, removes) a tracer on the deployment's
// context and on every shard accelerator, so one sink receives every
// shard's facade, stripe and engine spans.
func (sh *Shard) SetTracer(t Tracer) {
	sh.obsc.SetTracer(t)
	for _, acc := range sh.accs {
		acc.SetTracer(t)
	}
}

// Observability returns the deployment's observability context, so
// subsystems layered on top (internal/server) can register their own
// series; they appear in Snapshot beside the shards' merged series.
func (sh *Shard) Observability() *obs.Context { return sh.obsc }

// Snapshot merges the deployment's own series with every shard
// accelerator's registry — counters and gauges sum, histograms merge
// bucket-wise, so the acc.* series total every shard's operations — plus
// the process-wide scheduler-memo counters.
func (sh *Shard) Snapshot() MetricsSnapshot {
	snap := sh.obsc.Metrics.Snapshot()
	for _, acc := range sh.accs {
		mergeSnapshot(&snap, acc.obsc.Metrics.Snapshot())
	}
	return withSchedStats(snap)
}

// mergeSnapshot folds src into dst: counters and gauges sum; histograms
// with matching bounds merge bucket-wise, others keep dst's value.
func mergeSnapshot(dst *obs.Snapshot, src obs.Snapshot) {
	for name, v := range src.Counters {
		dst.Counters[name] += v
	}
	for name, v := range src.Gauges {
		dst.Gauges[name] += v
	}
	for name, h := range src.Histograms {
		d, ok := dst.Histograms[name]
		if !ok {
			dst.Histograms[name] = h
			continue
		}
		if len(d.Bounds) != len(h.Bounds) || len(d.Counts) != len(h.Counts) {
			continue
		}
		d.Count += h.Count
		d.Sum += h.Sum
		counts := make([]int64, len(d.Counts))
		for i := range counts {
			counts[i] = d.Counts[i] + h.Counts[i]
		}
		d.Counts = counts
		dst.Histograms[name] = d
	}
}

// ServeDebug starts the opt-in observability endpoint on addr serving the
// merged Snapshot (see Accelerator.ServeDebug).
func (sh *Shard) ServeDebug(addr string) (*DebugServer, error) {
	return obs.Serve(addr, func() obs.Snapshot { return sh.Snapshot() })
}
