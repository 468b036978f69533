package cnn

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// AccelConfig describes the in-DRAM accelerator fabric. Both case studies
// run without the power constraint (§6.3.3: "we do not set the limitation
// of power constraint in the simulation" — accelerators may strengthen
// the power delivery at some density cost).
type AccelConfig struct {
	// Lanes is the number of bit lanes computing in parallel across the
	// module (banks × concurrently commanded subarrays × row width).
	Lanes int
	// CopyBitsPerNS is the internal data-movement bandwidth for staging
	// weights and moving activations between layers (row-copy rate
	// aggregated over banks).
	CopyBitsPerNS float64
	// Timing is the DRAM timing parameter set.
	Timing timing.Params
}

// DefaultAccel returns the calibration used for Tables 2 and 3: 8 banks ×
// 4 concurrently commanded subarrays × 8K columns = 32K lanes; row-copy
// movement at 8192 bits / 53 ns per bank across 8 banks.
func DefaultAccel() AccelConfig {
	return AccelConfig{
		Lanes:         32768,
		CopyBitsPerNS: 8 * 8192 / 53.0,
		Timing:        timing.DDR31600(),
	}
}

// Validate reports whether the configuration is usable.
func (c AccelConfig) Validate() error {
	if c.Lanes <= 0 {
		return errors.New("cnn: Lanes must be positive")
	}
	if c.CopyBitsPerNS <= 0 {
		return errors.New("cnn: CopyBitsPerNS must be positive")
	}
	return c.Timing.Validate()
}

// avgBasicLatency returns the mean three-operand latency across the seven
// Figure 12 operations — the design's "logic work rate" used to scale
// Dracc's fixed command budget.
func avgBasicLatency(d engine.Engine) float64 {
	total := 0.0
	ops := engine.BasicOps()
	for _, op := range ops {
		total += d.OpStats(op).LatencyNS
	}
	return total / float64(len(ops))
}

// Dracc's addition: "there are only 13 commands (including two new
// propagation and shift commands, which cannot be optimized) for the
// addition operation" — ~630 ns at the 49 ns cycle (§2.2.3). The two
// fixed commands are AP-class; the remaining 11 are the optimizable logic
// core, which each design executes at its own logic rate.
const (
	draccFixedCommands = 2
	draccLogicCommands = 11
)

// DraccAddNS returns the per-lane-slice latency of one Dracc addition on
// the given design. ambitRef anchors the command budget: the 11-command
// core takes 11 × tRC on Ambit, and other designs scale it by their
// relative logic rate and compound-overhead factor.
func DraccAddNS(d, ambitRef engine.Engine, tp timing.Params) float64 {
	fixed := float64(draccFixedCommands) * primitive.AP.Duration(tp)
	core := float64(draccLogicCommands) * primitive.AP.Duration(tp)
	scale := avgBasicLatency(d) / avgBasicLatency(ambitRef)
	return fixed + core*scale*d.CompoundOverheadFactor()
}

// NID's kernels: per binary MAC, one row-wide XOR plus one half-adder
// step (XOR + AND) of the count reduction tree — "it decomposes the count
// operation into minimum number of AND and XOR operations".
func nidMACNS(d engine.Engine, tp timing.Params) float64 {
	xor := d.OpStats(engine.OpXOR).LatencyNS
	ha := (d.OpStats(engine.OpXOR).LatencyNS + d.OpStats(engine.OpAND).LatencyNS) *
		d.CompoundOverheadFactor()
	_ = tp
	return xor + ha
}

// Result is one network × design cell of Table 2 or 3.
type Result struct {
	// Network and Design name the cell.
	Network, Design string
	// ComputeNS is the in-DRAM arithmetic time per frame.
	ComputeNS float64
	// MovementNS is the staging/data-movement time per frame.
	MovementNS float64
	// FrameNS is the total per-frame latency.
	FrameNS float64
	// FPS is frames per second.
	FPS float64
}

// ImprovementOver returns the FPS ratio of r over the baseline.
func (r Result) ImprovementOver(base Result) float64 { return r.FPS / base.FPS }

// computeSlices returns the number of sequential lane-wide compute slices
// a network needs: per layer, its MACs are spread over the lanes with
// ceil-granularity (small layers underutilize the fabric).
func computeSlices(n Network, lanes int) float64 {
	total := 0.0
	for _, l := range n.Layers {
		m := l.MACs()
		if m <= 0 {
			continue
		}
		slices := int(m) / lanes
		if int(m)%lanes != 0 {
			slices++
		}
		total += float64(slices)
	}
	return total
}

// RunDracc evaluates one network on the Dracc accelerator realized with
// the given design (Table 2). Ternary weights cost 2 bits, partial sums
// 16; each MAC is one in-DRAM addition.
func RunDracc(n Network, d, ambitRef engine.Engine, cfg AccelConfig) (Result, error) {
	if err := n.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	add := DraccAddNS(d, ambitRef, cfg.Timing)
	compute := computeSlices(n, cfg.Lanes) * add
	movement := (n.Weights()*2 + n.Activations()*16) / cfg.CopyBitsPerNS
	frame := compute + movement
	return Result{
		Network: n.Name, Design: d.Name(),
		ComputeNS: compute, MovementNS: movement,
		FrameNS: frame, FPS: 1e9 / frame,
	}, nil
}

// RunNID evaluates one network on the NID binary-CNN accelerator realized
// with the given design (Table 3). Binary weights and activations cost
// one bit each; each MAC is one XOR plus one half-adder count step.
func RunNID(n Network, d engine.Engine, cfg AccelConfig) (Result, error) {
	if err := n.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	mac := nidMACNS(d, cfg.Timing)
	compute := computeSlices(n, cfg.Lanes) * mac
	movement := (n.Weights() + n.Activations()) / cfg.CopyBitsPerNS
	frame := compute + movement
	return Result{
		Network: n.Name, Design: d.Name(),
		ComputeNS: compute, MovementNS: movement,
		FrameNS: frame, FPS: 1e9 / frame,
	}, nil
}

// LayerCost is one layer's share of a frame.
type LayerCost struct {
	// Name is the layer name.
	Name string
	// MACs is the layer's multiply-accumulate count.
	MACs float64
	// Slices is the number of sequential lane-wide compute slices.
	Slices int
	// ComputeNS is the layer's in-DRAM arithmetic time.
	ComputeNS float64
	// Utilization is MACs / (Slices × Lanes) — how full the fabric is.
	Utilization float64
}

// DraccBreakdown returns the per-layer frame cost of a network on the
// Dracc accelerator — where the time goes, and which layers underutilize
// the lane fabric.
func DraccBreakdown(n Network, d, ambitRef engine.Engine, cfg AccelConfig) ([]LayerCost, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	add := DraccAddNS(d, ambitRef, cfg.Timing)
	var out []LayerCost
	for _, l := range n.Layers {
		m := l.MACs()
		if m <= 0 {
			continue
		}
		slices := int(m) / cfg.Lanes
		if int(m)%cfg.Lanes != 0 {
			slices++
		}
		out = append(out, LayerCost{
			Name:        l.Name,
			MACs:        m,
			Slices:      slices,
			ComputeNS:   float64(slices) * add,
			Utilization: m / (float64(slices) * float64(cfg.Lanes)),
		})
	}
	return out, nil
}

// TableRow is one network's row: FPS per design plus improvements over
// the Ambit baseline.
type TableRow struct {
	Network                       string
	AmbitFPS, ELP2IMFPS, DrisaFPS float64
	ELP2IMImprovement             float64
	DrisaImprovement              float64
}

// runner abstracts RunDracc/RunNID for the table builders.
type runner func(n Network, d engine.Engine) (Result, error)

func buildTable(nets []Network, ambitD, elpimD, drisaD engine.Engine, run runner) ([]TableRow, error) {
	rows := make([]TableRow, 0, len(nets))
	for _, n := range nets {
		ra, err := run(n, ambitD)
		if err != nil {
			return nil, fmt.Errorf("cnn: %s on %s: %w", n.Name, ambitD.Name(), err)
		}
		re, err := run(n, elpimD)
		if err != nil {
			return nil, fmt.Errorf("cnn: %s on %s: %w", n.Name, elpimD.Name(), err)
		}
		rd, err := run(n, drisaD)
		if err != nil {
			return nil, fmt.Errorf("cnn: %s on %s: %w", n.Name, drisaD.Name(), err)
		}
		rows = append(rows, TableRow{
			Network:           n.Name,
			AmbitFPS:          ra.FPS,
			ELP2IMFPS:         re.FPS,
			DrisaFPS:          rd.FPS,
			ELP2IMImprovement: re.ImprovementOver(ra),
			DrisaImprovement:  rd.ImprovementOver(ra),
		})
	}
	return rows, nil
}

// Table2 reproduces Table 2: Dracc on the three designs.
func Table2(ambitD, elpimD, drisaD engine.Engine, cfg AccelConfig) ([]TableRow, error) {
	return buildTable(DraccNetworks(), ambitD, elpimD, drisaD,
		func(n Network, d engine.Engine) (Result, error) { return RunDracc(n, d, ambitD, cfg) })
}

// Table3 reproduces Table 3: NID on the three designs.
func Table3(ambitD, elpimD, drisaD engine.Engine, cfg AccelConfig) ([]TableRow, error) {
	return buildTable(NIDNetworks(), ambitD, elpimD, drisaD,
		func(n Network, d engine.Engine) (Result, error) { return RunNID(n, d, cfg) })
}
