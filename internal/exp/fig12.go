package exp

import (
	"fmt"
	"io"

	"repro/internal/ambit"
	"repro/internal/drisa"
	"repro/internal/engine"
	"repro/internal/power"
)

// Fig12 is Figure 12: latency and power of the basic operations.
type Fig12 struct {
	Ops      []engine.Op // row order
	Designs  []OpCosts   // column order
	Speedups []Speedup
}

// OpCosts is one design's cost of each of Fig12.Ops.
type OpCosts struct {
	Design    string
	Stats     []engine.Stats
	PowerW    []float64 // average power: dynamic plus background energy over the latency
	AvgPowerW float64
}

// Speedup is ELP2IM's average speedup over a baseline, beside the paper's.
type Speedup struct {
	ReservedRows    int // ELP2IM's
	Baseline        string
	Measured, Paper float64
}

// RunFig12 computes Figure 12.
func RunFig12() (Fig12, error) {
	pp := power.DDR31600()
	dri, amb, elp := drisa.MustNew(drisa.DefaultConfig()), ambit.MustNew(ambit.DefaultConfig()), elpimWith(nil)
	f := Fig12{Ops: engine.BasicOps()}
	for _, e := range []engine.Engine{dri, amb, elp} {
		c := OpCosts{Design: e.Name()}
		for _, op := range f.Ops {
			st := e.OpStats(op)
			p := (st.EnergyNJ + pp.BackgroundPower*e.BackgroundFactor()*st.LatencyNS) / st.LatencyNS
			c.Stats = append(c.Stats, st)
			c.PowerW = append(c.PowerW, p)
			c.AvgPowerW += p
		}
		c.AvgPowerW /= float64(len(f.Ops))
		f.Designs = append(f.Designs, c)
	}
	speedup := func(e, base engine.Engine, paper float64) Speedup {
		total := 0.0
		for _, op := range f.Ops {
			total += base.OpStats(op).LatencyNS / e.OpStats(op).LatencyNS
		}
		return Speedup{e.ReservedRows(), base.Name(), total / float64(len(f.Ops)), paper}
	}
	elp2 := elpimWith(twoRows) // XOR/XNOR drop to sequence 6
	f.Speedups = []Speedup{
		speedup(elp, amb, 1.17), speedup(elp, dri, 1.12),
		speedup(elp2, amb, 1.23), speedup(elp2, dri, 1.16),
	}
	return f, nil
}

// WriteText implements Result.
func (f Fig12) WriteText(w io.Writer) {
	fmt.Fprintln(w, "(a) latency, ns")
	f.writeGrid(w, func(c OpCosts, i int) string { return fmt.Sprintf(" %10.1f", c.Stats[i].LatencyNS) })
	for i, label := range []string{"avg ELP2IM speedup:", "with one more buffer: "} {
		a, d := f.Speedups[2*i], f.Speedups[2*i+1]
		fmt.Fprintf(w, "%s %.2fx vs %s (paper %.2fx), %.2fx vs %s (paper %.2fx)\n",
			label, a.Measured, a.Baseline, a.Paper, d.Measured, d.Baseline, d.Paper)
	}
	fmt.Fprintln(w, "\n(b) average power, W")
	f.writeGrid(w, func(c OpCosts, i int) string { return fmt.Sprintf(" %10.3f", c.PowerW[i]) })
	fmt.Fprintf(w, "avg power: Drisa %.3f W, Ambit %.3f W, ELP2IM %.3f W (paper: ELP2IM ~3%% below Ambit, Drisa highest)\n",
		f.Designs[0].AvgPowerW, f.Designs[1].AvgPowerW, f.Designs[2].AvgPowerW)
}

// writeGrid writes one op-by-design table of the figure.
func (f Fig12) writeGrid(w io.Writer, cell func(c OpCosts, i int) string) {
	fmt.Fprintf(w, "%-10s", "op")
	for _, c := range f.Designs {
		fmt.Fprintf(w, " %10s", c.Design)
	}
	fmt.Fprintln(w)
	for i, op := range f.Ops {
		fmt.Fprintf(w, "%-10s", op)
		for _, c := range f.Designs {
			fmt.Fprint(w, cell(c, i))
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV writes the figure as CSV.
func (f Fig12) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "design,op,latency_ns,power_w,commands,wordlines")
	for _, c := range f.Designs {
		for i, op := range f.Ops {
			st := c.Stats[i]
			fmt.Fprintf(w, "%s,%s,%.1f,%.4f,%d,%d\n", c.Design, op, st.LatencyNS, c.PowerW[i], st.Commands, st.Wordlines)
		}
	}
}
