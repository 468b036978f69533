package exp

import (
	"fmt"
	"io"

	"repro/internal/analog"
	"repro/internal/timing"
)

// Fig10 is Figure 10: bitline waveforms of two-cycle APP-AP operations.
type Fig10 []analog.Waveform

// RunFig10 computes Figure 10.
func RunFig10() (Fig10, error) {
	c, tp := analog.Default(), timing.DDR31600()
	sim := func(op analog.TwoCycleOp, a, b bool) analog.Waveform { return analog.SimulateAPPAP(c, tp, op, a, b) }
	return Fig10{
		sim(analog.TwoCycleOR, true, false),  // Figure 4 case 1
		sim(analog.TwoCycleOR, false, false), // Figure 4 case 2
		sim(analog.TwoCycleAND, false, true),
		sim(analog.TwoCycleAND, true, true),
	}, nil
}

// WriteText implements Result.
func (f Fig10) WriteText(w io.Writer) {
	for _, wf := range f {
		fmt.Fprint(w, wf.RenderASCII(100))
	}
	fmt.Fprintln(w, "full traces: cmd/waveform emits CSV for plotting")
}

// The Monte-Carlo trial count and seed of every error-rate point.
const (
	mcTrials = 20000
	mcSeed   = 42
)

// Fig11 is Figure 11: error rate against process variation σ.
type Fig11 struct {
	Sigmas     []float64 // σ of each point, as a fraction
	Coupling   float64   // bitline coupling capacitance, as a fraction of Cb
	Variations []analog.Variation
	Curves     [][]Series // per variation: each device's error rate at each of Sigmas
}

// RunFig11 computes Figure 11.
func RunFig11() (Fig11, error) {
	c := analog.Default()
	f := Fig11{Sigmas: []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}, Coupling: c.CouplingFraction,
		Variations: []analog.Variation{analog.VariationRandom, analog.VariationSystematic}}
	for _, vk := range f.Variations {
		var curves []Series
		for _, d := range []analog.Device{analog.DeviceDRAM, analog.DeviceAmbit, analog.DeviceELP2IM, analog.DeviceELP2IMComplementary} {
			curves = append(curves, Series{d.String(), analog.ErrorCurve(c, d, vk, f.Sigmas, mcTrials, mcSeed)})
		}
		f.Curves = append(f.Curves, curves)
	}
	return f, nil
}

// WriteText implements Result.
func (f Fig11) WriteText(w io.Writer) {
	for i, vk := range f.Variations {
		fmt.Fprintf(w, "(%s process variation, coupling = %.0f%% of Cb)\n", vk, f.Coupling*100)
		fmt.Fprintf(w, "%-22s", "sigma")
		for _, s := range f.Sigmas {
			fmt.Fprintf(w, " %8.0f%%", s*100)
		}
		fmt.Fprintln(w)
		for _, cv := range f.Curves[i] {
			writeRow(w, "%-22s", cv.Name, " %9.2e", cv.Values)
		}
	}
	fmt.Fprintln(w, "paper shape: Ambit worst (esp. under random PV), ELP2IM between Ambit and DRAM")
}

// WriteCSV writes the figure as CSV.
func (f Fig11) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "variation,device,sigma,error_rate")
	for i, vk := range f.Variations {
		for _, cv := range f.Curves[i] {
			for j, s := range f.Sigmas {
				fmt.Fprintf(w, "%s,%s,%.2f,%.6e\n", vk, cv.Name, s, cv.Values[j])
			}
		}
	}
}
