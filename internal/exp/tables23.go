package exp

import (
	"fmt"
	"io"

	"repro/internal/ambit"
	"repro/internal/apps/cnn"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
)

func init() {
	register(Runner{
		ID:    "table2",
		Title: "Table 2: Dracc (ternary-weight CNN) FPS on the three designs",
		Run:   runTable2,
	})
	register(Runner{
		ID:    "table3",
		Title: "Table 3: NID (binary CNN) FPS on the three designs",
		Run:   runTable3,
	})
}

func accelDesigns() (ambitD, elpimD, drisaD engine.Engine) {
	ecfg := elpim.DefaultConfig()
	ecfg.ReservedRows = 2 // §6.3: accelerators buffer more data
	return ambit.MustNew(ambit.DefaultConfig()),
		elpim.MustNew(ecfg),
		drisa.MustNew(drisa.DefaultConfig())
}

// paper improvement rows for annotation.
var (
	table2PaperELP2IM = map[string]float64{"Lenet5": 1.08, "Cifar10": 1.14, "Alexnet": 1.14, "VGG16": 1.13, "VGG19": 1.13}
	table2PaperDrisa  = map[string]float64{"Lenet5": 0.79, "Cifar10": 0.65, "Alexnet": 0.66, "VGG16": 0.68, "VGG19": 0.66}
	table3PaperELP2IM = map[string]float64{"Lenet5": 1.32, "Alexnet": 1.11, "Resnet18": 1.31, "Resnet34": 1.31, "Resnet50": 1.25}
	table3PaperDrisa  = map[string]float64{"Lenet5": 0.73, "Alexnet": 0.91, "Resnet18": 0.74, "Resnet34": 0.74, "Resnet50": 0.79}
)

func printCNNTable(w io.Writer, rows []cnn.TableRow, paperE, paperD map[string]float64) {
	fmt.Fprintf(w, "%-10s %12s %12s %12s %9s %9s %9s %9s\n",
		"network", "Ambit FPS", "ELP2IM FPS", "Drisa FPS",
		"E-impr", "paper", "D-impr", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.1f %12.1f %12.1f %8.2fx %8.2fx %8.2fx %8.2fx\n",
			r.Network, r.AmbitFPS, r.ELP2IMFPS, r.DrisaFPS,
			r.ELP2IMImprovement, paperE[r.Network],
			r.DrisaImprovement, paperD[r.Network])
	}
}

func runTable2(w io.Writer) error {
	a, e, d := accelDesigns()
	rows, err := cnn.Table2(a, e, d, cnn.DefaultAccel())
	if err != nil {
		return err
	}
	printCNNTable(w, rows, table2PaperELP2IM, table2PaperDrisa)
	fmt.Fprintln(w, "absolute FPS differ from the paper's testbed (mapping efficiency is")
	fmt.Fprintln(w, "calibration, see DESIGN.md); the improvement columns are the reproduced result")

	// Per-layer breakdown for the smallest network: where the frame time
	// goes and how full the lane fabric is.
	layers, err := cnn.DraccBreakdown(cnn.LeNet5(), e, a, cnn.DefaultAccel())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nLenet5 per-layer breakdown (ELP2IM):")
	fmt.Fprintf(w, "%-8s %12s %7s %12s %6s\n", "layer", "MACs", "slices", "compute(µs)", "util")
	for _, l := range layers {
		fmt.Fprintf(w, "%-8s %12.0f %7d %12.2f %5.0f%%\n",
			l.Name, l.MACs, l.Slices, l.ComputeNS/1e3, l.Utilization*100)
	}
	return nil
}

func runTable3(w io.Writer) error {
	a, e, d := accelDesigns()
	rows, err := cnn.Table3(a, e, d, cnn.DefaultAccel())
	if err != nil {
		return err
	}
	printCNNTable(w, rows, table3PaperELP2IM, table3PaperDrisa)
	fmt.Fprintln(w, "NID's count-heavy kernels give ELP2IM more headroom than Dracc's fixed add")
	return nil
}
