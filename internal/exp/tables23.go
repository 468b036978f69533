package exp

import (
	"fmt"
	"io"

	"repro/internal/ambit"
	"repro/internal/apps/cnn"
	"repro/internal/drisa"
	"repro/internal/engine"
)

// CNNRow is one network's row, with the paper's improvements over Ambit.
type CNNRow struct {
	cnn.TableRow
	PaperELP2IM, PaperDrisa float64
}

// Table2 is Table 2: Dracc ternary-weight CNN inference.
type Table2 struct {
	Rows   []CNNRow
	Lenet5 []cnn.LayerCost // Lenet5's frame cost per layer on ELP2IM
}

// Table3 is Table 3: NID binary CNN inference.
type Table3 []CNNRow

// The paper's improvements over Ambit per network: ELP2IM, then Drisa_nor.
var (
	table2Paper = map[string][2]float64{"Lenet5": {1.08, 0.79}, "Cifar10": {1.14, 0.65},
		"Alexnet": {1.14, 0.66}, "VGG16": {1.13, 0.68}, "VGG19": {1.13, 0.66}}
	table3Paper = map[string][2]float64{"Lenet5": {1.32, 0.73}, "Alexnet": {1.11, 0.91},
		"Resnet18": {1.31, 0.74}, "Resnet34": {1.31, 0.74}, "Resnet50": {1.25, 0.79}}
)

// accelDesigns returns Ambit, ELP2IM and Drisa_nor as the CNN
// accelerators configure them (§6.3: accelerators buffer more data, so
// ELP2IM has two reserved rows).
func accelDesigns() (a, e, d engine.Engine) {
	return ambit.MustNew(ambit.DefaultConfig()), elpimWith(twoRows), drisa.MustNew(drisa.DefaultConfig())
}

// withPaper pairs each measured row with the paper's improvements.
func withPaper(measured []cnn.TableRow, paper map[string][2]float64) []CNNRow {
	rows := make([]CNNRow, len(measured))
	for i, r := range measured {
		rows[i] = CNNRow{r, paper[r.Network][0], paper[r.Network][1]}
	}
	return rows
}

// RunTable2 computes Table 2.
func RunTable2() (Table2, error) {
	a, e, d := accelDesigns()
	rows, err := cnn.Table2(a, e, d, cnn.DefaultAccel())
	if err != nil {
		return Table2{}, err
	}
	layers, err := cnn.DraccBreakdown(cnn.LeNet5(), e, a, cnn.DefaultAccel())
	return Table2{withPaper(rows, table2Paper), layers}, err
}

// RunTable3 computes Table 3.
func RunTable3() (Table3, error) {
	a, e, d := accelDesigns()
	rows, err := cnn.Table3(a, e, d, cnn.DefaultAccel())
	return withPaper(rows, table3Paper), err
}

// writeCNNRows writes the rows both tables share.
func writeCNNRows(w io.Writer, rows []CNNRow) {
	fmt.Fprintf(w, "%-10s %12s %12s %12s %9s %9s %9s %9s\n",
		"network", "Ambit FPS", "ELP2IM FPS", "Drisa FPS", "E-impr", "paper", "D-impr", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.1f %12.1f %12.1f %8.2fx %8.2fx %8.2fx %8.2fx\n",
			r.Network, r.AmbitFPS, r.ELP2IMFPS, r.DrisaFPS,
			r.ELP2IMImprovement, r.PaperELP2IM, r.DrisaImprovement, r.PaperDrisa)
	}
}

// WriteText implements Result.
func (t Table2) WriteText(w io.Writer) {
	writeCNNRows(w, t.Rows)
	fmt.Fprintln(w, "absolute FPS differ from the paper's testbed (mapping efficiency is")
	fmt.Fprintln(w, "calibration, see DESIGN.md); the improvement columns are the reproduced result")

	fmt.Fprintln(w, "\nLenet5 per-layer breakdown (ELP2IM):")
	fmt.Fprintf(w, "%-8s %12s %7s %12s %6s\n", "layer", "MACs", "slices", "compute(µs)", "util")
	for _, l := range t.Lenet5 {
		fmt.Fprintf(w, "%-8s %12.0f %7d %12.2f %5.0f%%\n",
			l.Name, l.MACs, l.Slices, l.ComputeNS/1e3, l.Utilization*100)
	}
}

// WriteText implements Result.
func (t Table3) WriteText(w io.Writer) {
	writeCNNRows(w, t)
	fmt.Fprintln(w, "NID's count-heavy kernels give ELP2IM more headroom than Dracc's fixed add")
}
