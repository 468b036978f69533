package exp

import (
	"fmt"
	"io"

	"repro/internal/ambit"
	"repro/internal/drisa"
	"repro/internal/engine"
)

// Fig9 is Figure 9: the hardware cost of regular DRAM and each design.
type Fig9 struct {
	Rows []HardwareRow
	// AreaSaving is how far ELP2IM's array overhead lies below Ambit's,
	// as a fraction; PaperAreaSaving is §5.2's.
	AreaSaving, PaperAreaSaving float64
}

// HardwareRow is one design's reserved rows and area overhead.
type HardwareRow struct {
	Design, Notes string
	ReservedRows  int
	AreaPercent   float64
}

// RunFig9 computes Figure 9.
func RunFig9() (Fig9, error) {
	a := ambit.MustNew(ambit.DefaultConfig())
	e := elpimWith(nil)
	row := func(d engine.Engine, notes string) HardwareRow {
		return HardwareRow{d.Name(), notes, d.ReservedRows(), d.AreaOverheadPercent()}
	}
	return Fig9{Rows: []HardwareRow{
		{"DRAM", "(baseline)", 0, 0},
		row(a, "B-group: T0–T3 + 2 dual-contact rows (4 physical) + C0/C1; special triple-row decoder; half-density region"),
		row(e, "1 dual-contact row with separate driver; split-EQ metal change; ~0.8% isolation transistor"),
		row(elpimWith(twoRows), "accelerator configuration (+1 reserved row for sequence-6 XOR)"),
		row(drisa.MustNew(drisa.DefaultConfig()), "NOR gate + latch per sense amplifier; no reserved rows"),
	}, AreaSaving: 1 - e.AreaOverheadPercent()/a.AreaOverheadPercent(), PaperAreaSaving: 0.22}, nil
}

// WriteText implements Result.
func (f Fig9) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-12s %9s %10s  %s\n", "design", "reserved", "area(%)", "modifications")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-12s %9d %10.2f  %s\n", r.Design, r.ReservedRows, r.AreaPercent, r.Notes)
	}
	fmt.Fprintf(w, "\nELP2IM array overhead is %.0f%% below Ambit's (paper §5.2: %.0f%% less)\n",
		f.AreaSaving*100, f.PaperAreaSaving*100)
	fmt.Fprintln(w, "Drisa_nor: \"even for the simplest NOR based design, it still increases 24% area\"")
}
