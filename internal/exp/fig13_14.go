package exp

import (
	"fmt"
	"io"

	"repro/internal/ambit"
	"repro/internal/apps/bitmap"
	"repro/internal/apps/tablescan"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/power"
	"repro/internal/timing"
)

func init() {
	register(Runner{
		ID:    "fig13",
		Title: "Figure 13: Bitmap case study (16M users, w weeks)",
		Run:   runFig13,
	})
	register(Runner{
		ID:    "fig14",
		Title: "Figure 14: BitWeaving table scan vs data width",
		Run:   runFig14,
	})
}

func bitmapDesigns() []engine.Engine {
	mk := func(reserved int) engine.Engine {
		cfg := ambit.DefaultConfig()
		cfg.ReservedRows = reserved
		return ambit.MustNew(cfg)
	}
	return []engine.Engine{
		mk(4), mk(6), mk(10),
		elpim.MustNew(elpim.DefaultConfig()),
	}
}

func runFig13(w io.Writer) error {
	pp := power.DDR31600()
	wl := bitmap.Default()
	mod := dram.Default()
	tp := timing.DDR31600()
	m := cpu.KabyLake()
	base, err := bitmap.RunCPU(wl, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload: %d users, %d weeks; CPU baseline %.1f query-pairs/s\n\n",
		wl.Users, wl.Weeks, base.QueriesPerSec)

	for _, constrained := range []bool{false, true} {
		label := "no power constraint"
		if constrained {
			label = "WITH power constraint"
		}
		fmt.Fprintf(w, "(%s)\n", label)
		fmt.Fprintf(w, "%-10s %9s %14s %14s %9s %9s %12s\n",
			"design", "reserved", "sys-speedup", "device(ms)", "banks", "rowops", "energy(µJ)")
		for _, d := range bitmapDesigns() {
			r, err := bitmap.Run(wl, d, mod, tp, pp, m, constrained)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s %9d %13.2fx %14.3f %9.2f %9d %12.1f\n",
				r.Name, r.ReservedRows, r.SpeedupOver(base), r.DeviceNS/1e6,
				r.EffectiveBanks, r.RowOps, r.DeviceEnergyNJ/1e3)
		}
		fmt.Fprintln(w)
	}

	// Weeks sweep (the paper's "past w weeks" parameter).
	fmt.Fprintln(w, "weeks sweep (power-constrained, system speedup over CPU):")
	sweep := []int{2, 4, 6, 8, 12}
	fmt.Fprintf(w, "%-10s", "design")
	for _, wk := range sweep {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("w=%d", wk))
	}
	fmt.Fprintln(w)
	for _, d := range bitmapDesigns() {
		fmt.Fprintf(w, "%-10s", d.Name())
		for _, wk := range sweep {
			wlk := bitmap.Workload{Users: wl.Users, Weeks: wk}
			basek, err := bitmap.RunCPU(wlk, m)
			if err != nil {
				return err
			}
			r, err := bitmap.Run(wlk, d, mod, tp, pp, m, true)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %6.2fx", r.SpeedupOver(basek))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\npaper shape: Ambit gains 4→6 rows, little 6→10; never catches ELP2IM;")
	fmt.Fprintln(w, "under constraint Ambit device throughput drops up to ~83%, ELP2IM ~56%;")
	fmt.Fprintln(w, "ELP2IM device energy well below Ambit (paper: 17–27% less)")
	return nil
}

// fig14Designs returns the table-scan designs in display order.
func fig14Designs() []engine.Engine {
	return []engine.Engine{
		ambit.MustNew(ambit.DefaultConfig()),
		drisa.MustNew(drisa.DefaultConfig()),
		elpim.MustNew(elpim.DefaultConfig()),
	}
}

func runFig14(w io.Writer) error {
	mod := dram.Default()
	tp := timing.DDR31600()
	m := cpu.KabyLake()
	designs := fig14Designs()
	fmt.Fprintf(w, "%-6s %-10s %14s %14s %12s %9s\n",
		"width", "design", "sys-speedup", "device(ms)", "pred(ns)", "reserved")
	for _, width := range []int{4, 8, 12, 16} {
		wl := tablescan.Default(width)
		base, err := tablescan.RunCPU(wl, m)
		if err != nil {
			return err
		}
		for _, d := range designs {
			r, err := tablescan.Run(wl, d, mod, tp, m)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-6d %-10s %13.2fx %14.3f %12.1f %9d\n",
				width, r.Name, r.SpeedupOver(base), r.DeviceNS/1e6,
				r.PredicateLatencyNS, r.ReservedRows)
		}
	}
	// Extension: the full BitWeaving comparator suite at width 8.
	fmt.Fprintln(w, "\ncomparator suite at width 8 (per-stripe predicate latency, ns):")
	fmt.Fprintf(w, "%-10s", "design")
	ops := []tablescan.CmpOp{tablescan.CmpLT, tablescan.CmpLE, tablescan.CmpGT,
		tablescan.CmpGE, tablescan.CmpEQ, tablescan.CmpNE}
	for _, op := range ops {
		fmt.Fprintf(w, " %8s", op)
	}
	fmt.Fprintln(w)
	for _, d := range designs {
		fmt.Fprintf(w, "%-10s", d.Name())
		for _, op := range ops {
			r, err := tablescan.RunCompare(tablescan.Default(8), op, d, mod, tp, m)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %8.0f", r.PredicateLatencyNS)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "\npaper shape: ELP2IM highest, improvement grows with width;")
	fmt.Fprintln(w, "Drisa_nor outperforms Ambit under the power constraint but has the largest latency")
	return nil
}
