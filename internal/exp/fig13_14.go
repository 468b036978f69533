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
	"repro/internal/engine"
	"repro/internal/power"
	"repro/internal/timing"
)

// Fig13 is Figure 13: the bitmap-index case study.
type Fig13 struct {
	Workload bitmap.Workload
	CPU      bitmap.Result      // the CPU baseline
	Runs     [2][]bitmap.Result // each design without, then with, the power constraint
	Weeks    []int              // the weeks sweep's w
	Sweep    []Series           // per design: constrained system speedup at each of Weeks
}

// RunFig13 computes Figure 13.
func RunFig13() (Fig13, error) {
	pp, mod, tp, m := power.DDR31600(), dram.Default(), timing.DDR31600(), cpu.KabyLake()
	ambitWith := func(reserved int) engine.Engine {
		cfg := ambit.DefaultConfig()
		cfg.ReservedRows = reserved
		return ambit.MustNew(cfg)
	}
	f := Fig13{Workload: bitmap.Default(), Weeks: []int{2, 4, 6, 8, 12}}
	var err error
	if f.CPU, err = bitmap.RunCPU(f.Workload, m); err != nil {
		return f, err
	}
	for _, d := range []engine.Engine{ambitWith(4), ambitWith(6), ambitWith(10), elpimWith(nil)} {
		for i := range f.Runs {
			r, err := bitmap.Run(f.Workload, d, mod, tp, pp, m, i == 1)
			if err != nil {
				return f, err
			}
			f.Runs[i] = append(f.Runs[i], r)
		}
		s := Series{Name: d.Name()}
		for _, wk := range f.Weeks {
			wl := bitmap.Workload{Users: f.Workload.Users, Weeks: wk}
			base, err := bitmap.RunCPU(wl, m)
			if err != nil {
				return f, err
			}
			r, err := bitmap.Run(wl, d, mod, tp, pp, m, true)
			if err != nil {
				return f, err
			}
			s.Values = append(s.Values, r.SpeedupOver(base))
		}
		f.Sweep = append(f.Sweep, s)
	}
	return f, nil
}

// WriteText implements Result.
func (f Fig13) WriteText(w io.Writer) {
	fmt.Fprintf(w, "workload: %d users, %d weeks; CPU baseline %.1f query-pairs/s\n\n",
		f.Workload.Users, f.Workload.Weeks, f.CPU.QueriesPerSec)
	for i, label := range []string{"no power constraint", "WITH power constraint"} {
		fmt.Fprintf(w, "(%s)\n", label)
		fmt.Fprintf(w, "%-10s %9s %14s %14s %9s %9s %12s\n",
			"design", "reserved", "sys-speedup", "device(ms)", "banks", "rowops", "energy(µJ)")
		for _, r := range f.Runs[i] {
			fmt.Fprintf(w, "%-10s %9d %13.2fx %14.3f %9.2f %9d %12.1f\n",
				r.Name, r.ReservedRows, r.SpeedupOver(f.CPU), r.DeviceNS/1e6,
				r.EffectiveBanks, r.RowOps, r.DeviceEnergyNJ/1e3)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "weeks sweep (power-constrained, system speedup over CPU):")
	fmt.Fprintf(w, "%-10s", "design")
	for _, wk := range f.Weeks {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("w=%d", wk))
	}
	fmt.Fprintln(w)
	for _, s := range f.Sweep {
		writeRow(w, "%-10s", s.Name, " %6.2fx", s.Values)
	}

	fmt.Fprintln(w, "\npaper shape: Ambit gains 4→6 rows, little 6→10; never catches ELP2IM;")
	fmt.Fprintln(w, "under constraint Ambit device throughput drops up to ~83%, ELP2IM ~56%;")
	fmt.Fprintln(w, "ELP2IM device energy well below Ambit (paper: 17–27% less)")
}

// WriteCSV writes the figure as CSV.
func (f Fig13) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "design,reserved_rows,power_constrained,system_speedup,device_ms,effective_banks,device_energy_uj")
	for _, runs := range f.Runs {
		for _, r := range runs {
			fmt.Fprintf(w, "%s,%d,%t,%.3f,%.4f,%.2f,%.1f\n",
				r.Name, r.ReservedRows, r.PowerConstrained, r.SpeedupOver(f.CPU),
				r.DeviceNS/1e6, r.EffectiveBanks, r.DeviceEnergyNJ/1e3)
		}
	}
}

// Fig14 is Figure 14: the BitWeaving table scan across code widths.
type Fig14 struct {
	CPU          []tablescan.Result   // the CPU BitWeaving baseline at each width
	Scans        [][]tablescan.Result // at each width, each design's LESS-THAN scan
	CompareWidth int
	CompareOps   []tablescan.CmpOp
	Compare      []Series // per design: predicate latency (ns) of each of CompareOps
}

// RunFig14 computes Figure 14, and the full comparator suite at one width.
func RunFig14() (Fig14, error) {
	mod, tp, m := dram.Default(), timing.DDR31600(), cpu.KabyLake()
	designs := []engine.Engine{ambit.MustNew(ambit.DefaultConfig()), drisa.MustNew(drisa.DefaultConfig()), elpimWith(nil)}
	f := Fig14{CompareWidth: 8, CompareOps: []tablescan.CmpOp{tablescan.CmpLT, tablescan.CmpLE,
		tablescan.CmpGT, tablescan.CmpGE, tablescan.CmpEQ, tablescan.CmpNE}}
	for _, width := range []int{4, 8, 12, 16} {
		wl := tablescan.Default(width)
		base, err := tablescan.RunCPU(wl, m)
		if err != nil {
			return f, err
		}
		var scans []tablescan.Result
		for _, d := range designs {
			r, err := tablescan.Run(wl, d, mod, tp, m)
			if err != nil {
				return f, err
			}
			scans = append(scans, r)
		}
		f.CPU, f.Scans = append(f.CPU, base), append(f.Scans, scans)
	}
	for _, d := range designs {
		s := Series{Name: d.Name()}
		for _, op := range f.CompareOps {
			r, err := tablescan.RunCompare(tablescan.Default(f.CompareWidth), op, d, mod, tp, m)
			if err != nil {
				return f, err
			}
			s.Values = append(s.Values, r.PredicateLatencyNS)
		}
		f.Compare = append(f.Compare, s)
	}
	return f, nil
}

// WriteText implements Result.
func (f Fig14) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-6s %-10s %14s %14s %12s %9s\n",
		"width", "design", "sys-speedup", "device(ms)", "pred(ns)", "reserved")
	for i, scans := range f.Scans {
		for _, r := range scans {
			fmt.Fprintf(w, "%-6d %-10s %13.2fx %14.3f %12.1f %9d\n",
				r.Width, r.Name, r.SpeedupOver(f.CPU[i]), r.DeviceNS/1e6, r.PredicateLatencyNS, r.ReservedRows)
		}
	}
	fmt.Fprintf(w, "\ncomparator suite at width %d (per-stripe predicate latency, ns):\n", f.CompareWidth)
	writeRow(w, "%-10s", "design", " %8s", f.CompareOps)
	for _, s := range f.Compare {
		writeRow(w, "%-10s", s.Name, " %8.0f", s.Values)
	}

	fmt.Fprintln(w, "\npaper shape: ELP2IM highest, improvement grows with width;")
	fmt.Fprintln(w, "Drisa_nor outperforms Ambit under the power constraint but has the largest latency")
}

// WriteCSV writes the figure as CSV.
func (f Fig14) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "design,width,system_speedup,device_ms,predicate_ns,tuples_per_sec")
	for i, scans := range f.Scans {
		for _, r := range scans {
			fmt.Fprintf(w, "%s,%d,%.3f,%.4f,%.1f,%.4g\n",
				r.Name, r.Width, r.SpeedupOver(f.CPU[i]), r.DeviceNS/1e6, r.PredicateLatencyNS, r.TuplesPerSec)
		}
	}
}
