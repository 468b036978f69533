// BitWeaving table scan (the §6.3.2 workload): store a column of k-bit
// codes vertically in DRAM rows and evaluate `col < C` with bit-serial
// in-DRAM logic, comparing the three designs on the real device model.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	elp2im "repro"
	"repro/internal/ambit"
	"repro/internal/apps/tablescan"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/timing"
)

const (
	tuples = 8192 // one subarray row of tuples for the functional part
	width  = 8
	cutoff = 137 // predicate: col < 137
)

func main() {
	metrics := flag.Bool("metrics", false, "print the process-wide metrics snapshot after the run")
	tracePath := flag.String("trace", "", "stream Chrome trace_event spans to this file")
	flag.Parse()

	// The scan drives the engines directly (no facade Accelerator), so the
	// observability hooks go through the process-wide context.
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tr := elp2im.NewJSONLTracer(f)
		elp2im.SetGlobalTracer(tr)
		defer func() {
			elp2im.SetGlobalTracer(nil)
			tr.Close()
			f.Close()
			fmt.Printf("wrote %d trace spans to %s\n", tr.Spans(), *tracePath)
		}()
	}
	if *metrics {
		defer func() {
			fmt.Println("\n==== observability snapshot (process-wide) ====")
			fmt.Print(elp2im.GlobalSnapshot().Text())
		}()
	}

	rng := rand.New(rand.NewSource(7))
	values := make([]uint64, tuples)
	for i := range values {
		values[i] = rng.Uint64() & (1<<width - 1)
	}
	wl := tablescan.Workload{Tuples: tuples, Width: width, Constant: cutoff}

	// Functional pass: run the predicate through the ELP2IM engine on the
	// device model, tuple-exact.
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 32, Columns: tuples, DualContactRows: 1,
	}
	sub := dram.NewSubarray(cfg)
	cols := tablescan.Verticalize(values, width)
	rows := tablescan.PredicateRows{Bits: make([]int, width), LT: 20, EQ: 21, T1: 22, T2: 23}
	for b := 0; b < width; b++ {
		rows.Bits[b] = b
		sub.LoadRow(b, cols[b])
	}
	eng := elpim.MustNew(elpim.DefaultConfig())
	if err := tablescan.ExecutePredicate(sub, eng, wl, rows); err != nil {
		log.Fatal(err)
	}
	matches := sub.RowData(rows.LT).Popcount()
	golden := wl.GoldenPredicate(values).Popcount()
	fmt.Printf("SELECT COUNT(*) WHERE col < %d over %d %d-bit tuples\n", cutoff, tuples, width)
	fmt.Printf("in-DRAM result: %d matches; host golden: %d ✓\n\n", matches, golden)
	if matches != golden {
		log.Fatal("predicate mismatch")
	}

	// Throughput pass: the paper-scale scan (64M tuples) across widths.
	mod := dram.Default()
	tp := timing.DDR31600()
	m := cpu.KabyLake()
	designs := []engine.Engine{
		elpim.MustNew(elpim.DefaultConfig()),
		ambit.MustNew(ambit.DefaultConfig()),
		drisa.MustNew(drisa.DefaultConfig()),
	}
	fmt.Println("paper-scale scan (64M tuples, power-constrained):")
	fmt.Printf("%-6s %-10s %16s %14s\n", "width", "design", "Mtuples/s", "vs CPU")
	for _, k := range []int{4, 8, 16} {
		w := tablescan.Default(k)
		base, err := tablescan.RunCPU(w, m)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range designs {
			r, err := tablescan.Run(w, d, mod, tp, m)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-6d %-10s %16.1f %13.2fx\n",
				k, r.Name, r.TuplesPerSec/1e6, r.SpeedupOver(base))
		}
	}
}
