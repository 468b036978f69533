// Package exp regenerates every table and figure of the paper's evaluation
// section (§6). Each experiment is one function that computes a typed
// result: its measured values, beside the paper's wherever the paper
// states one. elpsim's text, its CSV and the tests all render or read that
// one result.
package exp

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/elpim"
)

// Result is a computed experiment; WriteText renders what elpsim prints.
type Result interface{ WriteText(w io.Writer) }

// csvResult is a result with a CSV form: one row per data point.
type csvResult interface{ WriteCSV(w io.Writer) }

// Experiment is one table or figure.
type Experiment struct {
	ID, Title string                 // identifier ("table1", "fig12", ...) and description
	Run       func() (Result, error) // computes the result
	CSV       bool                   // whether the result has a CSV form
}

// experiment makes a table entry of a typed runner, with a CSV form when
// R has one.
func experiment[R Result](id, title string, run func() (R, error)) Experiment {
	var zero R
	_, csv := any(zero).(csvResult)
	return Experiment{ID: id, Title: title, CSV: csv, Run: func() (Result, error) { return run() }}
}

// experiments holds every table and figure of §6, Figure 8 and the
// ablations, in ID order.
var experiments = []Experiment{
	experiment("ablation", "Ablations: each ELP2IM design choice isolated (beyond the paper)", RunAblation),
	experiment("fig10", "Figure 10: waveforms of APP-AP sequences (OR, AND)", RunFig10),
	experiment("fig11", "Figure 11: error rate under process variation (random / systematic)", RunFig11),
	experiment("fig12", "Figure 12: latency and power of basic logic operations", RunFig12),
	experiment("fig13", "Figure 13: Bitmap case study (16M users, w weeks)", RunFig13),
	experiment("fig14", "Figure 14: BitWeaving table scan vs data width", RunFig14),
	experiment("fig8", "Figure 8: XOR primitive-sequence optimization (519 → 297 ns)", RunFig8),
	experiment("fig9", "Figure 9: hardware cost of regular DRAM, Ambit, and ELP2IM", RunFig9),
	experiment("table1", "Table 1: primitives of ELP2IM (DDR3-1600)", RunTable1),
	experiment("table2", "Table 2: Dracc (ternary-weight CNN) FPS on the three designs", RunTable2),
	experiment("table3", "Table 3: NID (binary CNN) FPS on the three designs", RunTable3),
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	i := slices.IndexFunc(experiments, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		return Experiment{}, false
	}
	return experiments[i], true
}

// IDs returns all experiment IDs in ID order.
func IDs() []string { return ids(func(Experiment) bool { return true }) }

// CSVIDs returns the experiments with a CSV form.
func CSVIDs() []string { return ids(func(e Experiment) bool { return e.CSV }) }

// ids returns the IDs of the experiments keep selects.
func ids(keep func(Experiment) bool) []string {
	var out []string
	for _, e := range experiments {
		if keep(e) {
			out = append(out, e.ID)
		}
	}
	return out
}

// WriteText computes the experiment and writes its text under a header.
func (e Experiment) WriteText(w io.Writer) error {
	r, err := e.Run()
	if err != nil {
		return fmt.Errorf("exp: %s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "==== %s — %s ====\n", e.ID, e.Title)
	r.WriteText(w)
	fmt.Fprintln(w)
	return nil
}

// RunAll regenerates every experiment in ID order.
func RunAll(w io.Writer) error {
	for _, e := range experiments {
		if err := e.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// CSV computes an experiment and writes its machine-readable form. It
// reports whether the experiment has one.
func CSV(id string, w io.Writer) (bool, error) {
	e, ok := Lookup(id)
	if !ok || !e.CSV {
		return false, nil
	}
	r, err := e.Run()
	if err != nil {
		return true, fmt.Errorf("exp: %s: %w", id, err)
	}
	r.(csvResult).WriteCSV(w)
	return true, nil
}

// Series is one named row of a sweep: a value per column.
type Series struct {
	Name   string
	Values []float64
}

// writeRow writes label, then each cell, then a newline.
func writeRow[T any](w io.Writer, labelFmt string, label any, cellFmt string, cells []T) {
	fmt.Fprintf(w, labelFmt, label)
	for _, c := range cells {
		fmt.Fprintf(w, cellFmt, c)
	}
	fmt.Fprintln(w)
}

// elpimWith returns an ELP2IM engine on the default configuration, mutated.
func elpimWith(mutate func(*elpim.Config)) *elpim.Engine {
	cfg := elpim.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return elpim.MustNew(cfg)
}

// The mutations: without each §4.2 optimization, and with §4.2.3's second row.
func noIsolation(c *elpim.Config)     { c.UseIsolation = false }
func noTruncation(c *elpim.Config)    { c.UseRestoreTruncation = false }
func noOptimizations(c *elpim.Config) { noIsolation(c); noTruncation(c) }
func twoRows(c *elpim.Config)         { c.ReservedRows = 2 }
