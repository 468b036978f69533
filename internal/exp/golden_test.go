package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files pin every reproduced number by value: they hold the
// output of `go run ./cmd/elpsim all` (elpsim_all.golden) and of
// `go run ./cmd/elpsim -csv fig11 fig12 fig13 fig14` (elpsim_csv.golden).
// A change that moves a figure fails here at its first differing line;
// such a change regenerates the file with the same command and says in
// CHANGES.md why the number moved.

func TestGoldenRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "elpsim_all.golden", buf.String())
}

func TestGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"fig11", "fig12", "fig13", "fig14"} {
		if _, err := CSV(id, &buf); err != nil {
			t.Fatalf("CSV(%s): %v", id, err)
		}
	}
	checkGolden(t, "elpsim_csv.golden", buf.String())
}

// checkGolden compares got with testdata/name and reports the first line
// where they differ.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	for i := 0; ; i++ {
		if g, w := line(gotLines, i), line(wantLines, i); g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
}

// TestExperimentsDoc renders the measured cells of EXPERIMENTS.md's
// deterministic tables from the typed results, and fails on the first
// rendered row its section lacks: the record of paper against measured
// values cannot drift from what elpsim prints.
func TestExperimentsDoc(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	want := func(heading string, rows ...string) {
		t.Helper()
		start := strings.Index(doc, "\n## "+heading)
		if start < 0 {
			t.Fatalf("EXPERIMENTS.md has no section %q", heading)
		}
		section := doc[start+1:]
		if end := strings.Index(section, "\n## "); end >= 0 {
			section = section[:end]
		}
		for _, row := range rows {
			if !strings.Contains(section, "\n"+row) {
				t.Fatalf("EXPERIMENTS.md section %q lacks the row\n%s", heading, row)
			}
		}
	}
	cells := func(format string, vals []float64) string {
		var b strings.Builder
		for _, v := range vals {
			fmt.Fprintf(&b, format, v)
		}
		return b.String()
	}

	t1, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t1 {
		paper := "—"
		if r.PaperNS != 0 {
			paper = fmt.Sprintf("%.0f", r.PaperNS)
		}
		want("Table 1", fmt.Sprintf("| %s | %s | %.1f |", r.Kind, paper, r.ModelNS))
	}

	f8, err := RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f8 {
		want("Figure 8", fmt.Sprintf("| %s | %d | ~%.0f | %.1f |", r.Name, r.Prims, r.PaperNS, r.ModelNS))
	}

	f12, err := RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range f12.Ops {
		lat := make([]float64, len(f12.Designs))
		for j, c := range f12.Designs {
			lat[j] = c.Stats[i].LatencyNS
		}
		want("Figure 12", fmt.Sprintf("| %s |%s", op, cells(" %.1f |", lat)))
	}
	for _, s := range f12.Speedups {
		want("Figure 12", fmt.Sprintf("| avg speedup of ELP2IM_%d vs %s | %.2f× | %.2f× |",
			s.ReservedRows, s.Baseline, s.Paper, s.Measured))
	}

	f13, err := RunFig13()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range f13.Runs[0] {
		c := f13.Runs[1][i]
		want("Figure 13", fmt.Sprintf("| %s | %d | %.2f× | %.2f× | %.3f | %.3f |", r.Name, r.ReservedRows,
			r.SpeedupOver(f13.CPU), c.SpeedupOver(f13.CPU), r.DeviceNS/1e6, c.DeviceNS/1e6))
	}

	f14, err := RunFig14()
	if err != nil {
		t.Fatal(err)
	}
	for i, scans := range f14.Scans {
		speedups := make([]float64, len(scans))
		for j, r := range scans {
			speedups[j] = r.SpeedupOver(f14.CPU[i])
		}
		want("Figure 14", fmt.Sprintf("| %d |%s", scans[0].Width, cells(" %.2f× |", speedups)))
	}

	t2, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range [][]CNNRow{t2.Rows, t3} {
		for _, r := range rows {
			want(fmt.Sprintf("Table %d", i+2), fmt.Sprintf("| %s | %.2f× | %.2f× | %.2f× | %.2f× |",
				r.Network, r.PaperELP2IM, r.ELP2IMImprovement, r.PaperDrisa, r.DrisaImprovement))
		}
	}
}
