package exp

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analog"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of §6 (plus Figure 8 and the ablations).
	want := []string{"ablation", "fig10", "fig11", "fig12", "fig13", "fig14", "fig8", "fig9", "table1", "table2", "table3"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("experiments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments = %v, want %v", got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	e, ok := Lookup("table1")
	if !ok || e.ID != "table1" || e.Run == nil {
		t.Fatal("Lookup(table1) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted unknown id")
	}
}

// TestEveryRunnerProducesOutput runs each experiment of the table twice.
// Both runs must succeed and return deep-equal results, so no figure
// depends on process-wide memo state or on what ran before it, and the
// result must render text.
func TestEveryRunnerProducesOutput(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.ID, func(t *testing.T) {
			first, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			second, err := e.Run()
			if err != nil {
				t.Fatalf("%s: second run: %v", e.ID, err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("%s: a second run returned a different result", e.ID)
			}
			var buf bytes.Buffer
			first.WriteText(&buf)
			if buf.Len() == 0 {
				t.Fatalf("%s rendered no text", e.ID)
			}
		})
	}
}

// TestTable1Output checks that every primitive latency the paper gives is
// reproduced within 1 ns.
func TestTable1Output(t *testing.T) {
	tab, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range tab {
		if r.PaperNS == 0 {
			continue
		}
		n++
		if math.Abs(r.ModelNS-r.PaperNS) > 1 {
			t.Errorf("%s: model %.1f ns, paper %.0f ns", r.Kind, r.ModelNS, r.PaperNS)
		}
	}
	if n != 6 {
		t.Fatalf("compared %d primitives with the paper, want 6", n)
	}
}

// TestFig8Output checks that every rung of the XOR ladder is within 1 ns of
// the paper's.
func TestFig8Output(t *testing.T) {
	f, err := RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 5 {
		t.Fatalf("%d rungs, want 5", len(f))
	}
	for _, r := range f {
		if math.Abs(r.ModelNS-r.PaperNS) > 1 {
			t.Errorf("%s: model %.1f ns, paper %.0f ns", r.Name, r.ModelNS, r.PaperNS)
		}
	}
}

// TestFig11Output checks Figure 11's ordering at every σ of both
// variations: DRAM ≤ ELP2IM ≤ Ambit, and the complementary strategy
// ≤ ELP2IM.
func TestFig11Output(t *testing.T) {
	f, err := RunFig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Variations) != 2 {
		t.Fatalf("%d variations, want random and systematic", len(f.Variations))
	}
	for i, v := range f.Variations {
		r := map[string][]float64{}
		for _, c := range f.Curves[i] {
			r[c.Name] = c.Values
		}
		if len(r) != 4 {
			t.Fatalf("%s variation has %d curves, want 4", v, len(r))
		}
		for j, sigma := range f.Sigmas {
			dram, amb := r[analog.DeviceDRAM.String()][j], r[analog.DeviceAmbit.String()][j]
			elp, comp := r[analog.DeviceELP2IM.String()][j], r[analog.DeviceELP2IMComplementary.String()][j]
			if !(dram <= elp && elp <= amb && comp <= elp) {
				t.Errorf("%s σ=%.2f: DRAM %.2e, ELP2IM %.2e, Ambit %.2e, complementary %.2e",
					v, sigma, dram, elp, amb, comp)
			}
		}
	}
}

// TestFig12Output checks ELP2IM's four average speedups against the
// paper's (1.17×, 1.12×, 1.23×, 1.16×) within 5%.
func TestFig12Output(t *testing.T) {
	f, err := RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Speedups) != 4 {
		t.Fatalf("%d speedups, want 4", len(f.Speedups))
	}
	for _, s := range f.Speedups {
		if math.Abs(s.Measured/s.Paper-1) > 0.05 {
			t.Errorf("ELP2IM_%d vs %s: %.3fx, paper %.2fx", s.ReservedRows, s.Baseline, s.Measured, s.Paper)
		}
	}
}

// cnnShape checks that ELP2IM beats Ambit and Drisa_nor trails it on
// every network, and returns ELP2IM's average improvement.
func cnnShape(t *testing.T, rows []CNNRow, want int) float64 {
	t.Helper()
	if len(rows) != want {
		t.Fatalf("%d networks, want %d", len(rows), want)
	}
	sum := 0.0
	for _, r := range rows {
		if r.ELP2IMImprovement <= 1 || r.DrisaImprovement >= 1 {
			t.Errorf("%s: ELP2IM %.3fx, Drisa_nor %.3fx over Ambit", r.Network, r.ELP2IMImprovement, r.DrisaImprovement)
		}
		sum += r.ELP2IMImprovement
	}
	return sum / float64(len(rows))
}

// TestTable2Output checks Table 2's shape.
func TestTable2Output(t *testing.T) {
	tab, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	cnnShape(t, tab.Rows, 5)
}

// TestTable3Output checks Table 3's shape and the cross-table claim: NID's
// count-heavy kernels give ELP2IM more headroom than Dracc's add.
func TestTable3Output(t *testing.T) {
	t2, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	avg2 := cnnShape(t, t2.Rows, 5)
	if avg3 := cnnShape(t, t3, 5); avg3 <= avg2 {
		t.Errorf("ELP2IM average: Table 3 %.3fx, not above Table 2's %.3fx", avg3, avg2)
	}
}

func TestCSVEmitters(t *testing.T) {
	want := []string{"fig11", "fig12", "fig13", "fig14"}
	got := CSVIDs()
	if len(got) != len(want) {
		t.Fatalf("CSV ids = %v, want %v", got, want)
	}
	for _, id := range want {
		var buf bytes.Buffer
		ok, err := CSV(id, &buf)
		if err != nil || !ok {
			t.Fatalf("CSV(%s): ok=%v err=%v", id, ok, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 5 {
			t.Fatalf("CSV(%s) has only %d lines", id, len(lines))
		}
		header := strings.Count(lines[0], ",")
		for i, line := range lines {
			if strings.Count(line, ",") != header {
				t.Fatalf("CSV(%s) line %d has inconsistent columns: %q", id, i, line)
			}
		}
	}
	if ok, _ := CSV("table1", &bytes.Buffer{}); ok {
		t.Fatal("table1 should have no CSV form")
	}
}
