package exp

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// Table1 is Table 1: the latency of each ELP2IM primitive on DDR3-1600.
type Table1 []PrimitiveRow

// PrimitiveRow is one primitive's modeled latency beside the paper's.
type PrimitiveRow struct {
	Kind             primitive.Kind
	Meaning          string
	ModelNS, PaperNS float64 // PaperNS is 0 where the paper states none
}

// RunTable1 computes Table 1.
func RunTable1() (Table1, error) {
	tp := timing.DDR31600()
	row := func(k primitive.Kind, meaning string, paper float64) PrimitiveRow {
		return PrimitiveRow{k, meaning, k.Duration(tp), paper}
	}
	return Table1{
		row(primitive.AP, "Activate-Precharge", 49),
		row(primitive.AAP, "Activate-Activate-Precharge", 84),
		row(primitive.OAAP, "overlapped Activate-Activate-Precharge", 53),
		row(primitive.APP, "Activate-Pseudoprecharge-Precharge", 67),
		row(primitive.OAPP, "overlapped Activate-Pseudoprecharge-Precharge", 53),
		row(primitive.TAPP, "trimmed Activate-Pseudoprecharge-Precharge", 46),
		row(primitive.OTAPP, "trimmed+overlapped (used inside XOR seq 5/6)", 0),
	}, nil
}

// WriteText implements Result.
func (t Table1) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-48s %10s %10s\n", "Prim", "Meaning", "model(ns)", "paper(ns)")
	for _, r := range t {
		paper := "-"
		if r.PaperNS != 0 {
			paper = fmt.Sprintf("%.0f", r.PaperNS)
		}
		fmt.Fprintf(w, "%-8s %-48s %10.1f %10s\n", r.Kind, r.Meaning, r.ModelNS, paper)
	}
}

// Fig8 is Figure 8: the XOR ladder. Sequence 1 is three ELP2IM ANDs, and
// each later rung the XOR that ELP2IM compiles with one more optimization.
type Fig8 []SeqRow

// SeqRow is one rung's modeled latency beside the paper's.
type SeqRow struct {
	Name             string
	Prims            int // sequence length in primitives
	ModelNS, PaperNS float64
}

// RunFig8 computes Figure 8.
func RunFig8() (Fig8, error) {
	tp := timing.DDR31600()
	rung := func(name string, q primitive.Seq, paper float64) SeqRow {
		return SeqRow{name, len(q), q.Duration(tp), paper}
	}
	xor := func(mutate func(*elpim.Config)) primitive.Seq { return elpimWith(mutate).Compile(engine.OpXOR) }
	and := elpimWith(nil).Compile(engine.OpAND)
	return Fig8{
		rung("seq1: 3×(oAAP APP oAAP)", slices.Concat(and, and, and), 519),
		rung("seq2: merge the two R accesses", xor(noOptimizations), 409),
		rung("seq3: trim the dead restore (tAPP)", xor(noIsolation), 388),
		rung("seq5: overlap pseudo-precharge (oAPP)", xor(nil), 346),
		rung("seq6: second reserved row merges the B copy", xor(twoRows), 297),
	}, nil
}

// WriteText implements Result.
func (f Fig8) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-44s %5s %11s %10s\n", "sequence", "prims", "model(ns)", "paper(ns)")
	for _, r := range f {
		fmt.Fprintf(w, "%-44s %5d %11.1f %10.0f\n", r.Name, r.Prims, r.ModelNS, r.PaperNS)
	}
}
