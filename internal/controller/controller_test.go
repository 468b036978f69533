package controller

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// The paper's oAAP-APP-oAAP AND (Figure 5(c)) in controller notation.
const andProgram = `
# C = A AND B through the reserved dual-contact row R0
oAAP([R0],B)
APP(A):zeros
oAAP([C],R0)
`

func TestAssembleANDProgram(t *testing.T) {
	p, err := Assemble(andProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Seq) != 3 {
		t.Fatalf("commands = %d, want 3", len(p.Seq))
	}
	if p.Seq[0].Kind != primitive.OAAP || p.Seq[1].Kind != primitive.APP {
		t.Fatalf("kinds wrong: %v", p.Seq)
	}
	if !p.Seq[1].RetainZeros {
		t.Fatal("APP mode :zeros not parsed")
	}
	syms := p.Symbols
	want := []string{"B", "R0", "A", "C"} // source before copy target

	if len(syms) != len(want) {
		t.Fatalf("symbols = %v", syms)
	}
	for i := range want {
		if syms[i] != want[i] {
			t.Fatalf("symbols = %v, want %v", syms, want)
		}
	}
}

func TestAssembleTRA(t *testing.T) {
	p, err := Assemble("TRA(T0,T1,T2)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq[0].Kind != primitive.TRAAP {
		t.Fatal("plain TRA kind wrong")
	}
	p, err = Assemble("TRA([C],T0,T1,T2)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq[0].Kind != primitive.TRAAAP {
		t.Fatal("TRA with [dst] must upgrade to TRA-AAP")
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"FOO(A)",
		"AP(A",
		"AP([C],A)",                  // AP cannot copy
		"AAP(A)",                     // AAP needs [dst]
		"AP(A):zeros",                // mode on non-pseudo
		"APP(A):sideways",            // bad mode
		"TRA(T0,T1)",                 // TRA arity
		"TRA(~T0,T1,T2)",             // negated TRA row
		"TRA(A,A,B)",                 // TRA naming one row twice
		"TRA([C],A,B,B)",             // ... with an overlapped copy too
		"AAP([C,A)",                  // unterminated dst
		"APP()",                      // empty operand
		"AP(a-b)",                    // bad row name
		"APP(A):zeros",               // dangling pseudo at end
		"APP(A):zeros TRA(T0,T1,T2)", // TRA with pending pseudo
		"oAPP([R1],B):zeros",         // merged copy leaves its pseudo dangling
		"oAPP([R1],B):zeros TRA(T0,T1,T2)",
	} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) accepted", src)
		}
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic")
		}
	}()
	MustAssemble("nope(")
}

func TestCommandString(t *testing.T) {
	p := MustAssemble("oAPP([R1],B):zeros oAAP([C],~R0) AP(X) TRA([C],T0,T1,T2) APP(X) AP(C)")
	rendered := p.String()
	// The merged-copy form renders as oAPP with a [dst], TRAs as TRA, and
	// every APP-class command with its mode: the text Assemble reads.
	want := "oAPP([R1],B):zeros\noAAP([C],~R0)\nAP(X)\nTRA([C],T0,T1,T2)\nAPP(X):ones\nAP(C)\n"
	if rendered != want {
		t.Errorf("render = %q, want %q", rendered, want)
	}
	if q := MustAssemble(rendered); !reflect.DeepEqual(q.Seq, p.Seq) {
		t.Errorf("re-assembled %v, want %v", q.Seq, p.Seq)
	}
}

func TestDurationAndEnergy(t *testing.T) {
	tp := timing.DDR31600()
	pp := power.DDR31600()
	p := MustAssemble(andProgram)
	wantDur := primitive.OAAP.Duration(tp) + primitive.APP.Duration(tp) + primitive.OAAP.Duration(tp)
	if got := p.Seq.Duration(tp); math.Abs(got-wantDur) > 1e-9 {
		t.Fatalf("duration = %v, want %v", got, wantDur)
	}
	wantE := 2*primitive.OAAP.Energy(pp) + primitive.APP.Energy(pp)
	if got := p.Seq.Energy(pp); math.Abs(got-wantE) > 1e-9 {
		t.Fatalf("energy = %v, want %v", got, wantE)
	}
}

func testSubarray() *dram.Subarray {
	return dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 16, Columns: 128, DualContactRows: 1,
	})
}

func TestRunANDProgram(t *testing.T) {
	sub := testSubarray()
	rng := rand.New(rand.NewSource(1))
	a := bitvec.Random(rng, 128)
	b := bitvec.Random(rng, 128)
	sub.LoadRow(0, a)
	sub.LoadRow(1, b)
	rows := map[string]int{"A": 0, "B": 1, "C": 2, "R0": sub.DCCRow(0)}

	p := MustAssemble(andProgram)
	tr, err := p.Run(sub, rows, timing.DDR31600(), power.DDR31600())
	if err != nil {
		t.Fatal(err)
	}
	want := bitvec.New(128).And(a, b)
	if !sub.RowData(2).Equal(want) {
		t.Fatal("controller-program AND mismatch")
	}
	// Trace timeline: contiguous, monotone, correct total.
	if len(tr.Entries) != 3 {
		t.Fatalf("trace entries = %d", len(tr.Entries))
	}
	for i, e := range tr.Entries {
		if e.EndNS <= e.StartNS {
			t.Fatalf("entry %d not positive-length", i)
		}
		if i > 0 && math.Abs(e.StartNS-tr.Entries[i-1].EndNS) > 1e-9 {
			t.Fatalf("entry %d not contiguous", i)
		}
	}
	if math.Abs(tr.Duration()-p.Seq.Duration(timing.DDR31600())) > 1e-9 {
		t.Fatal("trace duration != program duration")
	}
	if math.Abs(tr.Energy()-p.Seq.Energy(power.DDR31600())) > 1e-9 {
		t.Fatal("trace energy != program energy")
	}
	if !strings.Contains(tr.String(), "APP(A):zeros") {
		t.Fatal("trace render missing command")
	}
}

func TestRunXORSequence5(t *testing.T) {
	// Figure 8 sequence 5, hand-written in controller notation, must
	// compute XOR on the device model.
	src := `
oAAP([R0],B)  oAPP(A):zeros       oAAP([C],~R0)
oAAP([R0],A)  oAPP(B):zeros       otAPP(~R0):ones
AP(C)
`
	sub := testSubarray()
	rng := rand.New(rand.NewSource(2))
	a := bitvec.Random(rng, 128)
	b := bitvec.Random(rng, 128)
	sub.LoadRow(0, a)
	sub.LoadRow(1, b)
	rows := map[string]int{"A": 0, "B": 1, "C": 2, "R0": sub.DCCRow(0)}

	p := MustAssemble(src)
	if _, err := p.Run(sub, rows, timing.DDR31600(), power.DDR31600()); err != nil {
		t.Fatal(err)
	}
	want := bitvec.New(128).Xor(a, b)
	if !sub.RowData(2).Equal(want) {
		t.Fatal("sequence-5 XOR mismatch")
	}
	if d := p.Seq.Duration(timing.DDR31600()); math.Abs(d-346.6) > 1 {
		t.Fatalf("sequence-5 duration = %v, want ~346", d)
	}
}

func TestRunTRAProgram(t *testing.T) {
	// Ambit-style AND: copies + TRA with result copy-out.
	src := "oAAP([T0],A) oAAP([T1],B) oAAP([T2],Z) TRA([C],T0,T1,T2)"
	sub := testSubarray()
	rng := rand.New(rand.NewSource(3))
	a := bitvec.Random(rng, 128)
	b := bitvec.Random(rng, 128)
	sub.LoadRow(0, a)
	sub.LoadRow(1, b)
	// Z stays all-zero: TRA majority with 0 = AND.
	rows := map[string]int{"A": 0, "B": 1, "Z": 2, "T0": 3, "T1": 4, "T2": 5, "C": 6}
	p := MustAssemble(src)
	if _, err := p.Run(sub, rows, timing.DDR31600(), power.DDR31600()); err != nil {
		t.Fatal(err)
	}
	want := bitvec.New(128).And(a, b)
	if !sub.RowData(6).Equal(want) {
		t.Fatal("TRA program AND mismatch")
	}
}

func TestRunErrors(t *testing.T) {
	p := MustAssemble("AP(A)")
	sub := testSubarray()
	if _, err := p.Run(sub, map[string]int{}, timing.DDR31600(), power.DDR31600()); err == nil {
		t.Fatal("unbound symbol accepted")
	}
	// Negated activate of a non-DCC row must surface the device error.
	p2 := MustAssemble("AP(~A)")
	if _, err := p2.Run(sub, map[string]int{"A": 0}, timing.DDR31600(), power.DDR31600()); err == nil {
		t.Fatal("negated non-DCC activate accepted")
	}
}

func TestSequenceBuffer(t *testing.T) {
	buf := NewSequenceBuffer()
	if err := buf.Store("and", andProgram); err != nil {
		t.Fatal(err)
	}
	if err := buf.Store("bad", "AP("); err == nil {
		t.Fatal("invalid program stored")
	}
	p, ok := buf.Lookup("and")
	if !ok || len(p.Seq) != 3 {
		t.Fatal("lookup failed")
	}
	if _, ok := buf.Lookup("bad"); ok {
		t.Fatal("invalid program present")
	}
	if names := buf.Names(); len(names) != 1 || names[0] != "and" {
		t.Fatalf("names = %v", names)
	}
}

func TestMergedCopyAPP(t *testing.T) {
	// oAPP([R1],B):zeros — the sequence-6 merged copy — must copy B and
	// leave the retain-zeros regulation pending for the next activate.
	sub := dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 16, Columns: 128, DualContactRows: 2,
	})
	rng := rand.New(rand.NewSource(4))
	a := bitvec.Random(rng, 128)
	b := bitvec.Random(rng, 128)
	sub.LoadRow(0, a)
	sub.LoadRow(1, b)
	rows := map[string]int{"A": 0, "B": 1, "C": 2, "R1": sub.DCCRow(1)}
	p := MustAssemble("oAPP([R1],B):zeros AP(A)") // A becomes A AND B in place
	if _, err := p.Run(sub, rows, timing.DDR31600(), power.DDR31600()); err != nil {
		t.Fatal(err)
	}
	if !sub.RowData(sub.DCCRow(1)).Equal(b) {
		t.Fatal("merged copy did not stage B")
	}
	want := bitvec.New(128).And(a, b)
	if !sub.RowData(0).Equal(want) {
		t.Fatal("pending regulation did not fold into the next activate")
	}
}

// FuzzAssembleRoundTrip: whatever Assemble accepts, its String() assembles
// back to the same sequence over the same symbol table.
func FuzzAssembleRoundTrip(f *testing.F) {
	for _, src := range []string{
		andProgram,
		"oAAP([R0],B) oAPP(A):zeros oAAP([C],~R0)\noAAP([R0],A) oAPP(B):zeros otAPP(~R0):ones AP(C)",
		"oAAP([R0],A) oAPP([R1],B):zeros oAAP([C],~R0) oAPP(~R1):zeros otAPP(A):ones AP(C)",
		"oAAP([T0],A) oAAP([T1],B) oAAP([T2],C0) TRA([C],T0,T1,T2) TRA(T0,T1,T2)",
		"aap([x],y) app([z],x) tapp(y):zeros ap(z) # comment",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		text := p.String()
		q, err := Assemble(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not assemble: %v", src, text, err)
		}
		if !reflect.DeepEqual(q.Seq, p.Seq) || !reflect.DeepEqual(q.Symbols, p.Symbols) {
			t.Fatalf("%q re-assembles from %q as %v over %v, want %v over %v",
				src, text, q.Seq, q.Symbols, p.Seq, p.Symbols)
		}
	})
}
