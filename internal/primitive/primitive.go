// Package primitive defines the DRAM command primitives the reproduced
// designs are built from (Table 1 of the paper plus the Ambit and DRISA
// command types), and computes their latency, activation counts and energy
// from the timing and power models. Seq.Run interprets a sequence on the
// dram device model.
package primitive

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/power"
	"repro/internal/timing"
)

// Kind identifies a command primitive.
type Kind int

// Primitives of ELP2IM (Table 1), plus the baselines' command types.
const (
	// AP is a regular Activate-Precharge access (49 ns @ DDR3-1600).
	AP Kind = iota
	// AAP is RowClone's Activate-Activate-Precharge copy (84 ns).
	AAP
	// OAAP is the overlapped AAP enabled by a separate row decoder (53 ns).
	OAAP
	// APP is Activate-PseudoPrecharge-Precharge (67 ns) — the primitive
	// that regulates the bitline with the shifted SA supply.
	APP
	// OAPP overlaps the pseudo-precharge with the precharge using the
	// row-buffer-decoupling isolation transistor (53 ns).
	OAPP
	// TAPP trims the restore phase from APP for dead intermediate
	// values (46 ns).
	TAPP
	// OTAPP is both trimmed and overlapped (32 ns); it appears inside the
	// optimized XOR sequences 5 and 6 of Figure 8.
	OTAPP
	// APPM is the merged copy + pseudo-precharge of Figure 8 sequence 6:
	// activate the source, overlap-activate a reserved-row copy target,
	// then pseudo-precharge and finally precharge.
	APPM
	// OAPPM is APPM with the precharge overlapped into the pseudo state
	// (isolation transistor) — the 57 ns primitive that makes sequence 6's
	// ~297 ns total.
	OAPPM
	// TRAAP is Ambit's Triple-Row-Activate + precharge. Its duration
	// equals AP but it raises three wordlines.
	TRAAP
	// TRAAAP is Ambit's fused command: a triple-row activation whose
	// result is then copied to another row by an overlapped second
	// activate (the 4th AAP of an Ambit AND). Duration of OAAP, but the
	// first activate raises three wordlines.
	TRAAAP
	// NORCYCLE is one DRISA NOR-gate compute cycle: activate the operand
	// rows through the gate, latch, drive the result into the destination
	// row, precharge.
	NORCYCLE
)

// String returns the primitive mnemonic as used in the paper.
func (k Kind) String() string {
	switch k {
	case AP:
		return "AP"
	case AAP:
		return "AAP"
	case OAAP:
		return "oAAP"
	case APP:
		return "APP"
	case OAPP:
		return "oAPP"
	case TAPP:
		return "tAPP"
	case OTAPP:
		return "otAPP"
	case APPM:
		return "APPm"
	case OAPPM:
		return "oAPPm"
	case TRAAP:
		return "TRA-AP"
	case TRAAAP:
		return "TRA-AAP"
	case NORCYCLE:
		return "NOR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Duration returns the primitive latency in ns under the timing parameters.
// With the DDR3-1600 calibration these are exactly the Table 1 values.
func (k Kind) Duration(p timing.Params) float64 {
	tras := p.TRAS()
	trp := p.TRP()
	tpp := p.PseudoPrecharge()
	switch k {
	case AP:
		return tras + trp
	case AAP:
		return 2*tras + trp
	case OAAP:
		return tras + p.OverlapActivate + trp
	case APP:
		return tras + tpp + trp
	case OAPP:
		return tras + tpp // precharge overlapped with pseudo-precharge
	case TAPP:
		return p.AccessSense + tpp + trp // restore trimmed
	case OTAPP:
		return p.AccessSense + tpp // trimmed and overlapped
	case APPM:
		return tras + p.OverlapActivate + tpp + trp
	case OAPPM:
		return tras + p.OverlapActivate + tpp // precharge overlapped
	case TRAAP:
		return tras + trp
	case TRAAAP:
		return tras + p.OverlapActivate + trp
	case NORCYCLE:
		// Activate the operand pair through the NOR gate, drive the result
		// into the destination row (a second overlapped activate driven by
		// the result latch), then precharge — plus the gate delay itself.
		return tras + p.OverlapActivate + trp + 7.0
	default:
		panic(fmt.Sprintf("primitive: unknown kind %d", int(k)))
	}
}

// ActivateEvents returns the number of separate activation events the
// primitive issues (for tFAW window accounting each event is stamped at
// the primitive's issue time).
func (k Kind) ActivateEvents() int {
	switch k {
	case AP, APP, OAPP, TAPP, OTAPP, TRAAP:
		return 1
	case AAP, OAAP, APPM, OAPPM, TRAAAP, NORCYCLE:
		return 2
	default:
		panic(fmt.Sprintf("primitive: unknown kind %d", int(k)))
	}
}

// Wordlines returns the total number of wordlines the primitive raises,
// which is what the charge pump must supply (TRA raises 3 at once).
func (k Kind) Wordlines() int {
	switch k {
	case AP, APP, OAPP, TAPP, OTAPP:
		return 1
	case AAP, OAAP, APPM, OAPPM, NORCYCLE:
		return 2
	case TRAAP:
		return 3
	case TRAAAP:
		return 4 // TRA (3) + the overlapped copy activate (1)
	default:
		panic(fmt.Sprintf("primitive: unknown kind %d", int(k)))
	}
}

// IsPseudo reports whether the primitive contains a pseudo-precharge state
// (and therefore pays the +31% activate-power surcharge).
func (k Kind) IsPseudo() bool {
	switch k {
	case APP, OAPP, TAPP, OTAPP, APPM, OAPPM:
		return true
	default:
		return false
	}
}

// Energy returns the primitive's dynamic energy in nJ under the power
// parameters (background energy is added at the sequence level, since it
// accrues with wall-clock time).
func (k Kind) Energy(pp power.Params) float64 {
	var t power.Tally
	switch k {
	case AP:
		t.AddActivate(pp, 1, false)
		t.AddPrecharge(pp, false)
	case AAP, OAAP:
		t.AddActivate(pp, 1, false)
		t.AddActivate(pp, 1, false)
		t.AddPrecharge(pp, false)
	case APP, TAPP:
		t.AddActivate(pp, 1, true)
		t.AddPrecharge(pp, true)
		t.AddPrecharge(pp, false)
	case OAPP, OTAPP:
		t.AddActivate(pp, 1, true)
		t.AddPrecharge(pp, true) // precharge overlapped into the pseudo state
	case APPM:
		t.AddActivate(pp, 1, true)
		t.AddActivate(pp, 1, false) // the overlapped copy activate
		t.AddPrecharge(pp, true)
		t.AddPrecharge(pp, false)
	case OAPPM:
		t.AddActivate(pp, 1, true)
		t.AddActivate(pp, 1, false)
		t.AddPrecharge(pp, true)
	case TRAAP:
		t.AddActivate(pp, 3, false)
		t.AddPrecharge(pp, false)
	case TRAAAP:
		t.AddActivate(pp, 3, false)
		t.AddActivate(pp, 1, false)
		t.AddPrecharge(pp, false)
	case NORCYCLE:
		t.AddActivate(pp, 1, false)
		t.AddActivate(pp, 1, false)
		t.AddPrecharge(pp, false)
		t.AddGate(pp, 1)
	default:
		panic(fmt.Sprintf("primitive: unknown kind %d", int(k)))
	}
	return t.DynamicEnergy()
}

// IsTRA reports whether the primitive's first activation is Ambit's
// triple-row activation (TRA-AP, TRA-AAP), which opens Src, Aux2 and Aux3
// at once.
func (k Kind) IsTRA() bool { return k == TRAAP || k == TRAAAP }

// Copies reports whether the primitive's second activation opens a row,
// Dst, while the row buffer still drives the bitlines: the RowClone copy
// of AAP and oAAP, the merged copy of APPm and oAPPm, and TRA-AAP's copy
// of the majority.
func (k Kind) Copies() bool {
	switch k {
	case AAP, OAAP, APPM, OAPPM, TRAAAP:
		return true
	default:
		return false
	}
}

// mnemonic returns the assembler's name for the primitive: the merged
// APPm/oAPPm are APP/oAPP with a [dst], and both TRA forms are TRA.
func (k Kind) mnemonic() string {
	switch k {
	case APPM:
		return APP.String()
	case OAPPM:
		return OAPP.String()
	case TRAAP, TRAAAP:
		return "TRA"
	default:
		return k.String()
	}
}

// Step is one primitive applied to row slots, in the paper's
// prmt([dst],src) notation. Its row fields are slots: indices into the
// per-call row table Run binds them through, and into the names Format
// renders them with. The Kind decides which fields a step uses: Src
// always, Dst when the Kind Copies, and Aux2 and Aux3 for a TRA.
type Step struct {
	Kind Kind
	// Src is the first activated row (the source being read/regulated);
	// for a TRA, the first row of the triple.
	Src int
	// SrcNegated selects the negated wordline of a dual-contact source.
	SrcNegated bool
	// Dst is the row the second activation opens (copy/merge target).
	Dst int
	// DstNegated selects the negated wordline of a dual-contact target.
	DstNegated bool
	// Aux2, Aux3 are TRA's second and third rows.
	Aux2, Aux3 int
	// RetainZeros selects the pseudo-precharge retain mode of APP-class
	// steps: true retains zeros (AND), false retains ones (OR).
	RetainZeros bool
}

// String renders the step with every slot named by its number.
func (s Step) String() string { return s.Format(nil) }

// Format renders the step in the controller's assembler notation, which
// controller.Assemble reads back: slot i is named names[i], and a slot
// outside names by its number. APP-class steps carry their retain mode
// (":zeros" or ":ones").
func (s Step) Format(names []string) string {
	b := make([]byte, 0, 32)
	b = append(b, s.Kind.mnemonic()...)
	b = append(b, '(')
	if s.Kind.Copies() {
		b = append(b, '[')
		b = appendRow(b, names, s.Dst, s.DstNegated)
		b = append(b, "],"...)
	}
	b = appendRow(b, names, s.Src, s.SrcNegated)
	if s.Kind.IsTRA() {
		b = append(b, ',')
		b = appendRow(b, names, s.Aux2, false)
		b = append(b, ',')
		b = appendRow(b, names, s.Aux3, false)
	}
	b = append(b, ')')
	if s.Kind.IsPseudo() {
		if s.RetainZeros {
			b = append(b, ":zeros"...)
		} else {
			b = append(b, ":ones"...)
		}
	}
	return string(b)
}

func appendRow(b []byte, names []string, slot int, negated bool) []byte {
	if negated {
		b = append(b, '~')
	}
	if slot >= 0 && slot < len(names) {
		return append(b, names[slot]...)
	}
	return strconv.AppendInt(b, int64(slot), 10)
}

// Seq is an ordered primitive sequence implementing one logic operation.
type Seq []Step

// Duration returns the total latency of the sequence in ns.
func (q Seq) Duration(p timing.Params) float64 {
	total := 0.0
	for _, s := range q {
		total += s.Kind.Duration(p)
	}
	return total
}

// Energy returns the total dynamic energy of the sequence in nJ.
func (q Seq) Energy(pp power.Params) float64 {
	total := 0.0
	for _, s := range q {
		total += s.Kind.Energy(pp)
	}
	return total
}

// Wordlines returns the total wordlines raised across the sequence.
func (q Seq) Wordlines() int {
	total := 0
	for _, s := range q {
		total += s.Kind.Wordlines()
	}
	return total
}

// ActivateEvents returns the total activation events across the sequence.
func (q Seq) ActivateEvents() int {
	total := 0
	for _, s := range q {
		total += s.Kind.ActivateEvents()
	}
	return total
}

// MaxWordlinesPerEvent returns the largest simultaneous wordline count of
// any single activation in the sequence (3 for anything containing a TRA) —
// the quantity that stresses the charge pump.
func (q Seq) MaxWordlinesPerEvent() int {
	m := 0
	for _, s := range q {
		per := 1
		if s.Kind.IsTRA() {
			per = 3
		}
		if per > m {
			m = per
		}
	}
	return m
}

// String renders the sequence with every slot named by its number.
func (q Seq) String() string { return q.Format(nil) }

// Format renders the sequence as space-separated steps, naming slots as
// Step.Format does.
func (q Seq) Format(names []string) string {
	parts := make([]string, len(q))
	for i, s := range q {
		parts[i] = s.Format(names)
	}
	return strings.Join(parts, " ")
}
