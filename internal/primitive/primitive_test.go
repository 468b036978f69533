package primitive

import (
	"math"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/timing"
)

// TestTable1Latencies pins the primitive latencies to Table 1 of the paper.
func TestTable1Latencies(t *testing.T) {
	p := timing.DDR31600()
	want := map[Kind]float64{
		AP:   49,
		AAP:  84,
		OAAP: 53,
		APP:  67.2,
		OAPP: 53.2,
		TAPP: 46.2,
	}
	for k, w := range want {
		if got := k.Duration(p); math.Abs(got-w) > 0.5 {
			t.Errorf("%v duration = %v ns, want ~%v (Table 1)", k, got, w)
		}
	}
}

func TestOAPPSavesAbout21Percent(t *testing.T) {
	// §4.2.1: oAPP saves ~21% versus a regular APP.
	p := timing.DDR31600()
	saving := 1 - OAPP.Duration(p)/APP.Duration(p)
	if saving < 0.18 || saving > 0.24 {
		t.Errorf("oAPP saving = %.1f%%, want ~21%%", saving*100)
	}
}

func TestTAPPSavesAbout31Percent(t *testing.T) {
	// §4.2.2: tAPP saves ~31% versus a regular APP.
	p := timing.DDR31600()
	saving := 1 - TAPP.Duration(p)/APP.Duration(p)
	if saving < 0.28 || saving > 0.34 {
		t.Errorf("tAPP saving = %.1f%%, want ~31%%", saving*100)
	}
}

func TestAPPAPSequenceAbout18PercentLonger(t *testing.T) {
	// §3.3: the two-cycle APP-AP is only ~18% longer than AP-AP.
	p := timing.DDR31600()
	appap := APP.Duration(p) + AP.Duration(p)
	apap := 2 * AP.Duration(p)
	excess := appap/apap - 1
	if excess < 0.15 || excess > 0.21 {
		t.Errorf("APP-AP is %.1f%% longer than AP-AP, want ~18%%", excess*100)
	}
}

func TestOAAPOnly4nsLongerThanAP(t *testing.T) {
	// §2.2.1: oAAP is only 4 ns longer than AP.
	p := timing.DDR31600()
	if got := OAAP.Duration(p) - AP.Duration(p); math.Abs(got-4) > 1e-9 {
		t.Errorf("oAAP - AP = %v ns, want 4", got)
	}
}

func TestTimingMonotonicity(t *testing.T) {
	// Overlapping and trimming can only shorten a primitive.
	p := timing.DDR31600()
	if OAPP.Duration(p) > APP.Duration(p) {
		t.Error("oAPP must not exceed APP")
	}
	if TAPP.Duration(p) > APP.Duration(p) {
		t.Error("tAPP must not exceed APP")
	}
	if OTAPP.Duration(p) > TAPP.Duration(p) || OTAPP.Duration(p) > OAPP.Duration(p) {
		t.Error("otAPP must not exceed tAPP or oAPP")
	}
	if OAAP.Duration(p) > AAP.Duration(p) {
		t.Error("oAAP must not exceed AAP")
	}
}

func TestWordlineCounts(t *testing.T) {
	want := map[Kind]int{
		AP: 1, APP: 1, OAPP: 1, TAPP: 1, OTAPP: 1,
		AAP: 2, OAAP: 2, NORCYCLE: 2,
		TRAAP: 3, TRAAAP: 4,
	}
	for k, w := range want {
		if got := k.Wordlines(); got != w {
			t.Errorf("%v wordlines = %d, want %d", k, got, w)
		}
	}
}

func TestActivateEvents(t *testing.T) {
	want := map[Kind]int{
		AP: 1, APP: 1, OAPP: 1, TAPP: 1, OTAPP: 1, TRAAP: 1,
		AAP: 2, OAAP: 2, TRAAAP: 2, NORCYCLE: 2,
	}
	for k, w := range want {
		if got := k.ActivateEvents(); got != w {
			t.Errorf("%v activate events = %d, want %d", k, got, w)
		}
	}
}

func TestIsPseudo(t *testing.T) {
	for _, k := range []Kind{APP, OAPP, TAPP, OTAPP} {
		if !k.IsPseudo() {
			t.Errorf("%v must be pseudo", k)
		}
	}
	for _, k := range []Kind{AP, AAP, OAAP, TRAAP, TRAAAP, NORCYCLE} {
		if k.IsPseudo() {
			t.Errorf("%v must not be pseudo", k)
		}
	}
}

func TestEnergyOrdering(t *testing.T) {
	pp := power.DDR31600()
	// A TRA costs more than a regular activate-precharge.
	if TRAAP.Energy(pp) <= AP.Energy(pp) {
		t.Error("TRA-AP energy must exceed AP")
	}
	// An APP pays the +31% surcharge over AP's activate.
	if APP.Energy(pp) <= AP.Energy(pp) {
		t.Error("APP energy must exceed AP")
	}
	// A double-activate AAP costs more than a single-activate AP.
	if AAP.Energy(pp) <= AP.Energy(pp) {
		t.Error("AAP energy must exceed AP")
	}
}

func TestAPPPowerSurchargeMatchesPaper(t *testing.T) {
	// §6.2: "the activate power of APP increases by ~31% compared to the
	// regular AP primitive" — checked at the activate-energy level.
	pp := power.DDR31600()
	got := pp.PseudoActivateEnergy() / pp.ActivateEnergy
	if math.Abs(got-1.31) > 1e-9 {
		t.Errorf("APP activate surcharge = %v, want 1.31", got)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		AP: "AP", AAP: "AAP", OAAP: "oAAP", APP: "APP", OAPP: "oAPP",
		TAPP: "tAPP", OTAPP: "otAPP", TRAAP: "TRA-AP", TRAAAP: "TRA-AAP",
		NORCYCLE: "NOR",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind string = %q, want %q", k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestUnknownKindPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Kind(99).Duration(timing.DDR31600()) },
		func() { Kind(99).Wordlines() },
		func() { Kind(99).ActivateEvents() },
		func() { Kind(99).Energy(power.DDR31600()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unknown kind did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestSeqAggregation(t *testing.T) {
	p := timing.DDR31600()
	pp := power.DDR31600()
	q := Seq{
		{Kind: OAAP, Src: 1, Dst: 10},
		{Kind: APP, Src: 2},
		{Kind: OAAP, Src: 10, Dst: 3},
	}
	wantDur := OAAP.Duration(p) + APP.Duration(p) + OAAP.Duration(p)
	if got := q.Duration(p); math.Abs(got-wantDur) > 1e-9 {
		t.Errorf("seq duration = %v, want %v", got, wantDur)
	}
	if got := q.Wordlines(); got != 5 {
		t.Errorf("seq wordlines = %d, want 5", got)
	}
	if got := q.ActivateEvents(); got != 5 {
		t.Errorf("seq activate events = %d, want 5", got)
	}
	wantE := 2*OAAP.Energy(pp) + APP.Energy(pp)
	if got := q.Energy(pp); math.Abs(got-wantE) > 1e-9 {
		t.Errorf("seq energy = %v, want %v", got, wantE)
	}
}

func TestMaxWordlinesPerEvent(t *testing.T) {
	q := Seq{{Kind: OAAP}, {Kind: APP}}
	if q.MaxWordlinesPerEvent() != 1 {
		t.Error("non-TRA sequence peak must be 1 wordline per event")
	}
	q = append(q, Step{Kind: TRAAAP})
	if q.MaxWordlinesPerEvent() != 3 {
		t.Error("TRA sequence peak must be 3 wordlines per event")
	}
}

func TestStepString(t *testing.T) {
	cases := []struct {
		step Step
		want string
	}{
		{Step{Kind: AP, Src: 5}, "AP(5)"},
		{Step{Kind: APP, Src: 7}, "APP(7):ones"},
		{Step{Kind: OTAPP, Src: 7, SrcNegated: true, RetainZeros: true}, "otAPP(~7):zeros"},
		{Step{Kind: OAAP, Src: 1, Dst: 9}, "oAAP([9],1)"},
		{Step{Kind: OAAP, Src: 1, Dst: 9, DstNegated: true}, "oAAP([~9],1)"},
		{Step{Kind: AAP, Src: 2, SrcNegated: true, Dst: 3}, "AAP([3],~2)"},
		{Step{Kind: OAPPM, Src: 2, Dst: 0, RetainZeros: true}, "oAPP([0],2):zeros"},
		{Step{Kind: APPM, Src: 2, Dst: 4}, "APP([4],2):ones"},
		{Step{Kind: TRAAP, Src: 1, Aux2: 2, Aux3: 3}, "TRA(1,2,3)"},
		{Step{Kind: TRAAAP, Src: 1, Aux2: 2, Aux3: 3, Dst: 8}, "TRA([8],1,2,3)"},
	}
	for _, tc := range cases {
		if got := tc.step.String(); got != tc.want {
			t.Errorf("step string = %q, want %q", got, tc.want)
		}
	}
}

func TestSeqString(t *testing.T) {
	q := Seq{{Kind: APP, Src: 1}, {Kind: AP, Src: 2}}
	s := q.String()
	if !strings.Contains(s, "APP(1)") || !strings.Contains(s, "AP(2)") {
		t.Errorf("seq string = %q", s)
	}
	q = Seq{{Kind: OAAP, Src: 1, Dst: 3}, {Kind: APP, Src: 0, RetainZeros: true}, {Kind: OAAP, Src: 3, Dst: 2}}
	if got, want := q.Format([]string{"A", "B", "C", "R0"}), "oAAP([R0],B) APP(A):zeros oAAP([C],R0)"; got != want {
		t.Errorf("named seq = %q, want %q", got, want)
	}
}

func TestMergedPrimitives(t *testing.T) {
	p := timing.DDR31600()
	pp := power.DDR31600()
	// The merged copy + pseudo-precharge of sequence 6: two activations,
	// two wordlines, pseudo.
	for _, k := range []Kind{APPM, OAPPM} {
		if k.Wordlines() != 2 || k.ActivateEvents() != 2 {
			t.Errorf("%v must raise 2 wordlines in 2 events", k)
		}
		if !k.IsPseudo() {
			t.Errorf("%v must be pseudo", k)
		}
		if k.Energy(pp) <= OAPP.Energy(pp) {
			t.Errorf("%v energy must exceed the single-activation oAPP", k)
		}
	}
	// oAPPm = 35 + 4 + 18.2 = 57.2 ns — the primitive that makes
	// sequence 6's ~297 ns.
	if got := OAPPM.Duration(p); math.Abs(got-57.2) > 0.1 {
		t.Errorf("oAPPm duration = %v, want 57.2", got)
	}
	if OAPPM.Duration(p) >= APPM.Duration(p) {
		t.Error("overlapping must shorten APPm")
	}
	if APPM.String() != "APPm" || OAPPM.String() != "oAPPm" {
		t.Error("merged primitive names wrong")
	}
}
