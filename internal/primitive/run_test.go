package primitive

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dram"
)

// runSubarray returns a subarray whose data rows 0–7 hold random bits,
// with two dual-contact rows (8 and 9), and the identity row table.
func runSubarray(seed int64) (*dram.Subarray, []int) {
	sub := dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 8, Columns: 128, DualContactRows: 2,
	})
	rng := rand.New(rand.NewSource(seed))
	rows := make([]int, 10)
	for r := range rows {
		rows[r] = r
		sub.LoadRow(r, bitvec.Random(rng, 128))
	}
	return sub, rows
}

// TestRunMergedCopyIntoSlotZero: a step's Kind, not its Dst value, decides
// whether the second activation opens Dst, so a merged copy into slot 0
// writes row 0 and raises the activations it is priced at.
func TestRunMergedCopyIntoSlotZero(t *testing.T) {
	for _, k := range []Kind{OAPPM, APPM} {
		sub, rows := runSubarray(1)
		src := sub.RowData(5).Clone()
		other := sub.RowData(7).Clone()
		sub.ResetStats()
		if err := (Step{Kind: k, Src: 5, Dst: 0, RetainZeros: true}).Run(sub, rows); err != nil {
			t.Fatal(err)
		}
		if !sub.RowData(0).Equal(src) {
			t.Errorf("%v([0],5) left row 0 unchanged", k)
		}
		if sub.Activations != k.ActivateEvents() || sub.Wordlines != k.Wordlines() {
			t.Errorf("%v raised %d activations / %d wordlines, priced %d / %d",
				k, sub.Activations, sub.Wordlines, k.ActivateEvents(), k.Wordlines())
		}
		// The regulation stays pending and folds into the next activate.
		if err := (Step{Kind: AP, Src: 7}).Run(sub, rows); err != nil {
			t.Fatal(err)
		}
		if want := bitvec.New(128).And(src, other); !sub.RowData(7).Equal(want) {
			t.Errorf("%v: pending retain-zeros did not AND into row 7", k)
		}
	}
}

// TestRunRaisesPricedActivations: every DRAM command kind raises on the
// device model exactly the activation events and wordlines it is priced at.
func TestRunRaisesPricedActivations(t *testing.T) {
	for k := AP; k <= TRAAAP; k++ {
		sub, rows := runSubarray(int64(k))
		sub.ResetStats()
		q := Seq{{Kind: k, Src: 1, Dst: 2, Aux2: 3, Aux3: 4}}
		if k.IsPseudo() {
			q = append(q, Step{Kind: AP, Src: 5})
		}
		if err := q.Run(sub, rows); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if sub.Activations != q.ActivateEvents() || sub.Wordlines != q.Wordlines() {
			t.Errorf("%v: device %d activations / %d wordlines, priced %d / %d",
				k, sub.Activations, sub.Wordlines, q.ActivateEvents(), q.Wordlines())
		}
		if sub.State() != dram.StatePrecharged {
			t.Errorf("%v: sequence left the subarray %v", k, sub.State())
		}
	}
}

func TestRunErrors(t *testing.T) {
	sub, rows := runSubarray(2)
	unbound := append([]int(nil), rows...)
	unbound[3] = -1
	for _, tc := range []struct {
		q    Seq
		rows []int
		want string
	}{
		{Seq{{Kind: OAAP, Src: 1, Dst: 3}}, unbound, "slot 3 is unbound"},
		{Seq{{Kind: AP, Src: 12}}, rows, "slot 12 is unbound"},
		{Seq{{Kind: TRAAP, Src: 1, Aux2: 2, Aux3: 3}}, unbound, "slot 3 is unbound"},
		{Seq{{Kind: AP, Src: 0}, {Kind: NORCYCLE, Src: 1}}, rows, "step 1"},
		{Seq{{Kind: Kind(99)}}, rows, "not a DRAM command"},
		{Seq{{Kind: AP, Src: 1, SrcNegated: true}}, rows, "not dual-contact"},
		{Seq{{Kind: APP, Src: 1}, {Kind: TRAAP, Src: 1, Aux2: 2, Aux3: 3}}, rows, "TRA requires precharged"},
	} {
		err := tc.q.Run(sub, tc.rows)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to mention %q", tc.q, err, tc.want)
		}
		sub.Precharge()
	}
}
