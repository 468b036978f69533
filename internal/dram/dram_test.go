package dram

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
)

func smallCfg() Config {
	return Config{
		Banks:            2,
		SubarraysPerBank: 2,
		RowsPerSubarray:  8,
		Columns:          128,
		DualContactRows:  2,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero banks", func(c *Config) { c.Banks = 0 }},
		{"zero subarrays", func(c *Config) { c.SubarraysPerBank = 0 }},
		{"zero rows", func(c *Config) { c.RowsPerSubarray = 0 }},
		{"zero columns", func(c *Config) { c.Columns = 0 }},
		{"negative dcc", func(c *Config) { c.DualContactRows = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate accepted invalid config")
			}
		})
	}
}

func TestNewModuleGeometry(t *testing.T) {
	m := NewModule(smallCfg())
	if m.Banks() != 2 {
		t.Fatalf("banks = %d", m.Banks())
	}
	if m.Bank(0).Subarrays() != 2 {
		t.Fatalf("subarrays = %d", m.Bank(0).Subarrays())
	}
	s := m.Bank(1).Subarray(1)
	if s.Rows() != 8 || s.Columns() != 128 {
		t.Fatalf("geometry %dx%d", s.Rows(), s.Columns())
	}
	if !s.IsDCC(8) || !s.IsDCC(9) || s.IsDCC(7) {
		t.Fatal("DCC rows misplaced")
	}
	if s.DCCRow(0) != 8 || s.DCCRow(1) != 9 {
		t.Fatal("DCCRow indices wrong")
	}
}

// TestNewModuleRowsLazy pins first-touch row allocation: building the
// paper's 8-bank module allocates row pointers, not its ~66 MiB of
// cells, and a row reads as zero until written.
func TestNewModuleRowsLazy(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewModule(Default())
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
		t.Fatalf("NewModule(Default()) raised HeapAlloc by %d bytes, want < 2 MiB", grew)
	}
	s := m.Bank(7).Subarray(15)
	if s.RowData(511).Popcount() != 0 {
		t.Fatal("untouched row is not all-zero")
	}
	runtime.KeepAlive(m)
}

func TestNewModulePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewModule with invalid config did not panic")
		}
	}()
	NewModule(Config{})
}

func TestOutOfRangeAccessorsPanic(t *testing.T) {
	m := NewModule(smallCfg())
	for _, fn := range []func(){
		func() { m.Bank(2) },
		func() { m.Bank(-1) },
		func() { m.Bank(0).Subarray(2) },
		func() { m.Bank(0).Subarray(0).RowData(10) },
		func() { m.Bank(0).Subarray(0).DCCRow(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range accessor did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRegularActivateReadsRow(t *testing.T) {
	s := NewSubarray(smallCfg())
	rng := rand.New(rand.NewSource(1))
	data := bitvec.Random(rng, 128)
	s.LoadRow(3, data)
	if err := s.Activate(3, false); err != nil {
		t.Fatal(err)
	}
	if !s.Buffer().Equal(data) {
		t.Fatal("row buffer does not match stored row")
	}
	if s.State() != StateActivated {
		t.Fatalf("state = %v", s.State())
	}
	// Non-destructive: the cell still holds the data after restore.
	if !s.RowData(3).Equal(data) {
		t.Fatal("restore failed")
	}
	s.Precharge()
	if s.State() != StatePrecharged {
		t.Fatal("precharge failed")
	}
}

func TestRowCloneCopiesBuffer(t *testing.T) {
	s := NewSubarray(smallCfg())
	rng := rand.New(rand.NewSource(2))
	data := bitvec.Random(rng, 128)
	s.LoadRow(0, data)
	if err := s.Activate(0, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(5, false); err != nil { // back-to-back: RowClone
		t.Fatal(err)
	}
	if !s.RowData(5).Equal(data) {
		t.Fatal("RowClone did not copy the buffer into the destination row")
	}
	if !s.RowData(0).Equal(data) {
		t.Fatal("RowClone clobbered the source row")
	}
}

func TestDualContactNegatedRead(t *testing.T) {
	s := NewSubarray(smallCfg())
	rng := rand.New(rand.NewSource(3))
	data := bitvec.Random(rng, 128)
	dcc := s.DCCRow(0)
	s.LoadRow(dcc, data)
	if err := s.Activate(dcc, true); err != nil {
		t.Fatal(err)
	}
	want := bitvec.New(128).Not(data)
	if !s.Buffer().Equal(want) {
		t.Fatal("negated wordline did not sense the complement")
	}
}

func TestDualContactNegatedWrite(t *testing.T) {
	// RowClone into a DCC through the negated wordline stores the
	// complement: Ambit's NOT is AAP(A, DCC) then AAP(DCC-bar, C).
	s := NewSubarray(smallCfg())
	rng := rand.New(rand.NewSource(4))
	data := bitvec.Random(rng, 128)
	s.LoadRow(1, data)
	dcc := s.DCCRow(0)

	// AAP(A, DCC): activate A then DCC through the normal contact.
	if err := s.Activate(1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(dcc, false); err != nil {
		t.Fatal(err)
	}
	s.Precharge()
	// AAP(DCC-bar, C): read complement, copy into row 2.
	if err := s.Activate(dcc, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(2, false); err != nil {
		t.Fatal(err)
	}
	s.Precharge()

	want := bitvec.New(128).Not(data)
	if !s.RowData(2).Equal(want) {
		t.Fatal("NOT through DCC produced wrong result")
	}
}

func TestNegatedActivateRejectsRegularRow(t *testing.T) {
	s := NewSubarray(smallCfg())
	if err := s.Activate(0, true); err == nil {
		t.Fatal("negated activate of a regular row must error")
	}
}

func TestPseudoPrechargeOR(t *testing.T) {
	// The two-cycle in-place OR: APP(A) then AP(B) leaves A OR B in B.
	s := NewSubarray(smallCfg())
	rng := rand.New(rand.NewSource(5))
	a := bitvec.Random(rng, 128)
	b := bitvec.Random(rng, 128)
	s.LoadRow(0, a)
	s.LoadRow(1, b)

	if err := s.Activate(0, false); err != nil {
		t.Fatal(err)
	}
	if err := s.PseudoPrecharge(RetainOnes); err != nil {
		t.Fatal(err)
	}
	if s.State() != StatePseudoPrecharged {
		t.Fatalf("state = %v", s.State())
	}
	if err := s.Activate(1, false); err != nil {
		t.Fatal(err)
	}
	s.Precharge()

	want := bitvec.New(128).Or(a, b)
	if !s.RowData(1).Equal(want) {
		t.Fatal("in-place OR wrong")
	}
	if !s.RowData(0).Equal(a) {
		t.Fatal("first operand clobbered")
	}
}

func TestPseudoPrechargeAND(t *testing.T) {
	s := NewSubarray(smallCfg())
	rng := rand.New(rand.NewSource(6))
	a := bitvec.Random(rng, 128)
	b := bitvec.Random(rng, 128)
	s.LoadRow(0, a)
	s.LoadRow(1, b)

	if err := s.Activate(0, false); err != nil {
		t.Fatal(err)
	}
	if err := s.PseudoPrecharge(RetainZeros); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(1, false); err != nil {
		t.Fatal(err)
	}
	want := bitvec.New(128).And(a, b)
	if !s.RowData(1).Equal(want) {
		t.Fatal("in-place AND wrong")
	}
}

func TestPseudoPrechargeRequiresActivated(t *testing.T) {
	s := NewSubarray(smallCfg())
	if err := s.PseudoPrecharge(RetainOnes); err == nil {
		t.Fatal("pseudo-precharge from precharged state must error")
	}
}

func TestTRAComputesMajority(t *testing.T) {
	s := NewSubarray(smallCfg())
	rng := rand.New(rand.NewSource(7))
	a := bitvec.Random(rng, 128)
	b := bitvec.Random(rng, 128)
	c := bitvec.Random(rng, 128)
	s.LoadRow(0, a)
	s.LoadRow(1, b)
	s.LoadRow(2, c)
	if err := s.ActivateTRA(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	want := bitvec.New(128).Majority(a, b, c)
	for _, r := range []int{0, 1, 2} {
		if !s.RowData(r).Equal(want) {
			t.Fatalf("TRA row %d does not hold the majority", r)
		}
	}
	if !s.Buffer().Equal(want) {
		t.Fatal("TRA buffer wrong")
	}
}

func TestTRARequiresPrecharged(t *testing.T) {
	s := NewSubarray(smallCfg())
	if err := s.Activate(0, false); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateTRA(0, 1, 2); err == nil {
		t.Fatal("TRA from activated state must error")
	}
}

func TestTRARejectsDuplicateRows(t *testing.T) {
	s := NewSubarray(smallCfg())
	if err := s.ActivateTRA(0, 0, 1); err == nil {
		t.Fatal("TRA with duplicate rows must error")
	}
}

func TestActivationStats(t *testing.T) {
	s := NewSubarray(smallCfg())
	_ = s.Activate(0, false)
	_ = s.Activate(1, false)
	s.Precharge()
	_ = s.ActivateTRA(2, 3, 4)
	if s.Activations != 3 {
		t.Fatalf("activations = %d, want 3", s.Activations)
	}
	if s.Wordlines != 5 {
		t.Fatalf("wordlines = %d, want 5 (1+1+3)", s.Wordlines)
	}
	s.ResetStats()
	if s.Activations != 0 || s.Wordlines != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestStateAndModeStrings(t *testing.T) {
	if StatePrecharged.String() != "precharged" ||
		StateActivated.String() != "activated" ||
		StatePseudoPrecharged.String() != "pseudo-precharged" {
		t.Error("state names wrong")
	}
	if RetainOnes.String() != "retain-ones(OR)" || RetainZeros.String() != "retain-zeros(AND)" {
		t.Error("mode names wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state must render")
	}
}

// Property: the in-place two-cycle op equals the boolean op for random rows.
func TestPseudoPrechargeMatchesGoldenProperty(t *testing.T) {
	cfg := smallCfg()
	f := func(seed int64, retainZeros bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSubarray(cfg)
		a := bitvec.Random(rng, cfg.Columns)
		b := bitvec.Random(rng, cfg.Columns)
		s.LoadRow(0, a)
		s.LoadRow(1, b)
		mode := RetainOnes
		want := bitvec.New(cfg.Columns).Or(a, b)
		if retainZeros {
			mode = RetainZeros
			want = bitvec.New(cfg.Columns).And(a, b)
		}
		if s.Activate(0, false) != nil || s.PseudoPrecharge(mode) != nil || s.Activate(1, false) != nil {
			return false
		}
		return s.RowData(1).Equal(want) && s.Buffer().Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RowClone chains preserve data through arbitrary hops.
func TestRowCloneChainProperty(t *testing.T) {
	cfg := smallCfg()
	f := func(seed int64, hops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSubarray(cfg)
		data := bitvec.Random(rng, cfg.Columns)
		s.LoadRow(0, data)
		cur := 0
		if s.Activate(cur, false) != nil {
			return false
		}
		n := int(hops)%6 + 1
		for i := 0; i < n; i++ {
			next := (cur + 1) % cfg.RowsPerSubarray
			if s.Activate(next, false) != nil {
				return false
			}
			cur = next
		}
		s.Precharge()
		return s.RowData(cur).Equal(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubarrayIndependence(t *testing.T) {
	// Operations on one subarray must never disturb another: interleave
	// pseudo-precharge sequences across two subarrays of one bank.
	m := NewModule(smallCfg())
	s0 := m.Bank(0).Subarray(0)
	s1 := m.Bank(0).Subarray(1)
	rng := rand.New(rand.NewSource(11))
	a0 := bitvec.Random(rng, 128)
	b0 := bitvec.Random(rng, 128)
	a1 := bitvec.Random(rng, 128)
	b1 := bitvec.Random(rng, 128)
	s0.LoadRow(0, a0)
	s0.LoadRow(1, b0)
	s1.LoadRow(0, a1)
	s1.LoadRow(1, b1)

	// Interleaved: open s0, pseudo-precharge s0, then a full op on s1,
	// then complete s0's op.
	if err := s0.Activate(0, false); err != nil {
		t.Fatal(err)
	}
	if err := s0.PseudoPrecharge(RetainOnes); err != nil {
		t.Fatal(err)
	}
	if err := s1.Activate(0, false); err != nil {
		t.Fatal(err)
	}
	if err := s1.PseudoPrecharge(RetainZeros); err != nil {
		t.Fatal(err)
	}
	if err := s1.Activate(1, false); err != nil {
		t.Fatal(err)
	}
	s1.Precharge()
	if err := s0.Activate(1, false); err != nil {
		t.Fatal(err)
	}
	s0.Precharge()

	want0 := bitvec.New(128).Or(a0, b0)
	want1 := bitvec.New(128).And(a1, b1)
	if !s0.RowData(1).Equal(want0) {
		t.Fatal("subarray 0 result corrupted by interleaving")
	}
	if !s1.RowData(1).Equal(want1) {
		t.Fatal("subarray 1 result corrupted by interleaving")
	}
}

// Property: an arbitrary interleaving of in-place ops across subarrays
// matches per-subarray sequential execution.
func TestInterleavingEquivalenceProperty(t *testing.T) {
	cfg := smallCfg()
	f := func(seed int64, schedule []uint8) bool {
		if len(schedule) > 12 {
			schedule = schedule[:12]
		}
		rng := rand.New(rand.NewSource(seed))
		m := NewModule(cfg)
		subs := []*Subarray{m.Bank(0).Subarray(0), m.Bank(1).Subarray(0)}
		// Shadow model per subarray.
		shadow := make([][]*bitvec.Vector, len(subs))
		for i, s := range subs {
			shadow[i] = make([]*bitvec.Vector, 4)
			for r := 0; r < 4; r++ {
				shadow[i][r] = bitvec.Random(rng, cfg.Columns)
				s.LoadRow(r, shadow[i][r])
			}
		}
		// Each schedule entry: pick subarray, pick (src,dst,mode), run the
		// two-cycle op on the device and on the shadow.
		for _, step := range schedule {
			i := int(step) % len(subs)
			src := int(step/2) % 4
			dst := (src + 1 + int(step/8)%3) % 4
			mode := RetainOnes
			if step%2 == 0 {
				mode = RetainZeros
			}
			s := subs[i]
			if s.Activate(src, false) != nil || s.PseudoPrecharge(mode) != nil ||
				s.Activate(dst, false) != nil {
				return false
			}
			s.Precharge()
			if mode == RetainOnes {
				shadow[i][dst].Or(shadow[i][src], shadow[i][dst])
			} else {
				shadow[i][dst].And(shadow[i][src], shadow[i][dst])
			}
		}
		for i, s := range subs {
			for r := 0; r < 4; r++ {
				if !s.RowData(r).Equal(shadow[i][r]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigTotalRows(t *testing.T) {
	c := smallCfg()
	if c.TotalRows() != c.RowsPerSubarray+c.DualContactRows {
		t.Fatal("TotalRows wrong")
	}
}

// TestCommandsAllocFree is the device-model allocation gate: with the
// persistent scratch rows, no command primitive allocates — in particular
// Activate in the pseudo-precharged state (the ELP2IM in-place op, the
// hottest command of the fallback executor) and ActivateTRA.
func TestCommandsAllocFree(t *testing.T) {
	s := NewSubarray(smallCfg())
	rng := rand.New(rand.NewSource(3))
	s.LoadRow(0, bitvec.Random(rng, 128))
	s.LoadRow(1, bitvec.Random(rng, 128))
	s.LoadRow(2, bitvec.Random(rng, 128))

	mustOK := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Pseudo-precharged Activate, regular and negated, both retain modes.
	allocs := testing.AllocsPerRun(100, func() {
		mustOK(s.Activate(0, false))
		mustOK(s.PseudoPrecharge(RetainZeros))
		mustOK(s.Activate(1, false))
		mustOK(s.PseudoPrecharge(RetainOnes))
		mustOK(s.Activate(s.DCCRow(0), true))
		s.Precharge()
	})
	if allocs != 0 {
		t.Fatalf("pseudo-precharged Activate allocates %.1f/op, want 0", allocs)
	}
	// TRA.
	allocs = testing.AllocsPerRun(100, func() {
		mustOK(s.ActivateTRA(0, 1, 2))
		s.Precharge()
	})
	if allocs != 0 {
		t.Fatalf("ActivateTRA allocates %.1f/op, want 0", allocs)
	}
}
