// Package dram is a functional (bit-accurate) model of a DRAM device at
// the granularity the in-memory computing engines need: banks of subarrays,
// each subarray a matrix of 1T1C cell rows sharing one row of sense
// amplifiers.
//
// The model implements the full mechanism set the reproduced designs rely
// on:
//
//   - regular activate / precharge with destructive-read + restore,
//   - RowClone: a second activate while the row buffer is full copies the
//     buffer into the newly opened row,
//   - Ambit's triple-row activation (TRA): simultaneous activation of three
//     rows charge-shares to the bitwise majority, which is restored into
//     all three rows,
//   - dual-contact cells (DCC) whose negated wordline senses and restores
//     the complement,
//   - ELP2IM's pseudo-precharge: after an activate, the SA supply shift
//     retains full-rail bitline values ('1' for OR, '0' for AND) while
//     erasing the others to Vdd/2; the next activate then either overwrites
//     the accessed cells or senses them normally, computing OR/AND in place.
//
// The package is purely functional — timing and energy are accounted by the
// engines in internal/elpim, internal/ambit, and internal/drisa.
package dram

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
)

// Config describes the geometry of a module.
type Config struct {
	// Banks is the number of independently operable banks (paper: 8).
	Banks int
	// SubarraysPerBank is the number of subarrays per bank.
	SubarraysPerBank int
	// RowsPerSubarray is the number of regular data rows per subarray.
	RowsPerSubarray int
	// Columns is the row width in bits (bits processed per subarray op).
	Columns int
	// DualContactRows is the number of dual-contact-cell rows appended
	// after the data rows (ELP2IM: 1 or 2; Ambit: 2 inside the B-group).
	DualContactRows int
}

// Default returns the module configuration used in the paper's case
// studies: 8 banks, 512-row × 8K-column subarrays.
func Default() Config {
	return Config{
		Banks:            8,
		SubarraysPerBank: 16,
		RowsPerSubarray:  512,
		Columns:          8192,
		DualContactRows:  1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0:
		return errors.New("dram: Banks must be positive")
	case c.SubarraysPerBank <= 0:
		return errors.New("dram: SubarraysPerBank must be positive")
	case c.RowsPerSubarray <= 0:
		return errors.New("dram: RowsPerSubarray must be positive")
	case c.Columns <= 0:
		return errors.New("dram: Columns must be positive")
	case c.DualContactRows < 0:
		return errors.New("dram: DualContactRows must be non-negative")
	}
	return nil
}

// TotalRows returns the number of rows per subarray including DCC rows.
func (c Config) TotalRows() int { return c.RowsPerSubarray + c.DualContactRows }

// State is the electrical state of a subarray's bitlines/SAs.
type State int

const (
	// StatePrecharged: bitline pair at Vdd/2, row buffer invalid.
	StatePrecharged State = iota
	// StateActivated: a row is open, row buffer holds its (restored) data.
	StateActivated
	// StatePseudoPrecharged: the SA supply shift has regulated the
	// bitlines; retained full-rail values await the next activate.
	StatePseudoPrecharged
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StatePrecharged:
		return "precharged"
	case StateActivated:
		return "activated"
	case StatePseudoPrecharged:
		return "pseudo-precharged"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// RetainMode selects which rail the pseudo-precharge retains.
type RetainMode int

const (
	// RetainOnes keeps '1' bitlines at Vdd (Gnd rail shifts to Vdd/2):
	// the next activate computes OR against the retained pattern.
	RetainOnes RetainMode = iota
	// RetainZeros keeps '0' bitlines at Gnd (Vdd rail shifts to Vdd/2):
	// the next activate computes AND.
	RetainZeros
)

// String returns the mode name.
func (m RetainMode) String() string {
	if m == RetainZeros {
		return "retain-zeros(AND)"
	}
	return "retain-ones(OR)"
}

// Subarray is one DRAM subarray: data rows, optional dual-contact rows, and
// a shared row of sense amplifiers (the row buffer).
type Subarray struct {
	cfg Config
	// rows are the TotalRows() rows of Columns bits. A row stays nil —
	// all-zero cells, no memory — until row first reaches it, so a
	// module whose rows are mostly never touched (the compiled-kernel
	// tiers bypass the device model) costs pointers, not megabytes.
	rows   []*bitvec.Vector
	buf    *bitvec.Vector // row buffer (SA latches)
	state  State
	mode   RetainMode
	retain *bitvec.Vector // snapshot of buffer at pseudo-precharge time

	// Persistent per-command scratch rows, so Activate and ActivateTRA
	// never allocate on the hot path (the command-accurate model is the
	// fallback executor behind every fastpath miss and the whole
	// differential harness).
	scratchVal *bitvec.Vector // negated-read staging in Activate
	scratchRes *bitvec.Vector // charge-sharing result in Activate/ActivateTRA

	// Stats counters (functional-level cross-checks for the engines).
	Activations int // activate events
	Wordlines   int // total wordlines raised
}

// NewSubarray returns a zero-initialized subarray. Its rows are allocated
// on first touch.
func NewSubarray(cfg Config) *Subarray {
	return &Subarray{
		cfg:        cfg,
		rows:       make([]*bitvec.Vector, cfg.TotalRows()),
		buf:        bitvec.New(cfg.Columns),
		retain:     bitvec.New(cfg.Columns),
		scratchVal: bitvec.New(cfg.Columns),
		scratchRes: bitvec.New(cfg.Columns),
	}
}

// Columns returns the subarray width in bits.
func (s *Subarray) Columns() int { return s.cfg.Columns }

// Rows returns the number of regular data rows.
func (s *Subarray) Rows() int { return s.cfg.RowsPerSubarray }

// State returns the current electrical state.
func (s *Subarray) State() State { return s.state }

// IsDCC reports whether row r is a dual-contact-cell row.
func (s *Subarray) IsDCC(r int) bool {
	return r >= s.cfg.RowsPerSubarray && r < s.cfg.TotalRows()
}

// DCCRow returns the row index of the i-th dual-contact row.
func (s *Subarray) DCCRow(i int) int {
	if i < 0 || i >= s.cfg.DualContactRows {
		panic(fmt.Sprintf("dram: DCC index %d out of range [0,%d)", i, s.cfg.DualContactRows))
	}
	return s.cfg.RowsPerSubarray + i
}

func (s *Subarray) checkRow(r int) {
	if r < 0 || r >= s.cfg.TotalRows() {
		panic(fmt.Sprintf("dram: row %d out of range [0,%d)", r, s.cfg.TotalRows()))
	}
}

// row returns row r's cells, allocating the all-zero row on first
// touch. Every row access goes through it.
func (s *Subarray) row(r int) *bitvec.Vector {
	s.checkRow(r)
	if s.rows[r] == nil {
		s.rows[r] = bitvec.New(s.cfg.Columns)
	}
	return s.rows[r]
}

// RowData returns the stored contents of row r without simulating an
// access (host-side backdoor for loading operands and checking results).
func (s *Subarray) RowData(r int) *bitvec.Vector { return s.row(r) }

// LoadRow overwrites row r's cells with v (host-side backdoor).
func (s *Subarray) LoadRow(r int, v *bitvec.Vector) { s.row(r).CopyFrom(v) }

// Buffer returns the row buffer contents. Valid only while activated.
func (s *Subarray) Buffer() *bitvec.Vector { return s.buf }

// Activate opens row r. Behaviour depends on the current state:
//
//   - precharged: normal access — the row is sensed into the buffer and
//     restored (destructive read + restore),
//   - activated: RowClone — the buffer is written into row r,
//   - pseudo-precharged: ELP2IM op — retained bitline values overwrite the
//     cells; erased (Vdd/2) bitlines sense normally. The row ends up with
//     retained OP row, which is also latched in the buffer.
//
// negated selects the complementary wordline of a dual-contact row and is
// only legal for DCC rows.
func (s *Subarray) Activate(r int, negated bool) error {
	s.checkRow(r)
	if negated && !s.IsDCC(r) {
		return fmt.Errorf("dram: row %d is not dual-contact; cannot activate negated wordline", r)
	}
	s.Activations++
	s.Wordlines++

	cell := s.row(r)
	switch s.state {
	case StatePrecharged:
		if negated {
			s.buf.Not(cell)
		} else {
			s.buf.CopyFrom(cell)
		}
		// Restore is implicit: the cell already holds what was sensed.
	case StateActivated:
		// RowClone: buffer drives the bitlines; the opened cell is
		// overwritten with the buffer (or its complement through the
		// negated contact).
		if negated {
			cell.Not(s.buf)
		} else {
			cell.CopyFrom(s.buf)
		}
	case StatePseudoPrecharged:
		// ELP2IM in-place op. Where the bitline retained a full rail the
		// cell is overwritten; elsewhere the cell is sensed normally.
		val := cell
		if negated {
			val = s.scratchVal.Not(cell)
		}
		result := s.scratchRes
		switch s.mode {
		case RetainOnes: // retained '1' overwrites → OR
			result.Or(s.retain, val)
		case RetainZeros: // retained '0' overwrites → AND
			result.And(s.retain, val)
		}
		s.buf.CopyFrom(result)
		if negated {
			cell.Not(result)
		} else {
			cell.CopyFrom(result)
		}
	}
	s.state = StateActivated
	return nil
}

// ActivateTRA simultaneously opens three rows (Ambit). All bitline charge
// is shared; the SA resolves to the bitwise majority, which is restored
// into all three rows and the buffer. Only legal from the precharged state
// and only for non-DCC rows.
func (s *Subarray) ActivateTRA(r0, r1, r2 int) error {
	if s.state != StatePrecharged {
		return fmt.Errorf("dram: TRA requires precharged subarray, state is %v", s.state)
	}
	for _, r := range []int{r0, r1, r2} {
		s.checkRow(r)
	}
	if r0 == r1 || r1 == r2 || r0 == r2 {
		return errors.New("dram: TRA rows must be distinct")
	}
	s.Activations++
	s.Wordlines += 3
	a, b, c := s.row(r0), s.row(r1), s.row(r2)
	maj := s.scratchRes.Majority(a, b, c)
	a.CopyFrom(maj)
	b.CopyFrom(maj)
	c.CopyFrom(maj)
	s.buf.CopyFrom(maj)
	s.state = StateActivated
	return nil
}

// PseudoPrecharge shifts one SA supply rail to Vdd/2 (then the split-EQ
// precharge equalizes the reference line). Retained full-rail values stay
// on the bitlines and will combine with the next activated row. Only legal
// while activated.
func (s *Subarray) PseudoPrecharge(mode RetainMode) error {
	if s.state != StateActivated {
		return fmt.Errorf("dram: pseudo-precharge requires an activated row, state is %v", s.state)
	}
	s.mode = mode
	s.retain.CopyFrom(s.buf)
	s.state = StatePseudoPrecharged
	return nil
}

// Precharge closes the subarray: bitlines equalized to Vdd/2.
func (s *Subarray) Precharge() {
	s.state = StatePrecharged
}

// ResetStats clears the activation counters.
func (s *Subarray) ResetStats() {
	s.Activations = 0
	s.Wordlines = 0
}

// Bank is a set of subarrays sharing I/O but operable one subarray at a
// time for PIM purposes.
type Bank struct {
	subs []*Subarray
}

// Subarray returns subarray i.
func (b *Bank) Subarray(i int) *Subarray {
	if i < 0 || i >= len(b.subs) {
		panic(fmt.Sprintf("dram: subarray %d out of range [0,%d)", i, len(b.subs)))
	}
	return b.subs[i]
}

// Subarrays returns the number of subarrays.
func (b *Bank) Subarrays() int { return len(b.subs) }

// Module is a full DRAM module.
type Module struct {
	cfg   Config
	banks []*Bank
}

// NewModule builds a module from cfg. It panics if cfg is invalid.
func NewModule(cfg Config) *Module {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Module{cfg: cfg, banks: make([]*Bank, cfg.Banks)}
	for b := range m.banks {
		bank := &Bank{subs: make([]*Subarray, cfg.SubarraysPerBank)}
		for i := range bank.subs {
			bank.subs[i] = NewSubarray(cfg)
		}
		m.banks[b] = bank
	}
	return m
}

// Config returns the module configuration.
func (m *Module) Config() Config { return m.cfg }

// Bank returns bank i.
func (m *Module) Bank(i int) *Bank {
	if i < 0 || i >= len(m.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", i, len(m.banks)))
	}
	return m.banks[i]
}

// Banks returns the number of banks.
func (m *Module) Banks() int { return len(m.banks) }
