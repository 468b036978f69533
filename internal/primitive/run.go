package primitive

import (
	"fmt"

	"repro/internal/dram"
)

// Run interprets the sequence on sub command by command, binding every
// step's row slots through rows (see Step.Run). It is the one executor of
// DRAM command sequences: ELP2IM's and Ambit's engines and the
// controller's programs all run through it. A failing step stops the run
// with its index in the error.
func (q Seq) Run(sub *dram.Subarray, rows []int) error {
	for i, s := range q {
		if err := s.Run(sub, rows); err != nil {
			return fmt.Errorf("step %d (%v): %w", i, s, err)
		}
	}
	return nil
}

// Run issues the step's commands to sub. rows is the per-call row table:
// slot i binds to subarray row rows[i], and a negative entry leaves the
// slot unbound. The Kind alone decides the commands: the first activation
// opens Src (a TRA opens Src, Aux2 and Aux3 together), a Kind that Copies
// opens Dst while the buffer still drives the bitlines, and then an
// APP-class step pseudo-precharges in its retain mode while every other
// step precharges. A NOR cycle is a DRISA gate cycle, not a DRAM command,
// and is rejected.
func (s Step) Run(sub *dram.Subarray, rows []int) error {
	if s.Kind < AP || s.Kind > TRAAAP {
		return fmt.Errorf("primitive: %v is not a DRAM command", s.Kind)
	}
	src, err := bind(rows, s.Src)
	if err != nil {
		return err
	}
	if s.Kind.IsTRA() {
		r2, err2 := bind(rows, s.Aux2)
		r3, err3 := bind(rows, s.Aux3)
		switch {
		case err2 != nil:
			return err2
		case err3 != nil:
			return err3
		}
		err = sub.ActivateTRA(src, r2, r3)
	} else {
		err = sub.Activate(src, s.SrcNegated)
	}
	if err != nil {
		return err
	}
	if s.Kind.Copies() {
		dst, err := bind(rows, s.Dst)
		if err != nil {
			return err
		}
		if err := sub.Activate(dst, s.DstNegated); err != nil {
			return err
		}
	}
	if !s.Kind.IsPseudo() {
		sub.Precharge()
		return nil
	}
	mode := dram.RetainOnes
	if s.RetainZeros {
		mode = dram.RetainZeros
	}
	return sub.PseudoPrecharge(mode)
}

// bind resolves a slot through the row table.
func bind(rows []int, slot int) (int, error) {
	if slot < 0 || slot >= len(rows) || rows[slot] < 0 {
		return 0, fmt.Errorf("primitive: slot %d is unbound", slot)
	}
	return rows[slot], nil
}
