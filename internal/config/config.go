// Package config (de)serializes full simulator parameter sets as JSON, so
// experiments can be reproduced under custom module geometries, timing
// grades, power calibrations, and circuit corners without recompiling.
// Absent fields inherit the DDR3-1600 defaults.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/analog"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/timing"
)

// File is the JSON schema. Pointer sections are optional; nil means
// "use the default".
type File struct {
	// Design selects the in-DRAM computing design: "elp2im" (default),
	// "ambit", or "drisa".
	Design string `json:"design,omitempty"`
	// Module is the DRAM geometry.
	Module *dram.Config `json:"module,omitempty"`
	// Timing is the phase-level timing parameter set.
	Timing *timing.Params `json:"timing,omitempty"`
	// Power is the energy parameter set.
	Power *power.Params `json:"power,omitempty"`
	// Circuit is the analog column model (waveforms, reliability).
	Circuit *analog.Circuit `json:"circuit,omitempty"`
	// PowerConstrained enforces the charge-pump activation budget.
	PowerConstrained bool `json:"power_constrained,omitempty"`
	// ReservedRows overrides the design's reserved-row count.
	ReservedRows int `json:"reserved_rows,omitempty"`
	// HighThroughputMode selects ELP2IM's AAP-APP-AP sequences.
	HighThroughputMode bool `json:"high_throughput,omitempty"`
}

// Default returns the fully populated DDR3-1600 parameter set.
func Default() File {
	mod := dram.Default()
	tp := timing.DDR31600()
	pp := power.DDR31600()
	cc := analog.Default()
	return File{
		Design:  "elp2im",
		Module:  &mod,
		Timing:  &tp,
		Power:   &pp,
		Circuit: &cc,
	}
}

// Normalize fills absent sections with defaults and validates everything.
func (f *File) Normalize() error {
	d := Default()
	if f.Design == "" {
		f.Design = d.Design
	}
	switch f.Design {
	case "elp2im", "ambit", "drisa":
	default:
		return fmt.Errorf("config: unknown design %q (elp2im|ambit|drisa)", f.Design)
	}
	if f.Module == nil {
		f.Module = d.Module
	}
	if f.Timing == nil {
		f.Timing = d.Timing
	}
	if f.Power == nil {
		f.Power = d.Power
	}
	if f.Circuit == nil {
		f.Circuit = d.Circuit
	}
	if err := f.Module.Validate(); err != nil {
		return err
	}
	if err := f.Timing.Validate(); err != nil {
		return err
	}
	if err := f.Power.Validate(); err != nil {
		return err
	}
	if err := f.Circuit.Validate(); err != nil {
		return err
	}
	if f.ReservedRows < 0 {
		return errors.New("config: reserved_rows must be non-negative")
	}
	return nil
}

// Load decodes a parameter file, normalizing absent sections to defaults.
func Load(r io.Reader) (File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	if err := f.Normalize(); err != nil {
		return File{}, err
	}
	return f, nil
}

// LoadFile loads a parameter file from disk.
func LoadFile(path string) (File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	defer fh.Close()
	return Load(fh)
}

// Save writes the parameter set as indented JSON.
func (f File) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
