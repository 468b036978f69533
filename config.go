package elp2im

import (
	"fmt"
	"io"

	"repro/internal/config"
)

// fromFile converts a loaded parameter file into an accelerator config.
func fromFile(f config.File) (Config, error) {
	cfg := Config{
		Module:             *f.Module,
		Timing:             *f.Timing,
		Power:              *f.Power,
		PowerConstrained:   f.PowerConstrained,
		ReservedRows:       f.ReservedRows,
		HighThroughputMode: f.HighThroughputMode,
	}
	switch f.Design {
	case "elp2im":
		cfg.Design = DesignELP2IM
	case "ambit":
		cfg.Design = DesignAmbit
	case "drisa":
		cfg.Design = DesignDrisaNOR
	default:
		return Config{}, fmt.Errorf("elp2im: unknown design %q", f.Design)
	}
	return cfg, nil
}

// ConfigFromJSON builds an accelerator configuration from a JSON parameter
// stream (see internal/config for the schema). Absent sections inherit the
// DDR3-1600 defaults, so a minimal file like {"design":"ambit"} works.
func ConfigFromJSON(r io.Reader) (Config, error) {
	f, err := config.Load(r)
	if err != nil {
		return Config{}, err
	}
	return fromFile(f)
}

// NewFromJSONFile builds an accelerator from a JSON parameter file.
func NewFromJSONFile(path string) (*Accelerator, error) {
	f, err := config.LoadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := fromFile(f)
	if err != nil {
		return nil, err
	}
	return NewWithConfig(cfg)
}
