package controller

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// TraceEntry is one command's execution record.
type TraceEntry struct {
	// Step is the executed command; its slots index the trace's Symbols.
	Step primitive.Step
	// StartNS and EndNS delimit the command on the timeline.
	StartNS, EndNS float64
	// EnergyNJ is the command's dynamic energy.
	EnergyNJ float64
	// Wordlines raised by the command.
	Wordlines int
}

// Trace is a timed replay of a program.
type Trace struct {
	Entries []TraceEntry
	// Symbols names the entries' row slots (the program's symbol table).
	Symbols []string
}

// Duration returns the trace end time.
func (t Trace) Duration() float64 {
	if len(t.Entries) == 0 {
		return 0
	}
	return t.Entries[len(t.Entries)-1].EndNS
}

// Energy returns the summed dynamic energy.
func (t Trace) Energy() float64 {
	total := 0.0
	for _, e := range t.Entries {
		total += e.EnergyNJ
	}
	return total
}

// String renders the trace as a table.
func (t Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %8s %4s  %s\n", "start(ns)", "end(ns)", "nJ", "WL", "command")
	for _, e := range t.Entries {
		fmt.Fprintf(&b, "%10.1f %10.1f %8.2f %4d  %s\n",
			e.StartNS, e.EndNS, e.EnergyNJ, e.Wordlines, e.Step.Format(t.Symbols))
	}
	return b.String()
}

// Run replays the program on a subarray with its symbols bound to rows,
// command by command through primitive.Step.Run, producing the functional
// state change and a timed trace. A failing command stops the replay; the
// trace holds the commands before it.
func (p *Program) Run(sub *dram.Subarray, rows map[string]int, tp timing.Params, pp power.Params) (Trace, error) {
	tr := Trace{Symbols: p.Symbols}
	table := make([]int, len(p.Symbols))
	for i, name := range p.Symbols {
		r, ok := rows[name]
		if !ok {
			return tr, fmt.Errorf("controller: unbound row symbol %q", name)
		}
		table[i] = r
	}
	now := 0.0
	for i, s := range p.Seq {
		if err := s.Run(sub, table); err != nil {
			return tr, fmt.Errorf("controller: command %d (%s): %w", i, s.Format(p.Symbols), err)
		}
		d := s.Kind.Duration(tp)
		tr.Entries = append(tr.Entries, TraceEntry{
			Step:      s,
			StartNS:   now,
			EndNS:     now + d,
			EnergyNJ:  s.Kind.Energy(pp),
			Wordlines: s.Kind.Wordlines(),
		})
		now += d
	}
	return tr, nil
}

// SequenceBuffer is the configurable controller's per-operation program
// store (§5.1): named, pre-validated command programs.
type SequenceBuffer struct {
	programs map[string]*Program
}

// NewSequenceBuffer returns an empty buffer.
func NewSequenceBuffer() *SequenceBuffer {
	return &SequenceBuffer{programs: map[string]*Program{}}
}

// Store assembles and registers a program under a name.
func (s *SequenceBuffer) Store(name, src string) error {
	p, err := Assemble(src)
	if err != nil {
		return err
	}
	s.programs[name] = p
	return nil
}

// Lookup returns a stored program.
func (s *SequenceBuffer) Lookup(name string) (*Program, bool) {
	p, ok := s.programs[name]
	return p, ok
}

// Names returns the stored program names (unordered).
func (s *SequenceBuffer) Names() []string {
	out := make([]string, 0, len(s.programs))
	for n := range s.programs {
		out = append(out, n)
	}
	return out
}
