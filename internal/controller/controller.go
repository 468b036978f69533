// Package controller models the §5.1 memory-controller integration: the
// new control modes are exposed as a small command language in the paper's
// prmt([dst],src) notation, programs are validated against the subarray
// state machine, buffered per operation (the "configurable memory
// controller, where specific primitive sequence can be buffered"), and
// replayed with a per-command timeline against the device model.
//
// Command syntax (one command per whitespace-separated token or line;
// '#' starts a comment):
//
//	AP(src)                    activate src, precharge
//	AAP([dst],src)             copy src → dst (full activate-activate)
//	oAAP([dst],src)            overlapped copy via the separate decoder
//	APP(src):zeros|ones        activate src, pseudo-precharge retaining
//	                           zeros (AND) or ones (OR; default)
//	oAPP(src):mode             overlapped APP (isolation transistor)
//	oAPP([dst],src):mode       merged copy + pseudo-precharge
//	tAPP(src):mode             restore-truncated APP
//	otAPP(src):mode            trimmed and overlapped APP
//	TRA(r0,r1,r2)              triple-row activation, precharge
//	TRA([dst],r0,r1,r2)        TRA with an overlapped copy of the result
//
// Row operands are identifiers resolved through a symbol table; a '~'
// prefix selects the negated wordline of a dual-contact row.
package controller

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/primitive"
)

// Program is a validated command sequence: a primitive.Seq whose row
// slots index its symbol table.
type Program struct {
	// Seq is the assembled sequence; slot i names the row Symbols[i].
	Seq primitive.Seq
	// Symbols are the distinct row names in first-appearance order,
	// each command contributing its source, then its [dst], then a TRA's
	// other two rows.
	Symbols []string
	// Source is the assembled text.
	Source string
}

// kindNames maps mnemonic → primitive kind.
var kindNames = map[string]primitive.Kind{
	"AP":    primitive.AP,
	"AAP":   primitive.AAP,
	"OAAP":  primitive.OAAP,
	"APP":   primitive.APP,
	"OAPP":  primitive.OAPP,
	"TAPP":  primitive.TAPP,
	"OTAPP": primitive.OTAPP,
	"TRA":   primitive.TRAAP, // upgraded to TRAAAP when [dst] present
}

// Assemble parses a command program. Commands are separated by
// whitespace and/or newlines; '#' comments run to end of line.
func Assemble(src string) (*Program, error) {
	p := &Program{Source: src}
	for lineNo, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, tok := range strings.Fields(line) {
			step, err := p.parseCommand(tok)
			if err != nil {
				return nil, fmt.Errorf("controller: line %d: %w", lineNo+1, err)
			}
			p.Seq = append(p.Seq, step)
		}
	}
	if len(p.Seq) == 0 {
		return nil, errors.New("controller: empty program")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustAssemble assembles and panics on error.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// operand is a parsed row reference.
type operand struct {
	name    string
	negated bool
}

// slot returns o's slot in the program's symbol table, appending o's
// name on its first appearance.
func (p *Program) slot(o operand) int {
	for i, name := range p.Symbols {
		if name == o.name {
			return i
		}
	}
	p.Symbols = append(p.Symbols, o.name)
	return len(p.Symbols) - 1
}

// parseCommand parses one PRIM(...)[:mode] token into a step over the
// program's symbol table.
func (p *Program) parseCommand(tok string) (primitive.Step, error) {
	var step primitive.Step
	open := strings.IndexByte(tok, '(')
	closeIdx := strings.LastIndexByte(tok, ')')
	if open < 0 || closeIdx < open {
		return step, fmt.Errorf("malformed command %q", tok)
	}
	name := strings.ToUpper(tok[:open])
	kind, ok := kindNames[name]
	if !ok {
		return step, fmt.Errorf("unknown primitive %q", tok[:open])
	}
	args := tok[open+1 : closeIdx]
	tail := tok[closeIdx+1:]

	switch tail {
	case "":
	case ":ones":
	case ":zeros":
		step.RetainZeros = true
	default:
		return step, fmt.Errorf("bad mode suffix %q in %q", tail, tok)
	}
	if tail != "" && !kind.IsPseudo() {
		return step, fmt.Errorf("mode suffix on non-pseudo command %q", tok)
	}

	// Optional [dst] prefix.
	var dst *operand
	rest := args
	if strings.HasPrefix(rest, "[") {
		end := strings.IndexByte(rest, ']')
		if end < 0 {
			return step, fmt.Errorf("unterminated [dst] in %q", tok)
		}
		o, err := parseOperand(rest[1:end])
		if err != nil {
			return step, err
		}
		dst = &o
		rest = strings.TrimPrefix(rest[end+1:], ",")
	}
	parts := strings.Split(rest, ",")
	rows := make([]operand, len(parts))
	for i, part := range parts {
		o, err := parseOperand(part)
		if err != nil {
			return step, err
		}
		rows[i] = o
	}

	if kind == primitive.TRAAP {
		if len(rows) != 3 {
			return step, fmt.Errorf("TRA needs 3 rows in %q", tok)
		}
		if rows[0].negated || rows[1].negated || rows[2].negated {
			return step, fmt.Errorf("TRA rows cannot be negated in %q", tok)
		}
		if dst != nil {
			kind = primitive.TRAAAP
		}
	} else if len(rows) != 1 {
		return step, fmt.Errorf("%s needs exactly one source row in %q", kind, tok)
	}
	// [dst] is required by the copies, refused by the single-row
	// accesses, and turns APP/oAPP into the merged-copy form of Figure 8
	// sequence 6, a distinct primitive with two activations.
	switch {
	case (kind == primitive.AAP || kind == primitive.OAAP) && dst == nil:
		return step, fmt.Errorf("%s needs a [dst] in %q", kind, tok)
	case (kind == primitive.AP || kind == primitive.TAPP || kind == primitive.OTAPP) && dst != nil:
		return step, fmt.Errorf("%s cannot take [dst] in %q", kind, tok)
	case kind == primitive.APP && dst != nil:
		kind = primitive.APPM
	case kind == primitive.OAPP && dst != nil:
		kind = primitive.OAPPM
	}

	step.Kind = kind
	step.Src, step.SrcNegated = p.slot(rows[0]), rows[0].negated
	if dst != nil {
		step.Dst, step.DstNegated = p.slot(*dst), dst.negated
	}
	if kind.IsTRA() {
		step.Aux2, step.Aux3 = p.slot(rows[1]), p.slot(rows[2])
	}
	return step, nil
}

func parseOperand(s string) (operand, error) {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "~")
	if neg {
		s = s[1:]
	}
	if s == "" {
		return operand{}, errors.New("empty row operand")
	}
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return operand{}, fmt.Errorf("bad row name %q", s)
		}
	}
	return operand{name: s, negated: neg}, nil
}

// Validate checks the program against the subarray state machine:
// a TRA opens three distinct rows of a precharged array (no pending
// pseudo-precharge state), and the program must not end with a dangling
// regulated bitline. Every APP-class step, merged copies included, leaves
// a pseudo-precharge pending; every other step consumes it.
func (p *Program) Validate() error {
	pseudo := false
	for i, s := range p.Seq {
		if s.Kind.IsTRA() && (s.Src == s.Aux2 || s.Src == s.Aux3 || s.Aux2 == s.Aux3) {
			return fmt.Errorf("controller: command %d (%s): TRA rows must be distinct", i, s.Format(p.Symbols))
		}
		if s.Kind.IsTRA() && pseudo {
			return fmt.Errorf("controller: command %d (%s): TRA requires a precharged subarray but a pseudo-precharge is pending", i, s.Format(p.Symbols))
		}
		pseudo = s.Kind.IsPseudo()
	}
	if pseudo {
		return errors.New("controller: program ends with a pending pseudo-precharge (dangling bitline regulation)")
	}
	return nil
}

// String renders the program one command per line, in the notation
// Assemble reads.
func (p *Program) String() string {
	var b strings.Builder
	for _, s := range p.Seq {
		b.WriteString(s.Format(p.Symbols))
		b.WriteByte('\n')
	}
	return b.String()
}
