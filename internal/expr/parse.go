// Package expr compiles boolean expressions over bulk bit-vectors into
// optimized in-DRAM operation programs — the software face of the paper's
// §5.1 configurable memory controller, which buffers per-expression
// primitive sequences.
//
// The pipeline is parse → DAG (common-subexpression elimination and
// double-negation removal) → gate fusion (NOT feeding AND/OR/XOR, or over
// a gate nothing else reads, becomes the engine's native NAND/NOR/XNOR
// or the gate's complement) → liveness-based scratch-row
// allocation → a Program that any engine executes row-accurately on the
// device model, with a per-design cost estimate.
//
// Grammar (C-style precedence, lowest first):
//
//	expr   := or
//	or     := xor ('|' xor)*
//	xor    := and ('^' and)*
//	and    := unary ('&' unary)*
//	unary  := '~' unary | '(' expr ')' | ident
//
// Identifiers are [A-Za-z_][A-Za-z0-9_]*.
package expr

import (
	"errors"
	"fmt"
	"unicode"
)

// ErrParse tags every syntax error returned by Parse, so callers can
// classify a failure as malformed input (errors.Is(err, expr.ErrParse))
// without matching message text — the serving layer maps it to HTTP 400.
var ErrParse = errors.New("parse error")

// parseErrf builds an ErrParse-tagged syntax error.
func parseErrf(format string, args ...any) error {
	return fmt.Errorf("expr: %w: %s", ErrParse, fmt.Sprintf(format, args...))
}

// NodeKind discriminates AST nodes.
type NodeKind int

// AST node kinds.
const (
	NodeVar NodeKind = iota
	NodeNot
	NodeAnd
	NodeOr
	NodeXor
)

// String returns the kind name.
func (k NodeKind) String() string {
	switch k {
	case NodeVar:
		return "var"
	case NodeNot:
		return "not"
	case NodeAnd:
		return "and"
	case NodeOr:
		return "or"
	case NodeXor:
		return "xor"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a boolean expression tree.
type Node struct {
	Kind  NodeKind
	Name  string // NodeVar only
	Left  *Node  // operand (NodeNot) or left operand
	Right *Node  // right operand (binary kinds)
}

// Var returns a variable leaf.
func Var(name string) *Node { return &Node{Kind: NodeVar, Name: name} }

// Not returns ¬x.
func Not(x *Node) *Node { return &Node{Kind: NodeNot, Left: x} }

// And returns x ∧ y.
func And(x, y *Node) *Node { return &Node{Kind: NodeAnd, Left: x, Right: y} }

// Or returns x ∨ y.
func Or(x, y *Node) *Node { return &Node{Kind: NodeOr, Left: x, Right: y} }

// Xor returns x ⊕ y.
func Xor(x, y *Node) *Node { return &Node{Kind: NodeXor, Left: x, Right: y} }

// Eval evaluates the expression under a variable assignment. It panics on
// unknown variables (use Vars to collect them first).
func (n *Node) Eval(env map[string]bool) bool {
	switch n.Kind {
	case NodeVar:
		v, ok := env[n.Name]
		if !ok {
			panic(fmt.Sprintf("expr: unbound variable %q", n.Name))
		}
		return v
	case NodeNot:
		return !n.Left.Eval(env)
	case NodeAnd:
		return n.Left.Eval(env) && n.Right.Eval(env)
	case NodeOr:
		return n.Left.Eval(env) || n.Right.Eval(env)
	case NodeXor:
		return n.Left.Eval(env) != n.Right.Eval(env)
	default:
		panic("expr: unknown node kind")
	}
}

// Vars returns the distinct variable names in first-appearance order.
func (n *Node) Vars() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(*Node)
	walk = func(x *Node) {
		if x == nil {
			return
		}
		if x.Kind == NodeVar {
			if !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
			return
		}
		walk(x.Left)
		walk(x.Right)
	}
	walk(n)
	return out
}

// String renders the expression with explicit parentheses.
func (n *Node) String() string {
	switch n.Kind {
	case NodeVar:
		return n.Name
	case NodeNot:
		return "~" + n.Left.String()
	case NodeAnd:
		return "(" + n.Left.String() + " & " + n.Right.String() + ")"
	case NodeOr:
		return "(" + n.Left.String() + " | " + n.Right.String() + ")"
	case NodeXor:
		return "(" + n.Left.String() + " ^ " + n.Right.String() + ")"
	default:
		return "?"
	}
}

// parser is a recursive-descent parser over a token cursor.
type parser struct {
	src []rune
	pos int
}

// Parse parses a boolean expression.
func Parse(src string) (*Node, error) {
	p := &parser{src: []rune(src)}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, parseErrf("unexpected %q at offset %d", string(p.src[p.pos]), p.pos)
	}
	return n, nil
}

// MustParse parses and panics on error (for tests and fixed programs).
func MustParse(src string) *Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *parser) peek() rune {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) parseOr() (*Node, error) {
	n, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for p.peek() == '|' {
		p.pos++
		r, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		n = Or(n, r)
	}
	return n, nil
}

func (p *parser) parseXor() (*Node, error) {
	n, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == '^' {
		p.pos++
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		n = Xor(n, r)
	}
	return n, nil
}

func (p *parser) parseAnd() (*Node, error) {
	n, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek() == '&' {
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		n = And(n, r)
	}
	return n, nil
}

func (p *parser) parseUnary() (*Node, error) {
	switch c := p.peek(); {
	case c == '~':
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(x), nil
	case c == '(':
		p.pos++
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, parseErrf("missing ')' at offset %d", p.pos)
		}
		p.pos++
		return n, nil
	case c == 0:
		return nil, parseErrf("unexpected end of input")
	case unicode.IsLetter(c) || c == '_':
		start := p.pos
		for p.pos < len(p.src) &&
			(unicode.IsLetter(p.src[p.pos]) || unicode.IsDigit(p.src[p.pos]) || p.src[p.pos] == '_') {
			p.pos++
		}
		return Var(string(p.src[start:p.pos])), nil
	default:
		return nil, parseErrf("unexpected %q at offset %d", string(c), p.pos)
	}
}
