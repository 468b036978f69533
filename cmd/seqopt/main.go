// Command seqopt explores the Figure 8 XOR sequence optimization and the
// compiled primitive sequences of every basic operation for the three
// designs — the command-level view of what each engine actually issues.
//
// Usage:
//
//	seqopt                  show the XOR optimization ladder (Figure 8)
//	seqopt compile          show each design's compiled sequences per op
//	seqopt expr '<bool>'    compile a boolean expression to an in-DRAM
//	                        program and price it per design
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/ambit"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/expr"
	"repro/internal/timing"
)

// compileExpr compiles a boolean expression and prices the program on the
// three designs.
func compileExpr(src string) error {
	node, err := expr.Parse(src)
	if err != nil {
		return err
	}
	prog, err := expr.Compile(node)
	if err != nil {
		return err
	}
	fmt.Print(prog)
	fmt.Println("per-stripe cost by design:")
	for _, d := range []engine.Engine{
		elpim.MustNew(elpim.DefaultConfig()),
		ambit.MustNew(ambit.DefaultConfig()),
		drisa.MustNew(drisa.DefaultConfig()),
	} {
		c, err := prog.Cost(d)
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s %8.1f ns  %3d commands  %3d wordlines\n",
			d.Name(), c.LatencyNS, c.Commands, c.Wordlines)
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compile" {
		compile()
		return
	}
	if len(os.Args) > 2 && os.Args[1] == "expr" {
		if err := compileExpr(strings.Join(os.Args[2:], " ")); err != nil {
			fmt.Fprintln(os.Stderr, "seqopt:", err)
			os.Exit(1)
		}
		return
	}
	f, err := exp.RunFig8()
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqopt:", err)
		os.Exit(1)
	}
	fmt.Println("Figure 8: XOR primitive-sequence optimization")
	f.WriteText(os.Stdout)
}

func compile() {
	tp := timing.DDR31600()
	e1 := elpim.MustNew(elpim.DefaultConfig())
	cfg2 := elpim.DefaultConfig()
	cfg2.ReservedRows = 2
	e2 := elpim.MustNew(cfg2)
	a := ambit.MustNew(ambit.DefaultConfig())
	d := drisa.MustNew(drisa.DefaultConfig())

	names := elpim.SlotNames()
	fmt.Println("ELP2IM compiled sequences (1 reserved row); slots: A,B operands, C dest, R0/R1 reserved")
	for _, op := range engine.BasicOps() {
		q := e1.Compile(op)
		fmt.Printf("  %-5s %6.1f ns  %s\n", op, q.Duration(tp), q.Format(names))
	}
	fmt.Println("\nELP2IM with two reserved rows (XOR = Figure 8 sequence 6)")
	for _, op := range []engine.Op{engine.OpXOR, engine.OpXNOR} {
		q := e2.Compile(op)
		fmt.Printf("  %-5s %6.1f ns  %s\n", op, q.Duration(tp), q.Format(names))
	}
	fmt.Println("\nAmbit canonical sequences")
	for _, op := range engine.BasicOps() {
		q := a.Seq(op)
		fmt.Printf("  %-5s %6.1f ns  %d commands, peak %d wordlines/activation\n",
			op, q.Duration(tp), len(q), q.MaxWordlinesPerEvent())
	}
	fmt.Println("\nDrisa_nor NOR-cycle decompositions")
	for _, op := range engine.BasicOps() {
		fmt.Printf("  %-5s %6.1f ns  %d NOR cycles\n",
			op, d.OpStats(op).LatencyNS, d.Cycles(op))
	}
}
