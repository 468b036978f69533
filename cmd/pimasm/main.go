// Command pimasm assembles, validates, and traces ELP2IM controller
// programs written in the paper's prmt([dst],src) notation (§5.1).
//
// Usage:
//
//	pimasm 'oAAP([R0],B) APP(A):zeros oAAP([C],R0)'
//	pimasm -trace 'oAAP([R0],B) APP(A):zeros oAAP([C],R0)'
//	echo 'AP(A)' | pimasm -
//
// Symbols starting with R are bound to dual-contact reserved rows; all
// other symbols are bound to successive data rows. With -trace the
// program runs on a demo subarray loaded with random data and the timed
// command trace plus the resulting row populations are printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/timing"
)

func main() {
	trace := flag.Bool("trace", false, "execute on a demo subarray and print the timed trace")
	seed := flag.Int64("seed", 1, "random seed for demo row contents")
	flag.Parse()

	src, err := readProgram(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimasm:", err)
		os.Exit(2)
	}
	prog, err := controller.Assemble(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimasm:", err)
		os.Exit(1)
	}

	tp := timing.DDR31600()
	pp := power.DDR31600()
	fmt.Print(prog)
	fmt.Printf("commands: %d   latency: %.1f ns   dynamic energy: %.2f nJ\n",
		len(prog.Seq), prog.Seq.Duration(tp), prog.Seq.Energy(pp))

	if !*trace {
		return
	}

	sub := dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 32, Columns: 64, DualContactRows: 2,
	})
	rows := map[string]int{}
	next, dcc := 0, 0
	rng := rand.New(rand.NewSource(*seed))
	for _, sym := range prog.Symbols {
		if strings.HasPrefix(sym, "R") && dcc < 2 {
			rows[sym] = sub.DCCRow(dcc)
			dcc++
		} else {
			rows[sym] = next
			next++
		}
		sub.LoadRow(rows[sym], bitvec.Random(rng, 64))
	}

	fmt.Println("\nrow bindings and initial contents:")
	for _, sym := range prog.Symbols {
		fmt.Printf("  %-6s row %2d  %s\n", sym, rows[sym], sub.RowData(rows[sym]))
	}
	tr, err := prog.Run(sub, rows, tp, pp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimasm:", err)
		os.Exit(1)
	}
	fmt.Println("\ntrace:")
	fmt.Print(tr)
	fmt.Println("final contents:")
	for _, sym := range prog.Symbols {
		fmt.Printf("  %-6s row %2d  %s\n", sym, rows[sym], sub.RowData(rows[sym]))
	}
}

func readProgram(args []string) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("no program given (pass it as an argument, or '-' for stdin)")
	}
	if len(args) == 1 && args[0] == "-" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	return strings.Join(args, " "), nil
}
