// Expression compiler + controller assembler tour: evaluate boolean
// expressions over bulk bit-vectors entirely in DRAM, inspect the
// compiled in-DRAM program and its per-design cost, and run a raw
// controller command program with a timed trace — the §5.1 configurable
// memory controller end to end.
package main

import (
	"fmt"
	"log"
	"math/rand"

	elp2im "repro"
	"repro/internal/ambit"
	"repro/internal/bitvec"
	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/power"
	"repro/internal/timing"
)

func main() {
	const n = 1 << 20 // 1 Mbit vectors
	rng := rand.New(rand.NewSource(9))

	// 1. High-level: Eval on the public accelerator.
	acc, err := elp2im.New()
	if err != nil {
		log.Fatal(err)
	}
	vars := map[string]*elp2im.BitVector{
		"dirty":      elp2im.RandomBitVector(rng, n),
		"referenced": elp2im.RandomBitVector(rng, n),
		"pinned":     elp2im.RandomBitVector(rng, n),
	}
	const query = "(dirty & ~referenced) & ~pinned" // page-eviction candidates
	out, st, err := acc.Eval(query, vars)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eval %q over %d pages in DRAM:\n", query, n)
	fmt.Printf("  %d candidates, %.1f µs, %.1f µJ, %d row ops\n\n",
		out.Popcount(), st.LatencyNS/1e3, st.EnergyNJ/1e3, st.RowOps)

	// 2. The compiled program and its cost on each design.
	prog, err := expr.Compile(expr.MustParse(query))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled in-DRAM program (CSE + gate fusion + row reuse):")
	fmt.Print(prog)
	fmt.Println("per-stripe cost by design:")
	for _, d := range []engine.Engine{
		elpim.MustNew(elpim.DefaultConfig()),
		ambit.MustNew(ambit.DefaultConfig()),
		drisa.MustNew(drisa.DefaultConfig()),
	} {
		c, err := prog.Cost(d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %7.1f ns  %2d commands  %2d wordlines\n",
			d.Name(), c.LatencyNS, c.Commands, c.Wordlines)
	}

	// 3. Low-level: a hand-written controller program (Figure 8 sequence 5,
	// XOR) assembled, validated, and traced on the device model.
	src := `
# C = A xor B — Figure 8 sequence 5
oAAP([R0],B)  oAPP(A):zeros   oAAP([C],~R0)
oAAP([R0],A)  oAPP(B):zeros   otAPP(~R0):ones
AP(C)
`
	p, err := controller.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	sub := dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 16, Columns: 64, DualContactRows: 1,
	})
	a := bitvec.Random(rng, 64)
	b := bitvec.Random(rng, 64)
	sub.LoadRow(0, a)
	sub.LoadRow(1, b)
	rows := map[string]int{"A": 0, "B": 1, "C": 2, "R0": sub.DCCRow(0)}
	tr, err := p.Run(sub, rows, timing.DDR31600(), power.DDR31600())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncontroller trace of the hand-written XOR:")
	fmt.Print(tr)
	want := bitvec.New(64).Xor(a, b)
	if !sub.RowData(2).Equal(want) {
		log.Fatal("XOR program result mismatch")
	}
	fmt.Println("result verified against the host golden model ✓")
}
