package elp2im

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vertical"
)

// benchElems is the element count for the vertical sweeps: 1M elements
// keep every slice at 1 Mbit — the same bulk regime as the eval DAG
// sweep, where the per-step word loops dominate over program dispatch.
const benchElems = 1 << 20

// benchVertical builds a random vertical operand of the given width.
func benchVertical(b *testing.B, rng *rand.Rand, width int) *Vertical {
	b.Helper()
	elems := make([]uint64, benchElems)
	mask := vertical.WidthMask(width)
	for i := range elems {
		elems[i] = rng.Uint64() & mask
	}
	v, err := VerticalFromElements(elems, width)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkVerticalTranspose measures the transpose engine alone, into
// preallocated buffers: the horizontal→vertical re-slicing a vertical
// PUT runs (SliceInto) and the vertical→horizontal readback a GET runs
// (UnsliceInto), reported as ns/elem at element widths 1, 8 and 32 —
// the transpose group, and so the elements one 64×64 transpose covers,
// shrinks as the width grows. bench.sh's Part 6 records the sweep in
// BENCH_vertical.json's transpose block.
func BenchmarkVerticalTranspose(b *testing.B) {
	for _, width := range []int{1, 8, 32} {
		v := benchVertical(b, rand.New(rand.NewSource(5)), width)
		slices, elems := v.words(), v.Elements()
		b.Run(fmt.Sprintf("slice/w%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vertical.SliceInto(slices, elems)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchElems, "ns/elem")
		})
		b.Run(fmt.Sprintf("unslice/w%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vertical.UnsliceInto(elems, slices)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchElems, "ns/elem")
		})
	}
}

// BenchmarkVerticalArith sweeps the six µPrograms arith_wire serves —
// add, sub, lt, eq, popcount and select — over its element widths 8, 16
// and 32 (the step count grows with width) on the fused tier, with
// results pinned against the host reference and the command-accurate
// tier by TestArithMatchesReference. Each iteration recycles its result,
// the steady state elpd runs when an arith replaces a stored
// destination, so the result and temp slices come from the slice pool.
// Each point reports ns/elem, B/op, allocs/op, the modeled latency, the
// step count and the program's fused passes per block. bench.sh's Part
// 6 turns the sweep into BENCH_vertical.json.
func BenchmarkVerticalArith(b *testing.B) {
	for _, op := range arithWireOps {
		for _, width := range arithWireWidths {
			rng := rand.New(rand.NewSource(int64(width)))
			b.Run(fmt.Sprintf("%s/w%d", op, width), func(b *testing.B) {
				acc, err := New()
				if err != nil {
					b.Fatal(err)
				}
				ca, err := CompileArith(op, width)
				if err != nil {
					b.Fatal(err)
				}
				passes, err := arithPasses(acc, ca)
				if err != nil {
					b.Fatal(err)
				}
				x := benchVertical(b, rng, width)
				var y *Vertical
				if op.Binary() {
					y = benchVertical(b, rng, width)
				}
				var m *BitVector
				if op.Masked() {
					m = RandomBitVector(rng, benchElems)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var st Stats
				for i := 0; i < b.N; i++ {
					var out *Vertical
					if out, st, err = acc.ArithProg(ca, x, y, m); err != nil {
						b.Fatal(err)
					}
					acc.Recycle(out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchElems, "ns/elem")
				b.ReportMetric(st.LatencyNS, "modeled_ns")
				b.ReportMetric(float64(ca.Steps()), "steps")
				b.ReportMetric(float64(passes), "passes")
			})
		}
	}
}
