package main

import (
	elp2im "repro"
	"repro/internal/kernel"
	"repro/internal/plan"
)

// clusterRunner executes a compiled plan the way the fused tier does:
// one fused kernel, derived from the engine, per plan cluster, with
// cluster outputs in the plan's slots.
type clusterRunner struct {
	fs    *kernel.FusedSet
	slots [][]uint64
}

// newClusterRunner derives kernels from the accelerator's engine.
func newClusterRunner(acc *elp2im.Accelerator) *clusterRunner {
	return &clusterRunner{fs: kernel.NewFusedSet(acc.BaseExecutor(), moduleConfig())}
}

// run evaluates p into out, reading variable name's words through vars.
// Every kernel Apply is one "kernel.apply" span under parent; rs counts
// the gates applied and the bytes they stream (each input read once and
// the output written once per cluster).
func (cr *clusterRunner) run(tr *tracer, req, parent int64, p *plan.Plan, vars func(name string) []uint64, out []uint64, rs *replayStats) error {
	words := len(out)
	for len(cr.slots) < p.Slots {
		cr.slots = append(cr.slots, nil)
	}
	for i := 0; i < p.Slots; i++ {
		if len(cr.slots[i]) != words {
			cr.slots[i] = make([]uint64, words)
		}
	}
	resolve := func(r plan.Ref) []uint64 {
		if r.Var {
			return vars(p.Vars[r.Index])
		}
		return cr.slots[r.Index]
	}
	for i := range p.Clusters {
		c := &p.Clusters[i]
		f, err := cr.fs.Fused(c.Spec)
		if err != nil {
			return err
		}
		srcs := make([][]uint64, len(c.Inputs))
		for j, r := range c.Inputs {
			srcs[j] = resolve(r)
		}
		dst := cr.slots[c.Out]
		rs.kernelNS += tr.do("kernel.apply", req, parent, func() { f.Apply(dst, srcs) })
		rs.gates += f.Ops()
		rs.bytes += int64(len(srcs)+1) * int64(words) * 8
	}
	copy(out, resolve(p.Result()))
	return nil
}
