// Package plan compiles optimized expression DAGs (internal/expr) into
// fused execution plans: the schedule the facade's eval paths share.
//
// A plan partitions the DAG into clusters of at most
// kernel.MaxFusedInputs distinct sources each. Every cluster carries the
// register program that computes its whole sub-DAG: the sub-DAG cut at
// its sources and scheduled by expr.DAG.Schedule, the scheduler of the
// node program below, so common subexpressions inside a cluster are
// emitted once, temps are reused by liveness and AND/OR chains fold in
// place. The kernel fast path collapses the cluster into one k-input
// word kernel derived from that program, which packs the cluster's
// gates into a few word-loop passes over each block. Cluster outputs
// live in liveness-allocated slots, the plan-level analogue of the
// scratch-row allocator, so intermediates reuse storage instead of
// materializing named vectors.
//
// The plan also retains the node-at-a-time Program compiled from the
// same DAG. That program is the single source of modeled cost — both
// execution tiers price the identical instruction stream — and the
// schedule the command-accurate tier executes when the fast path is off
// or a cluster's kernel does not derive, which is what keeps Stats
// struct-equal between fused and command-accurate execution.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/kernel"
)

// Ref names a cluster operand: an input variable (Var true, Index into
// Plan.Vars) or the output slot of an earlier cluster.
type Ref struct {
	// Var marks a variable operand.
	Var bool
	// Index is the variable index or the slot index.
	Index int
}

// String renders the reference.
func (r Ref) String() string {
	if r.Var {
		return fmt.Sprintf("v%d", r.Index)
	}
	return fmt.Sprintf("s%d", r.Index)
}

// Cluster is one fused unit of a plan: a sub-DAG over at most
// kernel.MaxFusedInputs sources, scheduled to the register program that
// computes it.
type Cluster struct {
	// Spec is the cluster's register program for kernel.DeriveFused: its
	// sub-DAG cut at the sources and scheduled by expr.DAG.Schedule, with
	// input j its variable j. Spec.Key is filled, so executors resolve the
	// kernel without building a key.
	Spec kernel.FusedSpec
	// Inputs are the cluster operands in variable order.
	Inputs []Ref
	// Out is the output slot holding the cluster's value.
	Out int
	// Nodes is the number of distinct DAG gates fused into the cluster.
	Nodes int
}

// String renders the cluster.
func (c *Cluster) String() string {
	refs := make([]string, len(c.Inputs))
	for i, r := range c.Inputs {
		refs[i] = r.String()
	}
	return fmt.Sprintf("s%d = fuse[%d gates](%s)", c.Out, c.Nodes, strings.Join(refs, ", "))
}

// Plan is a compiled expression: fused clusters in dependency order plus
// the node-at-a-time program over the same DAG. The final cluster
// computes the expression's value; a plan with no clusters is a bare
// variable reference.
type Plan struct {
	// Vars are the input variable names, in first-appearance order.
	Vars []string
	// Clusters is the fused schedule in execution order.
	Clusters []Cluster
	// Slots is the number of intermediate slots the schedule needs.
	Slots int
	// Prog is the node-at-a-time schedule of the same DAG: the cost
	// source for both tiers and the command-accurate tier's program.
	Prog *expr.Program
	// Source is the original expression.
	Source string
}

// Result returns the reference holding the expression's value: the last
// cluster's output slot, or variable 0 for a bare-variable plan.
func (p *Plan) Result() Ref {
	if len(p.Clusters) == 0 {
		return Ref{Var: true}
	}
	return Ref{Index: p.Clusters[len(p.Clusters)-1].Out}
}

// String renders the fused schedule.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; %s  (vars: %s, slots: %d)\n",
		p.Source, strings.Join(p.Vars, ","), p.Slots)
	for i := range p.Clusters {
		fmt.Fprintf(&b, "%s\n", &p.Clusters[i])
	}
	return b.String()
}

// Compile lowers an expression DAG to a fused plan. Clustering is
// bottom-up: each gate absorbs its operands' sources until a gate's
// source union would exceed kernel.MaxFusedInputs, at which point the
// wider operand is materialized as its own cluster (sharing is free
// inside a cluster — its program computes a shared gate once). The DAG
// root is always materialized. Output slots are allocated by liveness,
// and a cluster's output slot never aliases one of its inputs (fused
// kernels re-read their sources throughout the pass).
func Compile(d *expr.DAG) (*Plan, error) {
	if d == nil || d.Root == nil {
		return nil, fmt.Errorf("plan: nil DAG")
	}
	p := &Plan{Vars: d.Vars, Prog: d.Schedule(), Source: d.Source}
	if d.Root.Leaf {
		return p, nil
	}

	// Phase 1: source sets and materialization decisions, in post-order.
	// srcs[v] is the frozen source list of v's (potential) cluster: every
	// entry is a leaf or a node materialized before v was visited.
	mat := map[*expr.DAGNode]bool{d.Root: true}
	srcs := map[*expr.DAGNode][]*expr.DAGNode{}
	srcOf := func(o *expr.DAGNode) []*expr.DAGNode {
		if o.Leaf || mat[o] {
			return []*expr.DAGNode{o}
		}
		return srcs[o]
	}
	union := func(v *expr.DAGNode) []*expr.DAGNode {
		var out []*expr.DAGNode
		seen := map[*expr.DAGNode]bool{}
		add := func(list []*expr.DAGNode) {
			for _, s := range list {
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
				}
			}
		}
		add(srcOf(v.A))
		if v.B != nil {
			add(srcOf(v.B))
		}
		return out
	}
	for _, v := range d.Order {
		u := union(v)
		for len(u) > kernel.MaxFusedInputs {
			// Materialize the non-leaf, non-materialized operand with the
			// wider source set; at most two rounds before the union is ≤ 2.
			var pick *expr.DAGNode
			for _, o := range []*expr.DAGNode{v.A, v.B} {
				if o == nil || o.Leaf || mat[o] {
					continue
				}
				if pick == nil || len(srcs[o]) > len(srcs[pick]) {
					pick = o
				}
			}
			if pick == nil {
				return nil, fmt.Errorf("plan: %d sources with both operands materialized", len(u))
			}
			mat[pick] = true
			u = union(v)
		}
		srcs[v] = u
	}

	// Phase 2: emit one cluster per materialized node, in post-order (so
	// every input cluster precedes its users). Inputs name a non-variable
	// source by its cluster index until Phase 3 renames it to a slot.
	clusterOf := map[*expr.DAGNode]int{}
	for _, v := range d.Order {
		if !mat[v] {
			continue
		}
		c := Cluster{Inputs: make([]Ref, len(srcs[v]))}
		for j, s := range srcs[v] {
			if s.Leaf {
				c.Inputs[j] = Ref{Var: true, Index: s.VarIndex}
			} else {
				c.Inputs[j] = Ref{Index: clusterOf[s]}
			}
		}
		sub := cut(v, srcs[v])
		c.Spec.Prog = sub.Schedule()
		// The cache key is computed here, once per compiled cluster, rather
		// than on every kernel lookup of every execution.
		c.Spec.Key = c.Spec.CacheKey()
		c.Nodes = len(sub.Order)
		clusterOf[v] = len(p.Clusters)
		p.Clusters = append(p.Clusters, c)
	}

	// Phase 3: liveness slot allocation for cluster outputs. Mirroring the
	// scratch-row allocator, a cluster's slot is taken while its inputs
	// are still held, so an output never aliases an input.
	uses := map[int]int{}
	for i := range p.Clusters {
		for _, in := range p.Clusters[i].Inputs {
			if !in.Var {
				uses[in.Index]++ // in.Index is a cluster index until renamed
			}
		}
	}
	uses[len(p.Clusters)-1]++ // the result is read by the caller
	var free []bool
	alloc := func() int {
		for i := range free {
			if free[i] {
				free[i] = false
				return i
			}
		}
		free = append(free, false)
		return len(free) - 1
	}
	slot := make([]int, len(p.Clusters))
	for i := range p.Clusters {
		c := &p.Clusters[i]
		slot[i] = alloc()
		for j, in := range c.Inputs {
			if in.Var {
				continue
			}
			ci := in.Index
			c.Inputs[j].Index = slot[ci]
			if uses[ci]--; uses[ci] == 0 {
				free[slot[ci]] = true
			}
		}
		c.Out = slot[i]
	}
	p.Slots = len(free)
	return p, nil
}

// inputNames name a cluster program's variables, its kernel inputs in
// order. They name no plan variable: the kernel cache keys a program by
// its instructions, so equal clusters of different plans share a kernel.
var inputNames = [kernel.MaxFusedInputs]string{"x0", "x1", "x2", "x3", "x4", "x5"}

// cut returns the sub-DAG of the cluster materialized at m, bounded by
// its frozen source list: the cluster's gates cloned in post-order, with
// source j a leaf of VarIndex j.
func cut(m *expr.DAGNode, sources []*expr.DAGNode) *expr.DAG {
	d := &expr.DAG{Vars: inputNames[:len(sources)]}
	clone := map[*expr.DAGNode]*expr.DAGNode{}
	for j, s := range sources {
		clone[s] = &expr.DAGNode{Leaf: true, VarIndex: j}
	}
	var walk func(*expr.DAGNode) *expr.DAGNode
	walk = func(v *expr.DAGNode) *expr.DAGNode {
		if c, ok := clone[v]; ok {
			return c
		}
		c := &expr.DAGNode{Op: v.Op, A: walk(v.A)}
		if v.B != nil {
			c.B = walk(v.B)
		}
		clone[v] = c
		d.Order = append(d.Order, c)
		return c
	}
	d.Root = walk(m)
	return d
}
