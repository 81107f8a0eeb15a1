package multilevel_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"repro/internal/fm"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// driverGolden pins the absolute output of one entry point on one input:
// IBM01S ×0.08, free or 20% fixed, under one config variant
// (goldenConfigs). Unlike the relational goldens (workers=1 vs N,
// H=starts vs plain multistart, stage off vs seed pipeline), these catch a
// change that shifts every path the same way.
type driverGolden struct {
	entry  string
	fixed  bool
	config string // key of goldenConfigs
	cut    int64
	km1    int64
	hash   uint64 // FNV-64a of the assignment
	starts int    // Result.Starts
}

// driverGoldens was recorded before the descents and multistart drivers
// were folded into one Hierarchy pipeline and Solve; every row must
// reproduce bit for bit.
var driverGoldens = []driverGolden{
	{"Partition", false, "cut", 56, 56, 0x341b702142cc007b, 1},
	{"Partition", false, "km1", 56, 56, 0x341b702142cc007b, 1},
	{"Partition", false, "cut+stages", 56, 56, 0xfa7e3b0749facf84, 1},
	{"Partition", true, "cut", 314, 314, 0xe590ef00f9a76ea9, 1},
	{"Partition", true, "km1", 314, 314, 0xe590ef00f9a76ea9, 1},
	{"Partition", true, "cut+stages", 302, 302, 0xac0e435eb68a39b8, 1},
	{"PartitionKWay/k2", false, "cut", 56, 56, 0x103dfb9d085fc089, 1},
	{"PartitionKWay/k2", false, "km1", 56, 56, 0x103dfb9d085fc089, 1},
	{"PartitionKWay/k2", false, "cut+stages", 56, 56, 0x3491be5f01e20d6c, 1},
	{"PartitionKWay/k2", true, "cut", 314, 314, 0x9027d098531ca172, 1},
	{"PartitionKWay/k2", true, "km1", 314, 314, 0x9027d098531ca172, 1},
	{"PartitionKWay/k2", true, "cut+stages", 298, 298, 0x3b057f746ce36298, 1},
	{"PartitionKWay/k4", false, "cut", 130, 140, 0x3e54f37a0c36aba2, 1},
	{"PartitionKWay/k4", false, "km1", 130, 140, 0x3e54f37a0c36aba2, 1},
	{"PartitionKWay/k4", false, "cut+stages", 122, 134, 0x2492b95c20a31f2, 1},
	{"PartitionKWay/k4", true, "cut", 505, 610, 0x833a5f8b90bdf207, 1},
	{"PartitionKWay/k4", true, "km1", 505, 610, 0x833a5f8b90bdf207, 1},
	{"PartitionKWay/k4", true, "cut+stages", 528, 630, 0x65932eed1008414e, 1},
	{"VCycle/k2", false, "cut", 58, 58, 0xadfde0808d510318, 1},
	{"VCycle/k2", false, "km1", 58, 58, 0xadfde0808d510318, 1},
	{"VCycle/k2", false, "cut+stages", 61, 61, 0xc7d841c0ecedfd67, 1},
	{"VCycle/k2", true, "cut", 324, 324, 0x6a2290f0e70568b9, 1},
	{"VCycle/k2", true, "km1", 324, 324, 0x6a2290f0e70568b9, 1},
	{"VCycle/k2", true, "cut+stages", 340, 340, 0x58e9e86ca57990a5, 1},
	{"VCycle/k4", false, "cut", 258, 273, 0xeb9aed2ac0b43a5, 1},
	{"VCycle/k4", false, "km1", 258, 273, 0xeb9aed2ac0b43a5, 1},
	{"VCycle/k4", false, "cut+stages", 200, 226, 0x7bcc926c2d0e5864, 1},
	{"VCycle/k4", true, "cut", 558, 672, 0xa99b1a784b829abe, 1},
	{"VCycle/k4", true, "km1", 558, 672, 0xa99b1a784b829abe, 1},
	{"VCycle/k4", true, "cut+stages", 526, 628, 0x3ac62622695e809d, 1},
	{"PartitionWithVCycles", false, "cut", 59, 59, 0x7f11d3e14c08046e, 1},
	{"PartitionWithVCycles", false, "km1", 59, 59, 0x7f11d3e14c08046e, 1},
	{"PartitionWithVCycles", false, "cut+stages", 56, 56, 0x9eeb7ec7e26194f3, 1},
	{"PartitionWithVCycles", true, "cut", 311, 311, 0x3530adbb1dd95a91, 1},
	{"PartitionWithVCycles", true, "km1", 311, 311, 0x3530adbb1dd95a91, 1},
	{"PartitionWithVCycles", true, "cut+stages", 297, 297, 0x16cf936cffa2b401, 1},
	{"RecursiveBisect/k3", false, "cut", 127, 141, 0xa1285fa0fca2ed51, 1},
	{"RecursiveBisect/k3", false, "km1", 127, 141, 0xa1285fa0fca2ed51, 1},
	{"RecursiveBisect/k3", false, "cut+stages", 106, 119, 0x635bf2b02501c43, 1},
	{"RecursiveBisect/k3", true, "cut", 532, 632, 0x878a42e475e865b, 1},
	{"RecursiveBisect/k3", true, "km1", 532, 632, 0x878a42e475e865b, 1},
	{"RecursiveBisect/k3", true, "cut+stages", 503, 584, 0x29e5538633eb21a0, 1},
	{"Multistart/serial", false, "cut", 56, 56, 0xb5b8e1c7f457a37c, 4},
	{"Multistart/serial", false, "km1", 56, 56, 0xb5b8e1c7f457a37c, 4},
	{"Multistart/serial", false, "cut+stages", 56, 56, 0x65912f7612ebb5e0, 4},
	{"Multistart/serial", true, "cut", 318, 318, 0xeafff085f4e5275a, 4},
	{"Multistart/serial", true, "km1", 318, 318, 0xeafff085f4e5275a, 4},
	{"Multistart/serial", true, "cut+stages", 297, 297, 0x3cc219d183c0c5c4, 4},
	{"Multistart/parallel", false, "cut", 56, 56, 0xb5b8e1c7f457a37c, 4},
	{"Multistart/parallel", false, "km1", 56, 56, 0xb5b8e1c7f457a37c, 4},
	{"Multistart/parallel", false, "cut+stages", 56, 56, 0x65912f7612ebb5e0, 4},
	{"Multistart/parallel", true, "cut", 318, 318, 0xeafff085f4e5275a, 4},
	{"Multistart/parallel", true, "km1", 318, 318, 0xeafff085f4e5275a, 4},
	{"Multistart/parallel", true, "cut+stages", 297, 297, 0x3cc219d183c0c5c4, 4},
	{"AdaptiveMultistart", false, "cut", 56, 56, 0xe73081ab56400214, 4},
	{"AdaptiveMultistart", false, "km1", 56, 56, 0xe73081ab56400214, 4},
	{"AdaptiveMultistart", false, "cut+stages", 56, 56, 0x52275d10db7c7f84, 3},
	{"AdaptiveMultistart", true, "cut", 311, 311, 0x2b903961cb14e440, 3},
	{"AdaptiveMultistart", true, "km1", 311, 311, 0x2b903961cb14e440, 3},
	{"AdaptiveMultistart", true, "cut+stages", 302, 302, 0x308eb97f52be6ef4, 3},
	{"AdaptiveMultistart/parallel", false, "cut", 56, 56, 0xe73081ab56400214, 4},
	{"AdaptiveMultistart/parallel", false, "km1", 56, 56, 0xe73081ab56400214, 4},
	{"AdaptiveMultistart/parallel", false, "cut+stages", 56, 56, 0x52275d10db7c7f84, 3},
	{"AdaptiveMultistart/parallel", true, "cut", 311, 311, 0x2b903961cb14e440, 3},
	{"AdaptiveMultistart/parallel", true, "km1", 311, 311, 0x2b903961cb14e440, 3},
	{"AdaptiveMultistart/parallel", true, "cut+stages", 302, 302, 0x308eb97f52be6ef4, 3},
	{"SharedMultistart/H2", false, "cut", 56, 56, 0x810c4187dd43ea0, 5},
	{"SharedMultistart/H2", false, "km1", 56, 56, 0x810c4187dd43ea0, 5},
	{"SharedMultistart/H2", false, "cut+stages", 56, 56, 0xe8403e78ed7f7dd4, 5},
	{"SharedMultistart/H2", true, "cut", 313, 313, 0x673d62e057112c93, 5},
	{"SharedMultistart/H2", true, "km1", 313, 313, 0x673d62e057112c93, 5},
	{"SharedMultistart/H2", true, "cut+stages", 301, 301, 0xb3dff91b49a59b79, 5},
	{"MultistartOnHierarchies", false, "cut", 56, 56, 0x810507ddd8c21ec1, 5},
	{"MultistartOnHierarchies", false, "km1", 56, 56, 0x810507ddd8c21ec1, 5},
	{"MultistartOnHierarchies", false, "cut+stages", 56, 56, 0xa9deebccffa703e0, 5},
	{"MultistartOnHierarchies", true, "cut", 306, 306, 0x2264e18b02dfa8c0, 5},
	{"MultistartOnHierarchies", true, "km1", 306, 306, 0x2264e18b02dfa8c0, 5},
	{"MultistartOnHierarchies", true, "cut+stages", 296, 296, 0xe7a7de8f34c5623a, 5},
	{"ParallelMultistartKWayCtx/k4", false, "cut", 111, 130, 0xabebbbe4e50cd99, 3},
	{"ParallelMultistartKWayCtx/k4", false, "km1", 111, 130, 0xabebbbe4e50cd99, 3},
	{"ParallelMultistartKWayCtx/k4", false, "cut+stages", 129, 138, 0xa2ef432b214a3ebe, 3},
	{"ParallelMultistartKWayCtx/k4", true, "cut", 513, 615, 0xcf2d08f62e684f35, 3},
	{"ParallelMultistartKWayCtx/k4", true, "km1", 513, 615, 0xcf2d08f62e684f35, 3},
	{"ParallelMultistartKWayCtx/k4", true, "cut+stages", 493, 580, 0x27fab5d1041a3803, 3},
}

// goldenConfigs are the config variants every entry point runs under: both
// objectives on the serial-refinement pipeline, and cut with the parallel
// round and localized FM stages on (at one worker, as hpart runs them).
var goldenConfigs = []struct {
	name string
	cfg  multilevel.Config
}{
	{"cut", multilevel.Config{}},
	{"km1", multilevel.Config{Objective: fm.ObjectiveKM1}},
	{"cut+stages", multilevel.Config{RefineWorkers: 1, LocalizedFMWorkers: 1}},
}

// goldenInputs caches the k-part variants of the golden instance.
type goldenInputs map[[2]int]*partition.Problem

// problem returns IBM01S ×0.08 as a k-way problem (tolerance 0.02 at k=2,
// 0.1 above), with 20% of the vertices fixed to random parts when fixed.
func (in goldenInputs) problem(t *testing.T, k int, fixed bool) *partition.Problem {
	t.Helper()
	key := [2]int{k, 0}
	if fixed {
		key[1] = 1
	}
	if p := in[key]; p != nil {
		return p
	}
	base := presetProblem(t, "IBM01S", 0.08, 0)
	p := partition.NewFree(base.H, k, 0.1)
	if k == 2 {
		p = partition.NewBipartition(base.H, 0.02)
	}
	if fixed {
		rng := rand.New(rand.NewPCG(99, uint64(k)))
		nv := base.H.NumVertices()
		for _, v := range rng.Perm(nv)[:nv/5] {
			p.Fix(v, rng.IntN(k))
		}
	}
	in[key] = p
	return p
}

func assignmentHash(a partition.Assignment) uint64 {
	h := fnv.New64a()
	buf := make([]byte, len(a))
	for i, q := range a {
		buf[i] = byte(q)
	}
	h.Write(buf)
	return h.Sum64()
}

// goldenEntries runs every pinned entry point. Each closure seeds its own
// RNGs, so rows are independent of the order they run in. Rows named after
// a multistart driver that Solve replaced run the equivalent Plan; Solve
// takes the base seed those drivers drew from their rng (seed).
var goldenEntries = []struct {
	name string
	run  func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error)
}{
	{"Partition", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		return multilevel.Partition(in.problem(t, 2, fixed), cfg, rand.New(rand.NewPCG(1, 1)))
	}},
	{"PartitionKWay/k2", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		return multilevel.PartitionKWay(in.problem(t, 2, fixed), cfg, rand.New(rand.NewPCG(1, 2)))
	}},
	{"PartitionKWay/k4", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		return multilevel.PartitionKWay(in.problem(t, 4, fixed), cfg, rand.New(rand.NewPCG(1, 4)))
	}},
	{"VCycle/k2", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		return vcycleFromRandom(in.problem(t, 2, fixed), cfg, 2)
	}},
	{"VCycle/k4", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		return vcycleFromRandom(in.problem(t, 4, fixed), cfg, 4)
	}},
	{"PartitionWithVCycles", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		return multilevel.PartitionWithVCycles(in.problem(t, 2, fixed), cfg, 2, rand.New(rand.NewPCG(3, 1)))
	}},
	{"RecursiveBisect/k3", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		return multilevel.RecursiveBisect(in.problem(t, 3, fixed), cfg, rand.New(rand.NewPCG(4, 3)))
	}},
	{"Multistart/serial", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		cfg.Workers = 1
		return solve(in.problem(t, 2, fixed), cfg, multilevel.Plan{Starts: 4, Seed: seed(5, 1)})
	}},
	{"Multistart/parallel", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		cfg.Workers = 3
		return multilevel.ParallelMultistart(in.problem(t, 2, fixed), cfg, 4, rand.New(rand.NewPCG(5, 1)))
	}},
	{"AdaptiveMultistart", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		cfg.Workers = 1
		return solve(in.problem(t, 2, fixed), cfg, multilevel.Plan{Starts: 8, Patience: 2, Seed: seed(6, 1)})
	}},
	{"AdaptiveMultistart/parallel", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		cfg.Workers = 3
		return solve(in.problem(t, 2, fixed), cfg, multilevel.Plan{Starts: 8, Patience: 2, Seed: seed(6, 1)})
	}},
	{"SharedMultistart/H2", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		cfg.Workers = 1
		return solve(in.problem(t, 2, fixed), cfg, multilevel.Plan{Starts: 5, Hierarchies: 2, Seed: seed(7, 1)})
	}},
	{"MultistartOnHierarchies", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		p := in.problem(t, 2, fixed)
		hiers, err := multilevel.BuildHierarchies(context.Background(), p, cfg, 2, 17)
		if err != nil {
			return nil, err
		}
		return solve(p, cfg, multilevel.Plan{Starts: 5, Seed: 23, Prebuilt: hiers})
	}},
	{"ParallelMultistartKWayCtx/k4", func(t *testing.T, in goldenInputs, fixed bool, cfg multilevel.Config) (*multilevel.Result, error) {
		cfg.Workers = 2
		return solve(in.problem(t, 4, fixed), cfg, multilevel.Plan{Starts: 3, Seed: seed(8, 4), Direct: true})
	}},
}

// vcycleFromRandom runs one V-cycle from a random feasible assignment.
func vcycleFromRandom(p *partition.Problem, cfg multilevel.Config, k uint64) (*multilevel.Result, error) {
	rng := rand.New(rand.NewPCG(2, k))
	a, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return nil, err
	}
	return multilevel.VCycle(p, a, cfg, rng)
}

// TestDriverGoldens checks every entry point against its recorded rows. A
// missing row fails and logs the line to add.
func TestDriverGoldens(t *testing.T) {
	rows := map[string]driverGolden{}
	for _, g := range driverGoldens {
		rows[fmt.Sprintf("%s/%v/%s", g.entry, g.fixed, g.config)] = g
	}
	in := goldenInputs{}
	for _, e := range goldenEntries {
		for _, fixed := range []bool{false, true} {
			for _, c := range goldenConfigs {
				key := fmt.Sprintf("%s/%v/%s", e.name, fixed, c.name)
				res, err := e.run(t, in, fixed, c.cfg)
				if err != nil {
					t.Errorf("%s: %v", key, err)
					continue
				}
				got := driverGolden{e.name, fixed, c.name, res.Cut, res.KMinus1, assignmentHash(res.Assignment), res.Starts}
				want, ok := rows[key]
				if !ok {
					t.Errorf("%s: no golden row; record\n\t%s", key, goldenLine(got))
					continue
				}
				if got != want {
					t.Errorf("%s: got  %s\n\twant %s", key, goldenLine(got), goldenLine(want))
				}
			}
		}
	}
}

func goldenLine(g driverGolden) string {
	return fmt.Sprintf("{%q, %v, %q, %d, %d, %#x, %d},", g.entry, g.fixed, g.config, g.cut, g.km1, g.hash, g.starts)
}
