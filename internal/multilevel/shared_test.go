package multilevel_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/multilevel"
	"repro/internal/partition"
)

// TestSharedMultistartGoldenEquivalence is the golden guarantee of the shared
// path: with one private hierarchy per start (Hierarchies == Starts) every
// start is an owner — hierarchy build and full descent on the same per-start
// RNG — so a shared plan must reproduce the unshared one bit for bit on the
// IBM01S-03S presets, in the free and fixed-terminals regimes.
func TestSharedMultistartGoldenEquivalence(t *testing.T) {
	for _, name := range []string{"IBM01S", "IBM02S", "IBM03S"} {
		for _, fixedFrac := range []float64{0, 0.2} {
			p := presetProblem(t, name, 0.08, fixedFrac)
			const starts = 4
			cfg := multilevel.Config{Workers: 1}
			want, err := solve(p, cfg, multilevel.Plan{Starts: starts, Seed: seed(11, 13)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := solve(p, cfg, multilevel.Plan{Starts: starts, Hierarchies: starts, Seed: seed(11, 13)})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, name, want, got)
		}
	}
}

// TestBuildHierarchyDescendMatchesPartition checks the refactoring seam
// directly: BuildHierarchy followed by Descend on the same rng is exactly
// Partition.
func TestBuildHierarchyDescendMatchesPartition(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.08, 0.1)
	want, err := multilevel.Partition(p, multilevel.Config{}, rand.New(rand.NewPCG(3, 7)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 7))
	h, err := multilevel.BuildHierarchy(p, multilevel.Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Descend(rng)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "build+descend", want, got)
	if h.Levels() != want.Levels {
		t.Errorf("hierarchy levels = %d, want %d", h.Levels(), want.Levels)
	}
	if h.Root() != p {
		t.Error("hierarchy root is not the input problem")
	}
	if h.Coarsest().MovableCount() > 120 {
		t.Errorf("coarsest level has %d movable vertices, want <= 120", h.Coarsest().MovableCount())
	}
}

// TestBuildHierarchyDescendMatchesPartitionKWay: at k > 2 BuildHierarchy
// builds a direct k-way hierarchy, and Descend on the same rng is exactly
// PartitionKWay.
func TestBuildHierarchyDescendMatchesPartitionKWay(t *testing.T) {
	base := presetProblem(t, "IBM01S", 0.08, 0)
	p := partition.NewFree(base.H, 4, 0.1)
	want, err := multilevel.PartitionKWay(p, multilevel.Config{}, rand.New(rand.NewPCG(3, 7)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 7))
	h, err := multilevel.BuildHierarchy(p, multilevel.Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Descend(rng)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "k=4 build+descend", want, got)
	if h.Levels() != want.Levels || h.Levels() == 0 {
		t.Errorf("hierarchy levels = %d, want %d > 0", h.Levels(), want.Levels)
	}
}

// TestParallelSharedMultistartWorkers is the determinism contract for shared
// plans: with followers in play (Hierarchies < Starts), Solve must return a
// bit-identical Result for worker counts 2 and 4, equal to the serial
// Workers: 1 run. Run under -race in CI, which also exercises followers
// waiting on their owner's hierarchy and concurrent follower descents
// sharing one immutable hierarchy.
func TestParallelSharedMultistartWorkers(t *testing.T) {
	for _, fixedFrac := range []float64{0, 0.2} {
		p := presetProblem(t, "IBM01S", 0.08, fixedFrac)
		const starts, hierarchies = 6, 2
		plan := multilevel.Plan{Starts: starts, Hierarchies: hierarchies, Seed: seed(21, 22)}
		want, err := solve(p, multilevel.Config{Workers: 1}, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			got, err := solve(p, multilevel.Config{Workers: workers}, plan)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("workers=%d", workers), want, got)
		}
	}
}

// TestSharedMultistartFollowerQuality bounds the price of follower descents:
// best-of-8 with 2 hierarchies must stay within a small factor of the
// unshared best-of-8 cut on a mid-size instance.
func TestSharedMultistartFollowerQuality(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.08, 0)
	unshared, err := solve(p, multilevel.Config{}, multilevel.Plan{Starts: 8, Seed: seed(31, 32)})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := solve(p, multilevel.Config{}, multilevel.Plan{Starts: 8, Hierarchies: 2, Seed: seed(31, 32)})
	if err != nil {
		t.Fatal(err)
	}
	if float64(shared.Cut) > 1.25*float64(unshared.Cut)+2 {
		t.Errorf("shared best-of-8 cut %d too far above unshared %d", shared.Cut, unshared.Cut)
	}
}

// TestHugeNetThresholdConfig covers the new Config field: negative values are
// rejected by every driver entry point, and sweeping the threshold changes
// coarsening (tiny thresholds leave nothing to score, so the engine still
// works, just flatter).
func TestHugeNetThresholdConfig(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.05, 0)
	bad := multilevel.Config{HugeNetThreshold: -1}
	if _, err := multilevel.Partition(p, bad, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("Partition accepted negative HugeNetThreshold")
	}
	if _, err := solve(p, bad, multilevel.Plan{Starts: 2, Hierarchies: 1}); err == nil {
		t.Error("shared Solve accepted negative HugeNetThreshold")
	}
	if _, err := multilevel.BuildHierarchy(p, bad, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("BuildHierarchy accepted negative HugeNetThreshold")
	}
	for _, thr := range []int{1, 3, 50} {
		res, err := multilevel.Partition(p, multilevel.Config{HugeNetThreshold: thr}, rand.New(rand.NewPCG(2, 2)))
		if err != nil {
			t.Fatalf("threshold %d: %v", thr, err)
		}
		if res.Cut < 0 {
			t.Fatalf("threshold %d: negative cut", thr)
		}
	}
}

// TestPhaseStats checks Config.Stats accounting in every descent — 2-way
// multistart, direct k-way at k=4 (whose initial partitioning nests a
// recursive bisection) and V-cycles at k=2 and k=4 — with the parallel
// refinement stages off and on: every phase that ran accrues time, TotalNS
// is the sum of the phase counters, and no time is
// counted twice, so the total stays within the wall time around the call.
func TestPhaseStats(t *testing.T) {
	p2 := presetProblem(t, "IBM01S", 0.08, 0)
	p4 := partition.NewFree(p2.H, 4, 0.1)
	seedOf := func(p *partition.Problem) partition.Assignment {
		a, err := partition.RandomFeasible(p, rand.New(rand.NewPCG(9, uint64(p.K))))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a2, a4 := seedOf(p2), seedOf(p4)
	for _, tc := range []struct {
		name string
		init bool // the descent partitions a coarsest level (V-cycles do not)
		run  func(cfg multilevel.Config) error
	}{
		{"multistart", true, func(cfg multilevel.Config) error {
			_, err := solve(p2, cfg, multilevel.Plan{Starts: 2, Seed: seed(5, 5)})
			return err
		}},
		{"kway4", true, func(cfg multilevel.Config) error {
			_, err := multilevel.PartitionKWay(p4, cfg, rand.New(rand.NewPCG(5, 6)))
			return err
		}},
		{"vcycle2", false, func(cfg multilevel.Config) error {
			_, err := multilevel.VCycle(p2, a2, cfg, rand.New(rand.NewPCG(5, 7)))
			return err
		}},
		{"vcycle4", false, func(cfg multilevel.Config) error {
			_, err := multilevel.VCycle(p4, a4, cfg, rand.New(rand.NewPCG(5, 8)))
			return err
		}},
	} {
		for _, stages := range []bool{false, true} {
			var st multilevel.PhaseStats
			cfg := multilevel.Config{Stats: &st, Workers: 1}
			if stages {
				cfg.RefineWorkers, cfg.LocalizedFMWorkers = 1, 1
			}
			t0 := time.Now()
			if err := tc.run(cfg); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			wall := time.Since(t0).Nanoseconds()
			label := fmt.Sprintf("%s stages=%v", tc.name, stages)
			ran := map[string]int64{"coarsen": st.CoarsenNS, "refine": st.RefineNS}
			if tc.init {
				ran["init"] = st.InitNS
			}
			if stages {
				ran["refine_parallel"], ran["refine_localized"] = st.RefineParallelNS, st.RefineLocalizedNS
			}
			for phase, ns := range ran {
				if ns <= 0 {
					t.Errorf("%s: phase %s ran but counted %d ns", label, phase, ns)
				}
			}
			// Coarsening always allocates: each level owns its coarse
			// problem. The runtime's object counter sees small allocations
			// only when a cached span is refilled, so the few an init or
			// refine phase of a small 2-way descent makes can read 0. The
			// direct k=4 descent allocates thousands in both — its init
			// nests whole recursive-bisection descents, its refine runs
			// pairwise sweeps — so there both must count. TestPhaseTrackAllocs
			// pins the per-phase routing exactly.
			if st.CoarsenAllocs <= 0 {
				t.Errorf("%s: coarsening counted %d allocations", label, st.CoarsenAllocs)
			}
			if tc.name == "kway4" && (st.InitAllocs <= 0 || st.RefineAllocs <= 0) {
				t.Errorf("%s: init counted %d allocations, refine %d", label, st.InitAllocs, st.RefineAllocs)
			}
			if sum := st.CoarsenNS + st.InitNS + st.RefineNS + st.RefineParallelNS + st.RefineLocalizedNS; st.TotalNS() != sum {
				t.Errorf("%s: TotalNS %d != phase sum %d", label, st.TotalNS(), sum)
			}
			if st.TotalNS() > wall {
				t.Errorf("%s: phases total %d ns > wall %d ns (time counted twice)", label, st.TotalNS(), wall)
			}
			if st.Kernel.Snapshot().PinsScanned <= 0 {
				t.Errorf("%s: no FM kernel work counted", label)
			}
		}
	}
}
