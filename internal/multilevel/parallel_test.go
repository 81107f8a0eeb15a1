package multilevel_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// presetProblem builds a 2-way problem from a gen preset at reduced scale,
// optionally fixing a fraction of vertices (good-regime style: a mix of both
// parts) so the equivalence tests also cover the fixed-terminals regime.
func presetProblem(t *testing.T, name string, scale, fixedFrac float64) *partition.Problem {
	t.Helper()
	pr, err := gen.PresetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	p := partition.NewBipartition(nl.H, 0.02)
	if fixedFrac > 0 {
		rng := rand.New(rand.NewPCG(99, 99))
		nv := nl.H.NumVertices()
		for _, v := range rng.Perm(nv)[:int(fixedFrac*float64(nv))] {
			p.Fix(v, rng.IntN(2))
		}
	}
	return p
}

// seed draws a base seed the way the rng-taking entry points do: the first
// Uint64 of rand.NewPCG(a, b).
func seed(a, b uint64) uint64 { return rand.New(rand.NewPCG(a, b)).Uint64() }

// solve runs Solve without cancellation.
func solve(p *partition.Problem, cfg multilevel.Config, plan multilevel.Plan) (*multilevel.Result, error) {
	return multilevel.Solve(context.Background(), p, cfg, plan)
}

func sameResult(t *testing.T, label string, want, got *multilevel.Result) {
	t.Helper()
	if got.Cut != want.Cut {
		t.Errorf("%s: cut = %d, want %d", label, got.Cut, want.Cut)
	}
	if got.Starts != want.Starts {
		t.Errorf("%s: starts = %d, want %d", label, got.Starts, want.Starts)
	}
	if len(got.Assignment) != len(want.Assignment) {
		t.Fatalf("%s: assignment length %d, want %d", label, len(got.Assignment), len(want.Assignment))
	}
	for v := range want.Assignment {
		if got.Assignment[v] != want.Assignment[v] {
			t.Errorf("%s: assignment diverges at vertex %d (%d vs %d)", label, v, got.Assignment[v], want.Assignment[v])
			return
		}
	}
}

// TestParallelMultistartMatchesSerial is the determinism contract: Solve
// with 2 and 8 workers, and the ParallelMultistart shim, return a
// bit-identical Result (cut + assignment + starts) to the serial Workers: 1
// run for the same seed, on free and fixed-terminals instances. Run under
// -race in CI.
func TestParallelMultistartMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fixedFrac float64
	}{
		{"free", 0},
		{"fixed30", 0.30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := presetProblem(t, "IBM01S", 0.05, tc.fixedFrac)
			const starts = 6
			plan := multilevel.Plan{Starts: starts, Seed: seed(7, 7)}
			serial, err := solve(p, multilevel.Config{Workers: 1}, plan)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, workers := range []int{2, 8} {
				par, err := solve(p, multilevel.Config{Workers: workers}, plan)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sameResult(t, tc.name, serial, par)
			}
			shim, err := multilevel.ParallelMultistart(p, multilevel.Config{Workers: 2}, starts, rand.New(rand.NewPCG(7, 7)))
			if err != nil {
				t.Fatalf("shim: %v", err)
			}
			sameResult(t, tc.name+" shim", serial, shim)
		})
	}
}

// TestParallelAdaptiveMatchesSerial checks the adaptive replay preserves the
// sequential stopping semantics exactly: same best result and same Starts
// count as the serial Workers: 1 loop, for any worker count.
func TestParallelAdaptiveMatchesSerial(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.05, 0)
	for _, cfg := range []struct{ maxStarts, patience int }{
		{16, 2},
		{10, 3},
		{1, 1},
	} {
		plan := multilevel.Plan{Starts: cfg.maxStarts, Patience: cfg.patience, Seed: seed(13, 13)}
		serial, err := solve(p, multilevel.Config{Workers: 1}, plan)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		for _, workers := range []int{2, 8} {
			par, err := solve(p, multilevel.Config{Workers: workers}, plan)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			sameResult(t, "adaptive", serial, par)
		}
	}
}

// TestParallelMultistartSmallClusters covers the tiny-instance path (fewer
// starts than workers) and feasibility of the parallel result.
func TestParallelMultistartSmallClusters(t *testing.T) {
	h := clusters(2, 300, 6)
	p := partition.NewBipartition(h, 0.02)
	res, err := solve(p, multilevel.Config{Workers: 8}, multilevel.Plan{Starts: 3, Seed: seed(5, 5)})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if res.Starts != 3 {
		t.Errorf("Starts = %d, want 3", res.Starts)
	}
	if res.Cut != partition.Cut(h, res.Assignment) {
		t.Error("reported cut does not match assignment")
	}
}

// TestParallelMultistartError: an overconstrained instance must surface an
// error from plain, adaptive and shared plans alike.
func TestParallelMultistartError(t *testing.T) {
	h := clusters(2, 40, 2)
	p := partition.NewBipartition(h, 0.02)
	for v := 0; v < h.NumVertices(); v++ {
		p.Fix(v, 0)
	}
	cfg := multilevel.Config{Workers: 4}
	for name, plan := range map[string]multilevel.Plan{
		"plain":    {Starts: 4, Seed: seed(6, 6)},
		"adaptive": {Starts: 8, Patience: 2, Seed: seed(6, 6)},
		"shared":   {Starts: 4, Hierarchies: 2, Seed: seed(6, 6)},
	} {
		if _, err := solve(p, cfg, plan); err == nil {
			t.Errorf("%s: want error for overconstrained instance", name)
		}
	}
}
