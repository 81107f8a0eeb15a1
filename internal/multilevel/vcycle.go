package multilevel

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/fm"
	"repro/internal/partition"
)

// VCycle refines an existing feasible solution with one V-cycle in the style
// of hMetis: the hypergraph is re-coarsened *restricted* to the current
// partition (vertices only merge within their part, so the solution projects
// exactly onto every level), then refined level by level from the coarsest
// projection of the current solution.
//
// The paper's engine deliberately omits V-cycling ("a net loss in terms of
// overall cost-runtime profile"); it is provided here both for completeness
// and so that the claim itself can be measured (see BenchmarkVCycleAblation).
// It returns the improved assignment and cut; the input assignment is not
// modified. Works for any k: 2-way problems refine with fm.Bipartition and
// k-way ones with direct k-way FM, since restricted coarsening is
// part-count-agnostic.
func VCycle(p *partition.Problem, a partition.Assignment, cfg Config, rng *rand.Rand) (*Result, error) {
	cfg, err := prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Feasible(a); err != nil {
		return nil, fmt.Errorf("multilevel: VCycle input: %w", err)
	}
	// The restricted stack; top is a projected onto its coarsest level. The
	// cycle refines from there — the coarsest level included — and runs no
	// pairwise sweeps.
	levels, top := buildLevels(p, cfg, maxClusterWeight(p, true), a.Clone(), rng)
	h := &Hierarchy{levels: levels, cfg: cfg, direct: p.K > 2}
	sc := fm.GetScratch()
	defer fm.PutScratch(sc)
	sol, err := h.refineUp(top, len(levels)-1, refineConfig(cfg), false, rng, sc)
	if err != nil {
		return nil, fmt.Errorf("multilevel: V-cycle: %w", err)
	}
	return newResult(p, sol, cfg, len(levels)-1), nil
}

// PartitionWithVCycles runs Partition followed by up to n V-cycles, stopping
// early when a cycle fails to improve the configured objective.
func PartitionWithVCycles(p *partition.Problem, cfg Config, n int, rng *rand.Rand) (*Result, error) {
	res, err := Partition(p, cfg, rng)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		vres, err := VCycle(p, res.Assignment, cfg, rng)
		if err != nil {
			return nil, err
		}
		if vres.Score >= res.Score {
			break
		}
		res = vres
	}
	return res, nil
}
