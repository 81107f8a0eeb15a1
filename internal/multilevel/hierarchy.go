package multilevel

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/fm"
	"repro/internal/partition"
)

// Hierarchy is the product of one coarsening descent: the stack of
// progressively coarser problems plus the cluster maps between them, and the
// kind of descent that refines it — 2-way bisection (Partition) or direct
// k-way (PartitionKWay). It is immutable once built, so many
// refinement-only descents — serial or concurrent — can share it; that is
// what shared-hierarchy Solve plans exploit to amortise coarsening (and its
// contraction cost) over many starts.
//
// A Hierarchy is only sound to share between *starts of the same problem and
// config*. It must not be reused for V-cycling: V-cycles re-coarsen
// restricted to the current solution, so their stack depends on the very
// assignment being refined.
type Hierarchy struct {
	levels []level
	cfg    Config // effective config the hierarchy was built with
	direct bool   // refine with direct k-way FM (+ pairwise sweeps at k > 2)
}

// Root returns the original (finest) problem.
func (h *Hierarchy) Root() *partition.Problem { return h.levels[0].problem }

// Levels returns the number of coarsening levels (0 = the hierarchy is flat).
func (h *Hierarchy) Levels() int { return len(h.levels) - 1 }

// Coarsest returns the coarsest problem of the stack.
func (h *Hierarchy) Coarsest() *partition.Problem { return h.levels[len(h.levels)-1].problem }

// BuildHierarchy runs the coarsening phase of one start and returns the
// resulting hierarchy: a 2-way bisection hierarchy at k = 2, a direct k-way
// one at k > 2. Partition(p, cfg, rng) at k = 2 and PartitionKWay(p, cfg,
// rng) at k > 2 are exactly BuildHierarchy(p, cfg, rng) followed by
// Descend(rng) on the same rng.
func BuildHierarchy(p *partition.Problem, cfg Config, rng *rand.Rand) (*Hierarchy, error) {
	eff, err := prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	return newHierarchy(p, eff, p.K > 2, rng), nil
}

// Descend runs one full-refinement start over the hierarchy: initial
// partitioning at the coarsest feasible level, then FM refinement at every
// level on the way up. Each call consumes rng exactly as the corresponding
// phase of Partition (or PartitionKWay) does.
func (h *Hierarchy) Descend(rng *rand.Rand) (*Result, error) {
	sc := fm.GetScratch()
	defer fm.PutScratch(sc)
	return h.descendWith(rng, false, sc)
}

// prepare validates p and cfg and returns the effective config.
func prepare(p *partition.Problem, cfg Config) (Config, error) {
	if err := p.Validate(); err != nil {
		return cfg, err
	}
	if err := cfg.validate(); err != nil {
		return cfg, err
	}
	return cfg.effective(), nil
}

// newHierarchy runs one coarsening descent of the given kind on an
// already-validated problem and effective config.
func newHierarchy(p *partition.Problem, cfg Config, direct bool, rng *rand.Rand) *Hierarchy {
	levels, _ := buildLevels(p, cfg, maxClusterWeight(p, direct), nil, rng)
	return &Hierarchy{levels: levels, cfg: cfg, direct: direct}
}

// maxClusterWeight caps coarse-cluster weight at 1/20 of a part's capacity,
// so the coarsest level keeps enough granularity near the balance boundary:
// part 0's capacity for bisection, the tightest part's when tightest is set
// (direct k-way descents and V-cycles).
func maxClusterWeight(p *partition.Problem, tightest bool) int64 {
	m := p.Balance.Max[0][0]
	for q := 1; tightest && q < p.K; q++ {
		m = min(m, p.Balance.Max[q][0])
	}
	return max(m/20, 1)
}

// buildLevels is the coarsening loop, run on an already-validated problem
// and effective config under the coarsen phase timer. A non-nil part
// restricts merges to vertices of the same part — how a V-cycle re-coarsens
// around its current solution — and its projection onto the coarsest level
// is returned.
func buildLevels(p *partition.Problem, cfg Config, maxCluster int64, part partition.Assignment, rng *rand.Rand) ([]level, partition.Assignment) {
	levels := []level{{problem: p}}
	cfg.Stats.track(phaseCoarsen, func() {
		for curr := p; len(levels) < cfg.MaxLevels && curr.MovableCount() > cfg.CoarsestSize; {
			coarse, clusterOf, ok := coarsenLevel(cfg.Scheme, curr, part, maxCluster, cfg.ClusteringRatio, cfg.HugeNetThreshold, cfg.CoarsenWorkers, rng)
			if !ok {
				break
			}
			if part != nil {
				coarsePart := make(partition.Assignment, coarse.H.NumVertices())
				for v, c := range clusterOf {
					coarsePart[c] = part[v]
				}
				part = coarsePart
			}
			levels[len(levels)-1].clusterOf = clusterOf
			levels = append(levels, level{problem: coarse})
			curr = coarse
		}
	})
	return levels, part
}

// fmConfig is the FM configuration of cfg's coarsest-level initial
// partitioning; refinement adds the per-run pass bound (refineConfig).
func fmConfig(cfg Config) fm.Config {
	return fm.Config{Policy: cfg.Policy, Objective: cfg.Objective, MaxPassFraction: cfg.MaxPassFraction, Stats: kernelStats(cfg.Stats)}
}

func refineConfig(cfg Config) fm.Config {
	c := fmConfig(cfg)
	c.MaxPasses = cfg.RefineMaxPasses
	return c
}

// descendWith runs one refinement start on a caller-provided FM scratch (the
// multistart driver pins one per worker; scratch contents never influence
// results). Owner descents (follower=false) refine with the full configured
// FM discipline; follower descents — extra shared-hierarchy starts
// resampling a hierarchy another start owns — apply cfg.FollowerPassFraction
// as a pass cutoff during uncoarsening, trading a sliver of per-start
// quality for a large cut in per-start cost (the coarsest initial
// partitioning, where start diversity comes from, stays at full strength).
func (h *Hierarchy) descendWith(rng *rand.Rand, follower bool, sc *fm.Scratch) (*Result, error) {
	var a partition.Assignment
	var start int
	var err error
	h.cfg.Stats.track(phaseInit, func() { a, start, err = h.initial(rng, sc) })
	if err != nil {
		return nil, err
	}
	if start > 0 {
		fmCfg := refineConfig(h.cfg)
		if follower {
			fmCfg.MaxPassFraction = followerPassFraction(h.cfg)
		}
		a = project(a, h.levels[start-1].clusterOf)
		if a, err = h.refineUp(a, start-1, fmCfg, h.direct && h.Root().K > 2, rng, sc); err != nil {
			return nil, err
		}
	}
	return newResult(h.Root(), a, h.cfg, len(h.levels)-1), nil
}

// initial partitions the deepest level that admits a feasible start — heavy
// clusters can make the very coarsest level infeasible, in which case it
// backs off toward finer levels — and returns the assignment and its level.
// Bisection hierarchies keep the best of cfg.InitialTries random-start FM
// runs by Score (at k = 2 every objective coincides with the cut). Direct
// hierarchies seed each try with a recursive bisection (or a random feasible
// draw when bisection cannot satisfy the masks), refine it with k-way FM,
// rank by connectivity — exact for km1 and a historical, bit-identity-
// preserving tiebreak for cut — and at k > 2 finish with pairwise sweeps.
func (h *Hierarchy) initial(rng *rand.Rand, sc *fm.Scratch) (partition.Assignment, int, error) {
	cfg, initCfg := h.cfg, fmConfig(h.cfg)
	for start := len(h.levels) - 1; start >= 0; start-- {
		lp := h.levels[start].problem
		var best partition.Assignment
		var bestScore int64
		for try := 0; try < cfg.InitialTries; try++ {
			var a partition.Assignment
			var score int64
			if !h.direct {
				res, err := fm.RunFromRandomWith(lp, initCfg, rng, sc)
				if err != nil {
					break
				}
				a, score = res.Assignment, res.Score
			} else if seed, ok := kwayInitial(lp, cfg, rng); ok {
				if res, err := fm.KWayPartitionWith(lp, seed, initCfg, sc); err == nil {
					a, score = res.Assignment, res.KMinus1
				}
			}
			if a != nil && (best == nil || score < bestScore) {
				best, bestScore = a, score
			}
		}
		if best == nil {
			continue
		}
		if h.direct && lp.K > 2 {
			a, err := pairwiseRefine(lp, best, initCfg, 2, sc)
			return a, start, err
		}
		return best, start, nil
	}
	return nil, 0, fmt.Errorf("multilevel: no feasible initial solution at any level (instance overconstrained)")
}

// refineUp refines a, an assignment of level top, at every level from top
// down to the root, projecting between levels.
func (h *Hierarchy) refineUp(a partition.Assignment, top int, fmCfg fm.Config, pairwise bool, rng *rand.Rand, sc *fm.Scratch) (partition.Assignment, error) {
	for lvl := top; ; lvl-- {
		var err error
		if a, err = h.refineLevel(lvl, a, fmCfg, pairwise, rng, sc); err != nil {
			return nil, fmt.Errorf("multilevel: refining level %d: %w", lvl, err)
		}
		if lvl == 0 {
			return a, nil
		}
		a = project(a, h.levels[lvl-1].clusterOf)
	}
}

// refineLevel is the per-level stage list, each stage under its own phase
// timer:
//
//  1. The parallel round stage (Config.RefineWorkers), at every level.
//  2. The localized FM stage (Config.LocalizedFMWorkers), at the finest
//     level only — that is where the full-budget serial polish used to
//     dominate every solve (BENCH_prefine.json); coarse levels are cheap
//     enough for the round stage plus a one-pass polish.
//  3. The serial FM polish, 2-way or direct k-way by the hierarchy's kind.
//     It drops to one pass at coarse levels while the round stage is on —
//     the rounds replace its repeated passes there, and the remaining pass
//     contributes the hill-climbing the greedy rounds cannot — and at the
//     finest level while the localized stage is on, whose searches carry
//     the hill-climbing there, leaving a short tail that sweeps up whatever
//     the bounded searches left behind.
//  4. When pairwise is set, pairwise 2-way sweeps: k-way passes move single
//     vertices; the pair sweeps recover the 2-way hill-climbing power
//     recursive bisection gets for free.
//
// Each parallel stage, when enabled, draws its commit-order salt from rng
// with exactly one draw whatever the worker count, so the RNG stream — and
// therefore every downstream draw — is identical for all worker counts
// >= 1. Disabled (< 1), a stage consumes nothing.
func (h *Hierarchy) refineLevel(lvl int, a partition.Assignment, fmCfg fm.Config, pairwise bool, rng *rand.Rand, sc *fm.Scratch) (partition.Assignment, error) {
	p, cfg := h.levels[lvl].problem, h.cfg
	var err error
	if cfg.RefineWorkers >= 1 {
		salt := rng.Uint64()
		cfg.Stats.track(phaseRefineParallel, func() {
			var res *fm.ParallelResult
			if res, err = fm.ParallelRefineWith(p, a, fm.Config{Objective: cfg.Objective, Sideways: cfg.RefineSideways}, cfg.RefineWorkers, salt, sc); err == nil {
				a = res.Assignment
			}
		})
		if lvl > 0 {
			fmCfg.MaxPasses = 1
		}
	}
	if err == nil && cfg.LocalizedFMWorkers >= 1 && lvl == 0 {
		salt := rng.Uint64()
		cfg.Stats.track(phaseRefineLocalized, func() {
			var res *fm.LocalizedResult
			if res, err = fm.LocalizedRefineWith(p, a, fm.Config{Objective: cfg.Objective}, cfg.LocalizedFMWorkers, salt, sc); err == nil {
				a = res.Assignment
			}
		})
		fmCfg.MaxPasses = 1
	}
	if err != nil {
		return nil, err
	}
	cfg.Stats.track(phaseRefine, func() {
		if h.direct {
			var res *fm.KWayResult
			if res, err = fm.KWayPartitionWith(p, a, fmCfg, sc); err == nil {
				a = res.Assignment
			}
		} else {
			var res *fm.Result
			if res, err = fm.BipartitionWith(p, a, fmCfg, sc); err == nil {
				a = res.Assignment
			}
		}
		if err == nil && pairwise {
			a, err = pairwiseRefine(p, a, fmCfg, 2, sc)
		}
	})
	return a, err
}

// followerPassFraction resolves the pass cutoff for follower descents: the
// configured FollowerPassFraction, unless the run-wide MaxPassFraction is
// already an even stricter cutoff.
func followerPassFraction(cfg Config) float64 {
	f := cfg.FollowerPassFraction
	if cfg.MaxPassFraction > 0 && cfg.MaxPassFraction < 1 && cfg.MaxPassFraction < f {
		f = cfg.MaxPassFraction
	}
	return f
}

// PhaseStats accumulates wall time and heap allocation counts per engine
// phase. Attach one to Config.Stats to profile a run; the bench harness
// threads these into BENCH_shared.json. Counters are added to atomically, so
// one PhaseStats may be shared by concurrent descents; the allocation
// numbers read the process-wide heap counter and are only attributable to a
// phase in serial runs.
type PhaseStats struct {
	CoarsenNS int64 `json:"coarsen_ns"`
	InitNS    int64 `json:"init_ns"`
	RefineNS  int64 `json:"refine_ns"`
	// RefineParallelNS is the wall time of the synchronous-round parallel
	// refinement stage (Config.RefineWorkers); RefineNS keeps counting only
	// the serial FM polish, so the two split the refinement phase.
	RefineParallelNS int64 `json:"refine_parallel_ns"`
	// RefineLocalizedNS is the wall time of the localized parallel FM stage
	// (Config.LocalizedFMWorkers) at the finest level; RefineNS keeps
	// counting only the serial FM tail, so the three refine counters split
	// the refinement phase.
	RefineLocalizedNS     int64 `json:"refine_localized_ns"`
	CoarsenAllocs         int64 `json:"coarsen_allocs"`
	InitAllocs            int64 `json:"init_allocs"`
	RefineAllocs          int64 `json:"refine_allocs"`
	RefineParallelAllocs  int64 `json:"refine_parallel_allocs"`
	RefineLocalizedAllocs int64 `json:"refine_localized_allocs"`
	// Kernel accumulates the FM kernel's net-state-aware work counters (nets
	// skipped, pin scans avoided, bucket updates saved) across every FM run a
	// descent performs; like the phase counters it is updated atomically.
	Kernel fm.KernelStats `json:"refine_kernel"`
}

// TotalNS returns the summed wall time across phases.
func (st *PhaseStats) TotalNS() int64 {
	return st.CoarsenNS + st.InitNS + st.RefineNS + st.RefineParallelNS + st.RefineLocalizedNS
}

// kernelStats returns the kernel-counter sink of st, or nil when stats are
// not being collected.
func kernelStats(st *PhaseStats) *fm.KernelStats {
	if st == nil {
		return nil
	}
	return &st.Kernel
}

const (
	phaseCoarsen = iota
	phaseInit
	phaseRefine
	phaseRefineParallel
	phaseRefineLocalized
)

var phaseLabels = [...]string{"coarsen", "init", "refine", "refine_parallel", "refine_localized"}

// track runs fn under a pprof goroutine label for the phase (so CPU/heap
// profiles split by phase) and, when st is non-nil, accrues wall time and
// heap object allocations into the phase counters. st may be nil.
func (st *PhaseStats) track(phase int, fn func()) {
	if st == nil {
		pprof.Do(context.Background(), pprof.Labels("phase", phaseLabels[phase]), func(context.Context) { fn() })
		return
	}
	a0 := heapAllocObjects()
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", phaseLabels[phase]), func(context.Context) { fn() })
	dt := time.Since(t0).Nanoseconds()
	da := int64(heapAllocObjects() - a0)
	switch phase {
	case phaseCoarsen:
		atomic.AddInt64(&st.CoarsenNS, dt)
		atomic.AddInt64(&st.CoarsenAllocs, da)
	case phaseInit:
		atomic.AddInt64(&st.InitNS, dt)
		atomic.AddInt64(&st.InitAllocs, da)
	case phaseRefine:
		atomic.AddInt64(&st.RefineNS, dt)
		atomic.AddInt64(&st.RefineAllocs, da)
	case phaseRefineParallel:
		atomic.AddInt64(&st.RefineParallelNS, dt)
		atomic.AddInt64(&st.RefineParallelAllocs, da)
	case phaseRefineLocalized:
		atomic.AddInt64(&st.RefineLocalizedNS, dt)
		atomic.AddInt64(&st.RefineLocalizedAllocs, da)
	}
}

// heapAllocObjects returns the cumulative count of heap objects allocated by
// the process, via the cheap runtime/metrics read (no stop-the-world).
func heapAllocObjects() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}
