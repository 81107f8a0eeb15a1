package multilevel

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/partition"
)

// Plan says how many starts Solve runs and how they share work. The zero
// Plan (beyond Starts and Seed) is the paper's plain multistart: every start
// is one full 2-way descent on a private hierarchy.
type Plan struct {
	// Starts is the number of starts (< 1 means 1); with Patience set it is
	// the cap on the adaptive run.
	Starts int
	// Hierarchies > 0 shares coarsening (k = 2 only): starts [0, H) are
	// *owners* — start j builds hierarchy j and descends it at full strength
	// on the same RNG, exactly as an unshared start — and start i >= H is a
	// *follower* that resamples hierarchy i%H with a fresh coarsest-level
	// initial partitioning and a Config.FollowerPassFraction pass-cutoff
	// refinement. H is clamped to Starts, so H == Starts reproduces the
	// unshared run exactly. 0 gives every start a private hierarchy;
	// negative is an error.
	Hierarchies int
	// Patience > 0 makes the run adaptive: it stops once Patience
	// consecutive starts fail to improve the best score, after at most
	// Starts starts, and Result.Starts reports how many were used — an
	// operational answer to the paper's question of how much multistart
	// effort an instance deserves.
	Patience int
	// Seed is the base seed: start i runs on rand.NewPCG(Seed, i).
	Seed uint64
	// Direct runs direct k-way starts (PartitionKWay, any k >= 2) instead of
	// 2-way bisection starts (Partition, k = 2).
	Direct bool
	// Prebuilt, when set, replaces the owners' coarsening with these
	// hierarchies (hpartd's warm path, where they come from a cache): start
	// i descends Prebuilt[i%len] on its own RNG under cfg's refinement
	// settings (WithRefinement), as an owner for i < len and a follower
	// after. The outcome is a pure function of (Prebuilt, cfg, Plan).
	Prebuilt []*Hierarchy
}

// Solve runs plan.Starts multilevel starts of p and returns the best result
// by Score, ties broken toward the lowest start index. It is the one
// multistart driver; it obeys this determinism contract:
//
//   - Per-start RNG derivation. Start i runs on rand.NewPCG(plan.Seed, i),
//     so its outcome is a pure function of (problem, config, plan, i) —
//     never of scheduling, worker count, or which starts run beside it.
//   - Index-ordered dispatch. Starts are handed to cfg.Workers goroutines in
//     index order (par.ForEachWorkerCtx), so the completed starts are always
//     a prefix of the sequence and the answer is the best of that prefix;
//     the lowest-index error wins, as in a serial loop. Workers: 1 runs the
//     starts serially on the calling goroutine and is bit-identical to every
//     other worker count.
//   - Adaptive replay. With plan.Patience the stopping rule is replayed over
//     completed starts in index order, so a start counts toward patience
//     only at its index position and Result.Starts matches the serial loop;
//     starts speculatively begun past the stopping point are discarded, and
//     a start dispatched after it fired returns without running, so at most
//     one start per worker runs past it.
//   - Cancellation. Once ctx is done no new start launches, in-flight starts
//     finish, and the best completed result is returned with Truncated set.
//     How many starts complete then depends on timing; a run that never
//     sees ctx fire is bit-reproducible. A run cancelled before any start
//     completes returns an error wrapping ctx.Err(). A nil ctx never fires.
//
// Plans that combine Patience or Direct with shared or prebuilt hierarchies
// are rejected, as is a p other than the prebuilt hierarchies' root.
func Solve(ctx context.Context, p *partition.Problem, cfg Config, plan Plan) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	starts, h := max(plan.Starts, 1), plan.Hierarchies
	if len(plan.Prebuilt) > 0 {
		h = len(plan.Prebuilt)
	}
	switch {
	case h < 0:
		return nil, fmt.Errorf("multilevel: negative Plan.Hierarchies %d", h)
	case h > 0 && (plan.Patience > 0 || plan.Direct):
		return nil, fmt.Errorf("multilevel: shared or prebuilt hierarchies cannot be combined with Patience or Direct")
	case len(plan.Prebuilt) > 0 && plan.Prebuilt[0].Root() != p:
		return nil, fmt.Errorf("multilevel: p is not the root of the prebuilt hierarchies")
	case !plan.Direct && p.K != 2:
		return nil, fmt.Errorf("multilevel: 2-way starts require k=2, got k=%d (set Plan.Direct or use RecursiveBisect)", p.K)
	}
	eff, err := prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	h = min(h, starts)
	hiers := make([]*Hierarchy, h)
	ready := make([]chan struct{}, h)
	for j := range ready {
		ready[j] = make(chan struct{})
		if len(plan.Prebuilt) > 0 {
			hiers[j] = plan.Prebuilt[j].WithRefinement(cfg)
			close(ready[j])
		}
	}
	// start runs start i. A follower waits for its owner's hierarchy; the
	// owner has a lower index, so it was dispatched first and cannot be
	// waiting itself.
	start := func(i int, sc *fm.Scratch) (*Result, error) {
		rng := startRNG(plan.Seed, i)
		if h == 0 {
			return newHierarchy(p, eff, plan.Direct, rng).descendWith(rng, false, sc)
		}
		if i < h && len(plan.Prebuilt) == 0 {
			hiers[i] = newHierarchy(p, eff, false, rng)
			close(ready[i])
		}
		<-ready[i%h]
		return hiers[i%h].descendWith(rng, i >= h, sc)
	}

	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	results := make([]*Result, starts)
	errs := make([]error, starts)
	var mu sync.Mutex
	done := make([]bool, starts)
	used := -1 // starts the adaptive rule settled on, -1 until it fires
	next, stale, bestSeen := 0, 0, int64(0)
	scratches := make([]*fm.Scratch, par.EffectiveWorkers(starts, cfg.Workers))
	for w := range scratches {
		scratches[w] = fm.GetScratch()
	}
	completed := par.ForEachWorkerCtx(runCtx, starts, cfg.Workers, func(worker, i int) {
		mu.Lock()
		settled := used >= 0
		mu.Unlock()
		if settled {
			return // dispatched after the stopping rule fired: it would be discarded
		}
		results[i], errs[i] = start(i, scratches[worker])
		if plan.Patience < 1 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done[i] = true
		for ; used < 0 && next < starts && done[next]; next++ {
			switch {
			case errs[next] != nil:
				used = next + 1
			case next == 0 || results[next].Score < bestSeen:
				bestSeen, stale = results[next].Score, 0
			case stale+1 >= plan.Patience:
				used = next + 1
			default:
				stale++
			}
		}
		if used >= 0 {
			stop()
		}
	})
	for _, sc := range scratches {
		fm.PutScratch(sc)
	}
	n := completed
	if used >= 0 {
		n = used
	}
	var best *Result
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if best == nil || results[i].Score < best.Score {
			best = results[i]
		}
	}
	if best == nil {
		return nil, fmt.Errorf("multilevel: cancelled before any start completed: %w", ctx.Err())
	}
	best.Starts = n
	best.Truncated = used < 0 && n < starts
	return best, nil
}

// ParallelMultistart runs `starts` independent 2-way starts on cfg.Workers
// goroutines with the base seed drawn from rng: Solve with a plain Plan. It
// stays as an entry point of its own because the perfbench module drives
// hpart's solve through it.
func ParallelMultistart(p *partition.Problem, cfg Config, starts int, rng *rand.Rand) (*Result, error) {
	return Solve(context.Background(), p, cfg, Plan{Starts: starts, Seed: rng.Uint64()})
}

// startRNG derives the RNG for start index i of a run whose base seed is
// baseSeed. Every start gets an independent deterministic stream regardless
// of worker count or execution order.
func startRNG(baseSeed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(baseSeed, uint64(i)))
}

// BuildHierarchies builds n independent coarsening hierarchies for the 2-way
// problem p, hierarchy j on the deterministic RNG rand.NewPCG(seed, j). The
// result is a pure function of (p, cfg, n, seed) — no timing, no worker
// count — which is what lets hpartd cache hierarchies across requests: any
// request that derives the same (instance fingerprint, coarsening
// fingerprint, n, seed) key reuses them and gets answers bit-identical to a
// cold build. Cancellation is checked between hierarchies; a cancelled build
// returns ctx.Err() and no hierarchies.
func BuildHierarchies(ctx context.Context, p *partition.Problem, cfg Config, n int, seed uint64) ([]*Hierarchy, error) {
	if p.K != 2 {
		return nil, fmt.Errorf("multilevel: BuildHierarchies requires k=2, got k=%d", p.K)
	}
	eff, err := prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	hiers := make([]*Hierarchy, max(n, 1))
	for j := range hiers {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		hiers[j] = newHierarchy(p, eff, false, startRNG(seed, j))
	}
	return hiers, nil
}

// WithRefinement returns a Hierarchy that shares h's (immutable) coarsening
// stack but descends with cfg's refinement-phase settings — policy, pass
// cutoffs, initial tries, follower pass fraction and the stats sink — after
// the usual defaulting. This is how cached hierarchies serve requests whose
// refinement configuration differs from the one the hierarchy was built
// under: only the coarsening-phase fields (see CoarseningFingerprint) must
// match the build for reuse to be sound.
func (h *Hierarchy) WithRefinement(cfg Config) *Hierarchy {
	return &Hierarchy{levels: h.levels, cfg: cfg.effective(), direct: h.direct}
}

// CoarseningFingerprint returns a stable hash of the configuration fields
// that influence hierarchy construction — scheme, coarsest size, clustering
// ratio, level bound and huge-net threshold — after defaulting. Two configs
// with equal fingerprints build identical hierarchies from the same problem
// and seed, so a hierarchy cache may serve either with the other's entries;
// refinement-phase fields (policy, cutoffs, tries, stats) are deliberately
// excluded because WithRefinement rebinds them per descent. CoarsenWorkers
// is excluded too: it only splits the matching and contraction scans over
// goroutines and never changes the hierarchy, so caches stay shareable
// across clients asking for different worker counts — and RefineWorkers,
// LocalizedFMWorkers and RefineSideways with it, since the parallel
// refinement stages run strictly after coarsening and never influence
// hierarchy construction. Objective is likewise
// excluded — coarsening is objective-independent (matching and contraction
// never consult the metric), so a hierarchy built once may serve both cut
// and km1 descents; any objective separation a cache wants (hpartd keys on
// it conservatively) belongs in the cache key, not here.
func (c Config) CoarseningFingerprint() uint64 {
	eff := c.effective()
	return hypergraph.NewFingerprint().
		Word(uint64(eff.Scheme)).
		Word(uint64(eff.CoarsestSize)).
		Word(uint64(eff.MaxLevels)).
		Word(uint64(eff.HugeNetThreshold)).
		Word(uint64(int64(eff.ClusteringRatio * 1e9))).
		Sum()
}
