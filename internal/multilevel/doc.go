// Package multilevel implements the multilevel FM hypergraph partitioner the
// paper uses as its testbed engine: heavy-edge-matching coarsening that
// respects fixed vertices, random feasible initial solutions at the coarsest
// level, and FM refinement during uncoarsening (CLIP by default, no
// V-cycling), plus recursive bisection, a direct k-way descent for k > 2 and
// optional V-cycles. One coarsening loop and one per-level stage list serve
// every descent; a Hierarchy records which kind (2-way or direct k-way) it
// was built for.
//
// Solve is the one multistart driver. A Plan selects the number of starts,
// adaptive stopping (Patience), shared coarsening hierarchies with cheap
// "follower" descents, direct k-way starts and prebuilt hierarchies (the
// hpartd warm path). ParallelMultistart is a plain-Plan shorthand.
//
// # Concurrency
//
// Partition and the other single-start entry points are single-goroutine.
// Solve owns its parallelism internally via internal/par (Config.Workers)
// and is safe to call from any number of goroutines. A Hierarchy is
// immutable once built: any number of concurrent descents — including
// descents under different refinement configurations via WithRefinement,
// which shares the levels and rebinds only the config — may read it
// simultaneously. This immutability is what lets the hpartd server cache
// hierarchies across concurrent requests.
//
// # Determinism
//
// Start i of a Solve runs on its own RNG stream rand.NewPCG(Plan.Seed, i),
// never on shared state, so for a fixed seed the winning start, assignment
// and cut are bit-identical for every worker count, including 1. Starts are
// dispatched in index order, so a run cut short by its context has
// completed exactly the starts [0, Result.Starts) and returns their best —
// the same answer an uncancelled run over only those starts would produce.
// The prefix *length* is timing-dependent; Result.Truncated marks it. A run
// cancelled before any start completes returns an error rather than a
// partial result.
package multilevel
