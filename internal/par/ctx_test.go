package par_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/par"
)

// TestForEachWorkerCtxUncancelled: with a nil or never-cancelled context,
// every index runs exactly once and the dispatched count is n.
func TestForEachWorkerCtxUncancelled(t *testing.T) {
	for _, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		for _, workers := range []int{0, 1, 2, 8} {
			const n = 41
			var hits [n]int32
			got := par.ForEachWorkerCtx(ctx, n, workers, func(worker, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			if got != n {
				t.Fatalf("workers=%d: dispatched %d, want %d", workers, got, n)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
				}
			}
		}
	}
}

// TestForEachWorkerCtxPreCancelled: a context cancelled before the call
// dispatches nothing. Repeated, because a worker that is already waiting
// makes an index send ready at the same time as ctx.Done, and select picks
// between ready cases at random.
func TestForEachWorkerCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for rep := 0; rep < 200; rep++ {
		for _, workers := range []int{1, 4} {
			var ran int32
			got := par.ForEachWorkerCtx(ctx, 100, workers, func(worker, i int) {
				atomic.AddInt32(&ran, 1)
			})
			if got != 0 || ran != 0 {
				t.Fatalf("workers=%d: dispatched %d, ran %d after pre-cancel", workers, got, ran)
			}
		}
	}
}

// TestForEachWorkerCtxPrefix is the contract the cancellable multistart
// reduction rests on: whenever the loop is cut short, the dispatched set is
// exactly the prefix [0, returned). Cancel from inside the body and verify.
func TestForEachWorkerCtxPrefix(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 200
		ctx, cancel := context.WithCancel(context.Background())
		var hits [n]int32
		got := par.ForEachWorkerCtx(ctx, n, workers, func(worker, i int) {
			atomic.AddInt32(&hits[i], 1)
			if i == 17 {
				cancel()
			}
		})
		cancel()
		if got > n {
			t.Fatalf("workers=%d: dispatched %d > n", workers, got)
		}
		for i := 0; i < got; i++ {
			if atomic.LoadInt32(&hits[i]) != 1 {
				t.Fatalf("workers=%d: index %d inside prefix [0,%d) ran %d times", workers, i, got, hits[i])
			}
		}
		for i := got; i < n; i++ {
			if atomic.LoadInt32(&hits[i]) != 0 {
				t.Fatalf("workers=%d: index %d outside prefix [0,%d) ran", workers, i, got)
			}
		}
	}
}

// TestForEachWorkerCtxWorkerIndex: worker indices stay within
// [0, EffectiveWorkers) so pinned per-worker scratch is safe.
func TestForEachWorkerCtxWorkerIndex(t *testing.T) {
	const n, workers = 64, 5
	eff := par.EffectiveWorkers(n, workers)
	var bad int32
	par.ForEachWorkerCtx(context.Background(), n, workers, func(worker, i int) {
		if worker < 0 || worker >= eff {
			atomic.AddInt32(&bad, 1)
		}
	})
	if bad != 0 {
		t.Errorf("%d calls saw out-of-range worker index", bad)
	}
}
