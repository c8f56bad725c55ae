// Package sweep is the deterministic worker-pool engine behind every
// parameter sweep in the repository: the experiment drivers
// (internal/experiments), the serving studies (internal/serve), the
// incremental technique study (internal/core) and the grid modes of
// cmd/pimphony-bench and cmd/pimphony-sim all fan their independent
// simulation points through Run. A point never prices concurrently
// inside itself: its decode steppers run on the point's goroutine.
//
// The engine guarantees that parallel execution is observationally
// identical to the sequential loop it replaces: results come back in
// input order, every point is evaluated by a pure-per-point function
// (shared caches such as perfmodel's memoizer are internally locked and
// value-deterministic), and the reported error is the lowest-indexed
// failure, as the sequential loop reports it. The only difference
// parallelism makes is wall-clock time.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultParallelism is the process-wide worker bound every Run uses.
// Zero means GOMAXPROCS. Binaries expose it as their -parallel flag via
// SetDefault.
var defaultParallelism atomic.Int64

// SetDefault sets the process-wide default worker bound. n <= 0 restores
// the GOMAXPROCS default. It returns the previous setting so callers
// (e.g. equivalence tests) can restore it.
func SetDefault(n int) int {
	if n < 0 {
		n = 0
	}
	return int(defaultParallelism.Swap(int64(n)))
}

// Default reports the current default worker bound (GOMAXPROCS if unset).
func Default() int {
	if n := int(defaultParallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run evaluates fn over every point on a bounded worker pool and returns
// the results in input order.
//
// Each point runs under its own context. A failure at index i cancels
// the points above i that are in flight and skips those not yet
// started, so long simulations there can stop early; fn
// implementations running long simulations should poll ctx. Points
// below i run to the end, so Run returns the error of the
// lowest-indexed failing point — the error the sequential loop would
// return — at any parallelism. If the parent context is cancelled,
// points not yet started are skipped, and Run returns the
// lowest-indexed error or, if no point failed, the context's error.
func Run[P, R any](ctx context.Context, points []P, fn func(ctx context.Context, p P) (R, error)) ([]R, error) {
	workers := min(Default(), len(points))
	results := make([]R, len(points))
	if len(points) == 0 {
		return results, ctx.Err()
	}

	errs := make([]error, len(points))
	// mu guards failed, the lowest index that has failed so far, and
	// stop, the cancel funcs of the points in flight.
	var mu sync.Mutex
	failed := len(points)
	stop := make([]context.CancelFunc, len(points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				mu.Lock()
				if i > failed || ctx.Err() != nil {
					// A lower-indexed failure or the caller stopped this
					// point; drain it without evaluating.
					mu.Unlock()
					continue
				}
				pctx, cancel := context.WithCancel(ctx)
				stop[i] = cancel
				mu.Unlock()
				r, err := fn(pctx, points[i])
				mu.Lock()
				stop[i] = nil
				if err != nil {
					errs[i] = err
					if i < failed {
						failed = i
						for _, c := range stop[i+1:] {
							if c != nil {
								c()
							}
						}
					}
				} else {
					results[i] = r
				}
				mu.Unlock()
				cancel()
			}
		}()
	}
	wg.Wait()
	// Every point a failure cancelled lies above that failure, so the
	// lowest-indexed error is one a point met of its own accord (or the
	// caller's cancellation).
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
