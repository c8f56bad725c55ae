// Package sweep is the deterministic worker-pool engine behind every
// parameter sweep in the repository: the experiment drivers
// (internal/experiments), the serving studies (internal/serve), the
// incremental technique study (internal/core), the pipelined stepper's
// prefetch (internal/backend) and the grid modes of cmd/pimphony-bench
// and cmd/pimphony-sim all fan their independent simulation points
// through Run.
//
// The engine guarantees that parallel execution is observationally
// identical to the sequential loop it replaces: results come back in
// input order, every point is evaluated by a pure-per-point function
// (shared caches such as perfmodel's memoizer are internally locked and
// value-deterministic), and the reported error is the lowest-indexed
// failure. The only difference parallelism makes is wall-clock time.
package sweep

import (
	"context"
	"errors"
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
// On the first failure the sweep context is cancelled so in-flight and
// not-yet-started points can stop early; fn implementations running long
// simulations should poll ctx. After the pool drains, Run returns the
// error of the lowest-indexed point that failed of its own accord
// (deterministic at a default of 1 worker: always the first failure the
// sequential loop would have hit). Points that merely observed the
// cancellation — skipped before starting, or in-flight returns wrapping
// context.Canceled — are not reported as the cause. If the parent
// context is cancelled, Run returns its error.
func Run[P, R any](ctx context.Context, points []P, fn func(ctx context.Context, p P) (R, error)) ([]R, error) {
	workers := min(Default(), len(points))
	results := make([]R, len(points))
	if len(points) == 0 {
		return results, ctx.Err()
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(points))
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
				if cctx.Err() != nil {
					// A failure (or the caller) cancelled the sweep;
					// drain the remaining points without evaluating.
					continue
				}
				r, err := fn(cctx, points[i])
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	// Report the lowest-indexed point that failed of its own accord. A
	// point that returned context.Canceled after a sibling's failure
	// tripped the sweep context is a cancellation casualty, not the
	// cause — skipping it keeps the root error from being masked by a
	// lower-indexed in-flight point that happened to observe the cancel
	// first.
	var canceledErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			if canceledErr == nil {
				canceledErr = err
			}
			continue
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if canceledErr != nil {
		return nil, canceledErr
	}
	return results, nil
}
