package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers sets the default worker bound every Run uses until the
// test ends.
func withWorkers(t *testing.T, n int) {
	prev := SetDefault(n)
	t.Cleanup(func() { SetDefault(prev) })
}

func TestOrderingPreserved(t *testing.T) {
	points := make([]int, 100)
	for i := range points {
		points[i] = i
	}
	for _, par := range []int{1, 2, 7, 64} {
		withWorkers(t, par)
		got, err := Run(context.Background(), points,
			func(_ context.Context, p int) (int, error) { return p * p, nil })
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("par=%d: result[%d] = %d, want %d", par, i, r, i*i)
			}
		}
	}
}

func TestParallelism1Equivalence(t *testing.T) {
	// With one worker the engine must behave exactly like the
	// sequential loop: same results, same evaluation order, and the first
	// error stops evaluation of later points.
	var order []int
	points := []int{10, 20, 30, 40}
	withWorkers(t, 1)
	seq, err := Run(context.Background(), points, func(_ context.Context, p int) (string, error) {
		order = append(order, p)
		return fmt.Sprintf("v%d", p), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{10, 20, 30, 40}; !reflect.DeepEqual(order, want) {
		t.Errorf("evaluation order %v, want %v", order, want)
	}
	withWorkers(t, 4)
	par, err := Run(context.Background(), points, func(_ context.Context, p int) (string, error) {
		return fmt.Sprintf("v%d", p), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel results %v differ from sequential %v", par, seq)
	}
}

func TestErrorPropagation(t *testing.T) {
	withWorkers(t, 2)
	boom := errors.New("boom")
	points := []int{0, 1, 2, 3, 4, 5}
	_, err := Run(context.Background(), points, func(_ context.Context, p int) (int, error) {
		if p == 3 {
			return 0, fmt.Errorf("point %d: %w", p, boom)
		}
		return p, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestLowestIndexedErrorWins(t *testing.T) {
	withWorkers(t, 1)
	// Two failing points: the reported error must be the lower-indexed
	// one whenever both actually ran, and with one worker it is
	// always the first failure the sequential loop would hit.
	points := []int{0, 1, 2, 3}
	_, err := Run(context.Background(), points, func(_ context.Context, p int) (int, error) {
		if p >= 2 {
			return 0, fmt.Errorf("fail-%d", p)
		}
		return p, nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("sequential first error should win, got %v", err)
	}
}

func TestFirstErrorCancelsRemaining(t *testing.T) {
	withWorkers(t, 1)
	// With one worker, a failure at the first point must prevent every
	// later point from being evaluated at all.
	var evaluated atomic.Int64
	points := make([]int, 50)
	for i := range points {
		points[i] = i
	}
	_, err := Run(context.Background(), points, func(_ context.Context, p int) (int, error) {
		evaluated.Add(1)
		if p == 0 {
			return 0, errors.New("early failure")
		}
		return p, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := evaluated.Load(); n != 1 {
		t.Errorf("evaluated %d points after first-point failure, want 1", n)
	}
}

func TestInFlightPointsSeeCancellation(t *testing.T) {
	withWorkers(t, 2)
	// A failing point cancels the context handed to concurrently running
	// points, so long simulations can stop early.
	release := make(chan struct{})
	var sawCancel atomic.Bool
	points := []string{"fail", "slow"}
	_, err := Run(context.Background(), points, func(ctx context.Context, p string) (int, error) {
		if p == "fail" {
			<-release // hold until the slow point is definitely running
			return 0, errors.New("fail point")
		}
		close(release)
		select {
		case <-ctx.Done():
			sawCancel.Store(true)
		case <-time.After(5 * time.Second):
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected the fail point's error")
	}
	if !sawCancel.Load() {
		t.Error("in-flight point never observed cancellation")
	}
}

func TestCancellationCasualtyDoesNotMaskRootError(t *testing.T) {
	withWorkers(t, 2)
	// Point 1 is a long simulation that aborts with context.Canceled
	// once point 0's real failure cancels it; Run must report point 0's
	// error, not the casualty's.
	release := make(chan struct{})
	boom := errors.New("root failure")
	_, err := Run(context.Background(), []int{0, 1}, func(ctx context.Context, p int) (int, error) {
		if p == 0 {
			<-release // wait until point 1 is definitely in flight
			return 0, boom
		}
		close(release)
		<-ctx.Done()
		return 0, fmt.Errorf("simulation aborted: %w", ctx.Err())
	})
	if !errors.Is(err, boom) {
		t.Fatalf("cancellation casualty masked the root error: got %v", err)
	}
}

// TestLowerIndexedPointRunsToItsOwnFailure: a failure does not cancel
// the points below it. Point 1 fails while point 0 is in flight; point
// 0 keeps running and then fails of its own accord, so Run reports
// point 0's error, as the sequential loop would.
func TestLowerIndexedPointRunsToItsOwnFailure(t *testing.T) {
	withWorkers(t, 2)
	running, failing := make(chan struct{}), make(chan struct{})
	_, err := Run(context.Background(), []int{0, 1}, func(ctx context.Context, p int) (int, error) {
		if p == 1 {
			<-running
			close(failing)
			return 0, errors.New("fail-1")
		}
		close(running)
		<-failing
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("point 0 cancelled: %w", ctx.Err())
		case <-time.After(200 * time.Millisecond):
			return 0, errors.New("fail-0")
		}
	})
	if err == nil || err.Error() != "fail-0" {
		t.Fatalf("got %v, want point 0's own failure", err)
	}
}

func TestParentContextCancellation(t *testing.T) {
	withWorkers(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, []int{1, 2, 3}, func(ctx context.Context, p int) (int, error) {
		return p, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled parent context should surface, got %v", err)
	}
}

func TestEmptyPoints(t *testing.T) {
	got, err := Run(context.Background(), nil, func(_ context.Context, p int) (int, error) {
		t.Fatal("fn must not run")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: got %v, %v", got, err)
	}
}

func TestActuallyRunsConcurrently(t *testing.T) {
	withWorkers(t, 2)
	// Two points rendezvous: that is only possible if the pool really
	// runs them on separate goroutines.
	var barrier sync.WaitGroup
	barrier.Add(2)
	done := make(chan struct{})
	go func() {
		barrier.Wait()
		close(done)
	}()
	_, err := Run(context.Background(), []int{0, 1}, func(ctx context.Context, p int) (int, error) {
		barrier.Done()
		select {
		case <-done:
			return p, nil
		case <-time.After(5 * time.Second):
			return 0, errors.New("rendezvous timed out: points did not overlap")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetDefault(t *testing.T) {
	prev := SetDefault(3)
	defer SetDefault(prev)
	if Default() != 3 {
		t.Fatalf("Default() = %d after SetDefault(3)", Default())
	}
	SetDefault(0)
	if Default() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default() = %d, want GOMAXPROCS", Default())
	}
	SetDefault(-5)
	if Default() != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative SetDefault should mean GOMAXPROCS, got %d", Default())
	}
}
