package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"pimphony/internal/workload"
)

// runWithin runs the decode window over reqs and fails the test if it
// has not returned within 5 s.
func runWithin(t *testing.T, cfg Config, reqs []workload.Request) (*Report, error) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := sys.RunCtx(ctx, reqs)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("Run still running after 5 s")
		return nil, nil
	}
}

// tokens is the number of decode tokens a report's window generated.
func tokens(rep *Report) int { return int(math.Round(rep.Throughput * rep.TotalSeconds)) }

// TestRunRejectsContextPastWindow: a candidate whose prompt already
// fills the context window can never emit a token, so Run must refuse
// it rather than decode past T_max.
func TestRunRejectsContextPastWindow(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	tmax := cfg.Model.ContextWindow
	for _, ctx := range []int{tmax, tmax + 7232} {
		reqs := []workload.Request{{ID: 0, Context: 1000}, {ID: 1, Context: ctx}}
		if rep, err := runWithin(t, cfg, reqs); err == nil {
			t.Errorf("context %d (T_max %d): Run reported %+v, want an error", ctx, tmax, rep)
		}
	}
}

// TestRunPreemptsYoungestOnExhaustion: two 4096-token requests share a
// DPA pool with 4 chunks of slack (2 tokens per chunk), and each wants a
// chunk every other token. At step 5 the older request cannot grow, so
// the younger one is preempted and cannot re-admit within the window:
// 4 steps of 2 tokens, then 4 steps of 1, and no token for a request
// that could not grow.
func TestRunPreemptsYoungestOnExhaustion(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	cfg.KVBudgetBytes = 4100 << 20
	cfg.DecodeWindow = 8
	reqs := []workload.Request{{ID: 1, Context: 4096}, {ID: 2, Context: 4096}}
	rep, err := runWithin(t, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batch != 2 || rep.Steps != 8 {
		t.Errorf("batch %d over %d steps, want 2 over 8", rep.Batch, rep.Steps)
	}
	if got := tokens(rep); got != 12 {
		t.Errorf("generated %d tokens, want 12", got)
	}
}

// TestRunTruncatesAtTMax: a request two tokens short of the context
// window retires after two steps, and with nothing left to decode the
// window ends there. An idle Step does not count as a step, so a loop
// that waits for the window alone would never return.
func TestRunTruncatesAtTMax(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	cfg.DecodeWindow = 8
	reqs := []workload.Request{{ID: 0, Context: cfg.Model.ContextWindow - 2}}
	rep, err := runWithin(t, cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 2 || tokens(rep) != 2 {
		t.Errorf("ran %d steps for %d tokens, want 2 and 2", rep.Steps, tokens(rep))
	}
}
