package backend

import (
	"context"
	"fmt"
	"testing"

	"pimphony/internal/model"
	"pimphony/internal/workload"
)

// leapIterations is the length of the leaps the allocation guard and
// the stepper benchmark price: about a serving leap's (serve-longctx's
// multi-iteration leaps run about 63 iterations).
const leapIterations = 64

// leapRunner returns a function that prices one leapIterations-long
// leap over n heavy-tailed 2K-30K prompts on the serve-longctx geometry
// (a CENT 7B-32K replica under PIMphony), restarting from the prompts
// each call, so every call after the first prices from a warm memo.
func leapRunner(tb testing.TB, n int) func() {
	gen, err := workload.HeavyTailed(2048, 30000, 1.1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := gen.Batch(n)
	st := pimOnly.NewStepper(pimEnv(model.LLM7B32K(), PIMphony()))
	toks := make([]int, n)
	var c StepCost
	return func() {
		for i, r := range reqs {
			toks[i] = r.Context
		}
		st.Start(toks)
		for i := 0; i < leapIterations; i++ {
			if err := st.Next(context.Background(), &c); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestLeapAllocatesNothing guards the serving hot path: a warm leap, the
// per-leap Start plus one Next per iteration over an 8-request batch,
// allocates nothing. A stepper that handed each iteration to a callback
// would fail it, since the closure escapes through the interface.
func TestLeapAllocatesNothing(t *testing.T) {
	leap := leapRunner(t, 8)
	leap() // price every shape the leap meets
	if allocs := testing.AllocsPerRun(20, leap); allocs != 0 {
		t.Errorf("a warm %d-iteration leap allocated %v times", leapIterations, allocs)
	}
}

// BenchmarkStepperLeap measures the leap pricer alone (the kernel
// pricing layer under Engine.Leap): each op is one warm
// leapIterations-long leap over a 1-request and an 8-request batch, and
// ns/iter is the cost of one priced iteration.
func BenchmarkStepperLeap(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
			leap := leapRunner(b, n)
			leap()
			b.ReportAllocs()
			for b.Loop() {
				leap()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leapIterations), "ns/iter")
		})
	}
}
