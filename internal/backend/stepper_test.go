package backend

import (
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
	return leapOn(tb, pimOnly, pimEnv(model.LLM7B32K(), PIMphony()), n)
}

// leapOn is leapRunner on any backend and environment.
func leapOn(tb testing.TB, be Backend, env *Env, n int) func() {
	gen, err := workload.HeavyTailed(2048, 30000, 1.1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	reqs := gen.Batch(n)
	st := be.NewStepper(env)
	toks := make([]int, n)
	var c StepCost
	return func() {
		for i, r := range reqs {
			toks[i] = r.Context
		}
		st.Start(toks)
		for i := 0; i < leapIterations; i++ {
			if err := st.Next(&c); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestLeapAllocatesNothing guards the serving hot path: a warm leap, the
// per-leap Start plus one Next per iteration over an 8-request batch,
// allocates nothing, on the PIM stepper and on the GPU's. A stepper
// that handed each iteration to a callback would fail it, since the
// closure escapes through the interface.
func TestLeapAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		leap func()
	}{
		{"pim-only", leapRunner(t, 8)},
		{"gpu", leapOn(t, gpu{}, gpuEnv(model.LLM7B32K()), 8)},
	} {
		c.leap() // price every shape the leap meets
		if allocs := testing.AllocsPerRun(20, c.leap); allocs != 0 {
			t.Errorf("%s: a warm %d-iteration leap allocated %v times", c.name, leapIterations, allocs)
		}
	}
}

// TestPrefillAllocatesNothing: prefill is priced for every prompt a
// unified or prefill replica serves, every recompute charge and every
// migration decision, so a warm PrefillSeconds allocates nothing on any
// backend.
func TestPrefillAllocatesNothing(t *testing.T) {
	m := model.LLM7B32K()
	for _, c := range []struct {
		be  Backend
		env *Env
	}{
		{pimOnly, pimEnv(m, PIMphony())},
		{xpuPIM, pimEnv(m, PIMphony())},
		{dimmPIM, dimmEnv(m, PIMphony())},
		{gpu{}, gpuEnv(m)},
	} {
		c.be.PrefillSeconds(c.env, 8192)
		if allocs := testing.AllocsPerRun(20, func() { c.be.PrefillSeconds(c.env, 8192) }); allocs != 0 {
			t.Errorf("%s: a warm PrefillSeconds allocated %v times", c.be.Name(), allocs)
		}
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
