package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"

	"pimphony/internal/model"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// leapRecord is everything one Leap call reports, copied out of the
// engine's reused scratch, and the engine's clock after it.
type leapRecord struct {
	Iterations                      int
	FirstEnd, End, RecomputeSeconds float64
	Batch                           int
	Admitted, Preempted             []int
	Completed, Generated            []int
}

func record(res StepResult, end float64) leapRecord {
	return leapRecord{Iterations: res.Iterations, FirstEnd: res.FirstEnd, End: end,
		RecomputeSeconds: res.RecomputeSeconds, Batch: res.Batch,
		Admitted: ids(res.Admitted), Preempted: ids(res.Preempted), Completed: ids(res.Completed),
		Generated: append([]int(nil), res.Generated...)}
}

// TestSharedSystemMatchesOwnSystems pins what a serving fleet spec
// relies on: every Engine of one System prices through the System's one
// stepper, and interleaving their leaps changes nothing. Each case
// drives three engines of one System, each with its own batch, and
// three engines that each own a System through the same calls in the
// same order: one-iteration calls, leaps cut by a time bound, and leaps
// to the event horizon, with preemption under a tight DPA pool. Every
// StepResult, the two engines' clocks after every call, each engine's
// energy and its counters must be bit-identical.
func TestSharedSystemMatchesOwnSystems(t *testing.T) {
	qmsum := func(seed int64, n, decode int) []workload.Request {
		return withDecode(workload.NewGenerator(workload.QMSum(), seed).Batch(n), decode)
	}
	tight := engineConfig(t, PIMphony())
	tight.KVBudgetBytes = 4100 << 20 // two 4096-token prompts, 4 chunks of slack
	cases := []struct {
		name    string
		cfg     Config
		reqs    [3][]workload.Request
		preempt bool // the case must preempt
	}{
		{name: "pim-tcp", cfg: engineConfig(t, PIMphony()),
			reqs: [3][]workload.Request{qmsum(7, 6, 40), qmsum(8, 3, 25), qmsum(9, 8, 33)}},
		{name: "pim-tcp-tight-dpa", cfg: tight, preempt: true, reqs: [3][]workload.Request{
			{{ID: 1, Context: 4096, Decode: 8}, {ID: 2, Context: 4096, Decode: 8}},
			{{ID: 1, Context: 3000, Decode: 30}, {ID: 2, Context: 2500, Decode: 25}, {ID: 3, Context: 2000, Decode: 40}},
			{{ID: 1, Context: 1000, Decode: 50}, {ID: 2, Context: 6000, Decode: 12}},
		}},
		// CENT's LLM-72B-128K-GQA geometry, head-first: 32 modules as
		// TP 8 x PP 4, so every iteration folds one micro-batch per
		// request. The 70,000-token request spans more than one channel
		// capacity tile.
		{name: "cent-72b-128k-gqa-hfp-pp4", cfg: Config{Name: "cent-72b-128k-gqa", Backend: PIMOnly,
			Dev: timing.AiM16().WithChannels(32).WithCapacity(16 << 30), Modules: 32, TP: 8, PP: 4,
			Model: model.LLM72B128KGQA(), Tech: Baseline()}, reqs: [3][]workload.Request{
			{{ID: 1, Context: 8192, Decode: 6}, {ID: 2, Context: 70000, Decode: 5}},
			{{ID: 1, Context: 30000, Decode: 9}},
			{{ID: 1, Context: 4096, Decode: 7}, {ID: 2, Context: 12000, Decode: 4}},
		}},
		{name: "dimm-pim", cfg: Config{Name: "dimm", Backend: DIMMPIM, Dev: timing.DDR5DIMM(), Modules: 8, TP: 8, PP: 1,
			Model: model.LLM7B32K(), Tech: PIMphony()},
			reqs: [3][]workload.Request{qmsum(9, 6, 45), qmsum(10, 2, 20), qmsum(11, 5, 31)}},
		{name: "gpu", cfg: Config{Name: "gpu", Backend: GPUSystem, Model: model.LLM7B32K(), GPUs: 2},
			reqs: [3][]workload.Request{qmsum(7, 6, 50), qmsum(12, 4, 22), qmsum(13, 7, 35)}},
	}
	// The offsets of each call's time bound past the engine's clock: a
	// call bounded at its own start prices one iteration, a finite bound
	// cuts a leap, an infinite one runs it to the event horizon.
	bounds := []float64{0, 0.05, math.Inf(1)}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var shared, own [3]*Engine
			for i, reqs := range c.reqs {
				shared[i] = engineOn(t, sys, reqs)
				own[i] = engineFor(t, c.cfg, reqs)
			}
			var single, multi int
			for call, busy := 0, true; busy; call++ {
				if call > 100_000 {
					t.Fatal("engines did not drain")
				}
				busy = false
				for i := range shared {
					if shared[i].Idle() {
						continue
					}
					busy = true
					until := shared[i].Clock() + bounds[(call+i)%len(bounds)]
					res, err := shared[i].Leap(ctx, until, until)
					if err != nil {
						t.Fatal(err)
					}
					got := record(res, shared[i].Clock())
					res, err = own[i].Leap(ctx, until, until)
					if err != nil {
						t.Fatal(err)
					}
					if want := record(res, own[i].Clock()); !reflect.DeepEqual(got, want) {
						t.Fatalf("engine %d, call %d: shared System\n%+v\nown System\n%+v", i, call, got, want)
					}
					if n := got.Iterations; n == 1 {
						single++
					} else if n > 1 {
						multi++
					}
				}
			}
			if single == 0 || multi == 0 {
				t.Errorf("drove %d one-iteration and %d multi-iteration calls; want both", single, multi)
			}
			preemptions := 0
			for i := range shared {
				sa, sf := shared[i].Energy()
				oa, of := own[i].Energy()
				if sa != oa || sf != of {
					t.Errorf("engine %d: shared-System energy (%v, %v) != own-System energy (%v, %v)", i, sa, sf, oa, of)
				}
				if shared[i].Generated() != own[i].Generated() || shared[i].Steps() != own[i].Steps() ||
					shared[i].BusySeconds() != own[i].BusySeconds() || shared[i].Utilization() != own[i].Utilization() ||
					shared[i].Preemptions() != own[i].Preemptions() {
					t.Errorf("engine %d: shared-System counters diverge from its own System's", i)
				}
				preemptions += shared[i].Preemptions()
			}
			if c.preempt && preemptions == 0 {
				t.Error("scenario did not exercise preemption")
			}
		})
	}
}
