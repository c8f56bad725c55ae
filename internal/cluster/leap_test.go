package cluster

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pimphony/internal/backend"
	"pimphony/internal/model"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// stepTrace is the flattened per-iteration event stream of an engine
// drain: one entry per decode iteration, in simulation order, with the
// admission/preemption/completion events attached to the iteration that
// produced them (a leap expands to one entry per iteration).
type stepTrace struct {
	Seconds   float64
	Batch     int
	Admitted  []int
	Generated []int
	Preempted []int
	Completed []int
}

func ids(reqs []workload.Request) []int {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]int, len(reqs))
	for i, r := range reqs {
		out[i] = r.ID
	}
	return out
}

// flatten expands one engine result into its iterations. A
// one-iteration result carries all its events. A leap expands to
// Generated on every iteration and Completed on the last, and carries no
// admission or preemption, which a leap never makes: a leap that
// admitted or preempted would diverge from the reference trace.
func flatten(res StepResult) []stepTrace {
	if len(res.IterSeconds) == 1 {
		return []stepTrace{{Seconds: res.Seconds, Batch: res.Batch,
			Admitted: ids(res.Admitted), Generated: append([]int(nil), res.Generated...),
			Preempted: ids(res.Preempted), Completed: ids(res.Completed)}}
	}
	out := make([]stepTrace, len(res.IterSeconds))
	for i, sec := range res.IterSeconds {
		out[i] = stepTrace{Seconds: sec, Batch: res.Batch, Generated: append([]int(nil), res.Generated...)}
	}
	if n := len(out); n > 0 {
		out[n-1].Completed = ids(res.Completed)
	}
	return out
}

// refStep is the naive reference decode loop the engine's Leap must
// match: it admits pending requests FCFS, prices exactly one decode
// iteration for the active batch, grows every request by one token —
// preempting the youngest admitted request whenever a Grow fails — and
// retires the ones that reached their generation length. It shares the
// engine's admission, pricing, accounting and retirement helpers but
// none of Leap's horizon or lockstep-growth logic.
func refStep(ctx context.Context, e *Engine) (StepResult, error) {
	s := e.sys
	var res StepResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	before := len(e.active)
	e.fill()
	for _, en := range e.active[before:] {
		res.Admitted = append(res.Admitted, en.req)
	}
	for _, en := range e.active[before:] {
		if en.recompute {
			en.recompute = false
			rc := s.PrefillSeconds(en.req.Context + en.gen)
			if e.timeScale != 1 {
				rc *= e.timeScale
			}
			res.RecomputeSeconds += rc
		}
	}
	batch := append([]*entry(nil), e.active...)
	res.Batch = len(batch)
	if len(batch) > e.maxActive {
		e.maxActive = len(batch)
	}
	if len(batch) == 0 {
		if len(e.pending) > 0 {
			r := e.pending[0].req
			return res, fmt.Errorf("cluster %s: request %d (context %d, decode %d) does not fit even in an empty system",
				s.cfg.Name, r.ID, r.Context, r.Decode)
		}
		return res, nil // idle
	}
	e.sampleCapacity()
	var cost backend.StepCost
	s.stepper.Start(e.liveTokens(batch))
	if err := s.stepper.Next(&cost); err != nil {
		return res, err
	}
	res.Seconds = e.account(&cost, res.RecomputeSeconds)
	res.IterSeconds = []float64{res.Seconds}
	for _, en := range batch {
		if !en.admitted {
			continue // evicted earlier this step
		}
		en.gen++
		growErr := e.pool.Grow(en.req.ID, en.req.Context+en.gen)
		for growErr != nil && len(e.active) > 1 {
			victim, perr := e.preemptYoungest()
			if perr != nil {
				return res, perr
			}
			res.Preempted = append(res.Preempted, victim.req)
			if victim == en {
				break // the grower itself lost; its token is not emitted
			}
			growErr = e.pool.Grow(en.req.ID, en.req.Context+en.gen)
		}
		if growErr != nil {
			en.gen-- // frozen (sole survivor) or evicted mid-growth
			continue
		}
		res.Generated = append(res.Generated, en.req.ID)
		e.generated++
		e.outstanding--
	}
	e.sampleCapacity()
	done, err := e.retire(batch)
	if err != nil {
		return res, err
	}
	res.Completed = done
	if len(res.Generated) == 0 && len(done) == 0 && len(res.Preempted) == 0 {
		return res, fmt.Errorf("cluster %s: decode stalled — %d active requests all out of KV headroom",
			s.cfg.Name, len(batch))
	}
	return res, nil
}

// drainTrace drains an engine and returns the flattened iteration
// trace. leap selects Engine.Leap toward an unbounded time over the
// naive one-iteration refStep loop.
func drainTrace(t *testing.T, e *Engine, leap bool) []stepTrace {
	t.Helper()
	var out []stepTrace
	for i := 0; !e.Idle(); i++ {
		if i > 1_000_000 {
			t.Fatal("engine did not drain")
		}
		var res StepResult
		var err error
		if leap {
			res, err = e.Leap(context.Background(), 0, math.Inf(1))
		} else {
			res, err = refStep(context.Background(), e)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, flatten(res)...)
	}
	return out
}

// engineFor builds a fresh engine for a config with the given requests
// enqueued.
func engineFor(t *testing.T, cfg Config, reqs []workload.Request) *Engine {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return engineOn(t, sys, reqs)
}

// engineOn builds a new engine of sys with the given requests enqueued.
func engineOn(t *testing.T, sys *System, reqs []workload.Request) *Engine {
	t.Helper()
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := e.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestLeapMatchesStepEventStream pins the fast-forward contract at the
// engine level: draining via Leap must produce the identical flattened
// iteration trace — same per-iteration durations, same events on the
// same iterations — and identical aggregate counters as the naive
// one-step loop, including under DPA preemption pressure and on the GPU
// baseline's paged pool.
func TestLeapMatchesStepEventStream(t *testing.T) {
	long := func(cfg Config) Config {
		cfg.DecodeWindow = 8
		return cfg
	}
	tightDPA := long(engineConfig(t, PIMphony()))
	tightDPA.KVBudgetBytes = 4100 << 20 // forces mid-decode preemption
	static := long(engineConfig(t, Technique{TCP: true, DCS: true}))
	static.TMaxOverride = 8192
	static.KVBudgetBytes = 4100 << 20 // admits one at a time
	cases := []struct {
		name string
		cfg  Config
		reqs []workload.Request
	}{
		{"pim-dpa", long(engineConfig(t, PIMphony())), withDecode(workload.NewGenerator(workload.QMSum(), 42).Batch(10), 37)},
		{"pim-static-queued", static, withDecode(workload.Uniform(4096, 3).Batch(4), 60)},
		{"pim-dpa-preempting", tightDPA, []workload.Request{
			{ID: 1, Context: 4096, Decode: 8}, {ID: 2, Context: 4096, Decode: 8}}},
		{"pim-truncating", long(engineConfig(t, PIMphony())), []workload.Request{{ID: 1, Context: 32768 - 90, Decode: 400}}},
		{"gpu-paged", Config{Name: "gpu", Backend: GPUSystem, Model: model.LLM7B32K(), GPUs: 2, DecodeWindow: 4},
			withDecode(workload.NewGenerator(workload.QMSum(), 7).Batch(6), 50)},
		{"dimm-dpa", Config{Name: "dimm", Backend: DIMMPIM, Dev: timing.DDR5DIMM(), Modules: 8, TP: 8, PP: 1,
			Model: model.LLM7B32K(), Tech: PIMphony(), DecodeWindow: 4},
			withDecode(workload.NewGenerator(workload.QMSum(), 9).Batch(6), 45)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			naive := engineFor(t, c.cfg, c.reqs)
			fast := engineFor(t, c.cfg, c.reqs)
			nt := drainTrace(t, naive, false)
			ft := drainTrace(t, fast, true)
			if !reflect.DeepEqual(nt, ft) {
				if len(nt) != len(ft) {
					t.Fatalf("trace lengths diverged: naive %d vs leap %d iterations", len(nt), len(ft))
				}
				for i := range nt {
					if !reflect.DeepEqual(nt[i], ft[i]) {
						t.Fatalf("iteration %d diverged:\nnaive %+v\nleap  %+v", i, nt[i], ft[i])
					}
				}
			}
			if c.name == "pim-dpa-preempting" && naive.Preemptions() == 0 {
				t.Fatal("scenario did not exercise preemption")
			}
			// Aggregates must agree exactly too.
			if naive.Generated() != fast.Generated() || naive.Steps() != fast.Steps() ||
				naive.BusySeconds() != fast.BusySeconds() ||
				naive.Preemptions() != fast.Preemptions() ||
				naive.BlockedSeconds() != fast.BlockedSeconds() ||
				naive.RecomputeSeconds() != fast.RecomputeSeconds() ||
				naive.Utilization() != fast.Utilization() ||
				naive.MaxActive() != fast.MaxActive() ||
				naive.PeakLiveBytes() != fast.PeakLiveBytes() ||
				naive.PeakReservedBytes() != fast.PeakReservedBytes() {
				t.Errorf("aggregates diverged:\nnaive gen=%d steps=%d busy=%g preempt=%d blocked=%g recomp=%g\nleap  gen=%d steps=%d busy=%g preempt=%d blocked=%g recomp=%g",
					naive.Generated(), naive.Steps(), naive.BusySeconds(), naive.Preemptions(), naive.BlockedSeconds(), naive.RecomputeSeconds(),
					fast.Generated(), fast.Steps(), fast.BusySeconds(), fast.Preemptions(), fast.BlockedSeconds(), fast.RecomputeSeconds())
			}
		})
	}
}

func withDecode(reqs []workload.Request, base int) []workload.Request {
	for i := range reqs {
		reqs[i].Decode = base + i%7
	}
	return reqs
}

// TestLeapRespectsUntil: a leap advancing toward a time bound must stop
// with the first iteration that crosses it — the property that keeps
// arrival admission timing identical to one iteration per call.
func TestLeapRespectsUntil(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	e := engineFor(t, cfg, []workload.Request{{ID: 1, Context: 4096, Decode: 64}})
	// The admitting call prices one iteration, however far its bound.
	res, err := e.Leap(context.Background(), 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	perStep := res.Seconds
	if len(res.IterSeconds) != 1 {
		t.Fatalf("admitting call leapt %d iterations", len(res.IterSeconds))
	}
	// Advance toward a bound ~3.5 iterations out: the leap must stop
	// after the 4th iteration (the one that crosses), not run to the
	// completion horizon.
	until := perStep * 3.5
	res, err = e.Leap(context.Background(), 0, until)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterSeconds) != 4 {
		t.Fatalf("leap ran %d iterations toward a 3.5-iteration bound, want 4", len(res.IterSeconds))
	}
	var clock float64
	for _, d := range res.IterSeconds[:3] {
		clock += d
	}
	if clock >= until {
		t.Fatal("leap kept running after crossing the bound")
	}
	// A bound already reached prices exactly one iteration.
	if res, err = e.Leap(context.Background(), 1, 1); err != nil {
		t.Fatal(err)
	}
	if len(res.IterSeconds) != 1 {
		t.Fatalf("call bounded at its start ran %d iterations, want 1", len(res.IterSeconds))
	}
}

// TestLeapDrainsStableBatchInOneCall: nothing but completion bounds a
// lone static-allocation request's leap, so it drains in two calls —
// the admitting iteration, then one leap to completion — with the same
// trace as the naive loop.
func TestLeapDrainsStableBatchInOneCall(t *testing.T) {
	cfg := engineConfig(t, Technique{TCP: true, DCS: true}) // static allocation
	reqs := []workload.Request{{ID: 1, Context: 4000, Decode: 300}}
	want := drainTrace(t, engineFor(t, cfg, reqs), false)
	e := engineFor(t, cfg, reqs)
	var got []stepTrace
	calls := 0
	for ; !e.Idle() && calls < 10; calls++ {
		res, err := e.Leap(context.Background(), 0, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, flatten(res)...)
	}
	if calls != 2 {
		t.Errorf("drained in %d calls, want 2 (admission, then one leap)", calls)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("leap trace diverges from the naive loop (%d vs %d iterations)", len(got), len(want))
	}
}
