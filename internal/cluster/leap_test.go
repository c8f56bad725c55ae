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
// produced them (a leap expands to one entry per iteration). End is the
// engine clock at the iteration's end, where the call reports one
// (clocked): the end of its first and of its last iteration.
type stepTrace struct {
	End       float64
	clocked   bool
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

// flatten expands one engine call into its iterations; end is the
// engine's clock after the call. A one-iteration result carries all its
// events, and its two clocks must agree. A leap expands to Generated on
// every iteration and Completed on the last, and carries no admission
// or preemption, which a leap never makes: a leap that admitted or
// preempted would diverge from the reference trace.
func flatten(t *testing.T, res StepResult, end float64) []stepTrace {
	t.Helper()
	if res.Iterations == 1 {
		if res.FirstEnd != end {
			t.Fatalf("one-iteration call reports its iteration ending at %g and at %g", res.FirstEnd, end)
		}
		return []stepTrace{{End: end, clocked: true, Batch: res.Batch,
			Admitted: ids(res.Admitted), Generated: append([]int(nil), res.Generated...),
			Preempted: ids(res.Preempted), Completed: ids(res.Completed)}}
	}
	out := make([]stepTrace, res.Iterations)
	for i := range out {
		out[i] = stepTrace{Batch: res.Batch, Generated: append([]int(nil), res.Generated...)}
	}
	if n := len(out); n > 0 {
		out[0].End, out[0].clocked = res.FirstEnd, true
		out[n-1].End, out[n-1].clocked = end, true
		out[n-1].Completed = ids(res.Completed)
	}
	return out
}

// diffTrace describes the first iteration where a trace diverges from
// the reference trace, or returns "" when none does. Batch and events
// must match on every iteration, and every clock the trace reports must
// be bit-identical to the reference clock at that iteration.
func diffTrace(ref, got []stepTrace) string {
	if len(ref) != len(got) {
		return fmt.Sprintf("trace lengths diverged: reference %d vs leap %d iterations", len(ref), len(got))
	}
	for i, g := range got {
		r := ref[i]
		if !g.clocked {
			r.End, r.clocked = g.End, false
		}
		if !reflect.DeepEqual(r, g) {
			return fmt.Sprintf("iteration %d diverged:\nreference %+v\nleap      %+v", i, r, g)
		}
	}
	return ""
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
	e.account(&cost, res.RecomputeSeconds) // advances the clock
	res.Iterations, res.FirstEnd = 1, e.clock
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
			res, err = e.Leap(context.Background(), math.Inf(1), math.Inf(1))
		} else {
			res, err = refStep(context.Background(), e)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, flatten(t, res, e.Clock())...)
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

// leapCase is one engine configuration with the requests it drains.
type leapCase struct {
	name string
	cfg  Config
	reqs []workload.Request
}

// leapOracleCases are the configurations the engine-level leap oracles
// drain: DPA and static pools, a queue the static pool admits one at a
// time, mid-decode preemption under a tight DPA pool, T_max truncation,
// the GPU baseline's paged pool and DIMM-PIM.
func leapOracleCases(t *testing.T) []leapCase {
	long := func(cfg Config) Config {
		cfg.DecodeWindow = 8
		return cfg
	}
	tightDPA := long(engineConfig(t, PIMphony()))
	tightDPA.KVBudgetBytes = 4100 << 20 // forces mid-decode preemption
	static := long(engineConfig(t, Technique{TCP: true, DCS: true}))
	static.TMaxOverride = 8192
	static.KVBudgetBytes = 4100 << 20 // admits one at a time
	return []leapCase{
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
}

// TestLeapMatchesStepEventStream pins the fast-forward contract at the
// engine level: draining via Leap must produce the identical flattened
// iteration trace — the same events on the same iterations, and every
// clock a call reports bit-identical to the naive loop's at that
// iteration — and identical aggregate counters and final clock as the
// naive one-step loop, including under DPA preemption pressure and on
// the GPU baseline's paged pool.
func TestLeapMatchesStepEventStream(t *testing.T) {
	cases := leapOracleCases(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			naive := engineFor(t, c.cfg, c.reqs)
			fast := engineFor(t, c.cfg, c.reqs)
			nt := drainTrace(t, naive, false)
			ft := drainTrace(t, fast, true)
			if d := diffTrace(nt, ft); d != "" {
				t.Fatal(d)
			}
			if c.name == "pim-dpa-preempting" && naive.Preemptions() == 0 {
				t.Fatal("scenario did not exercise preemption")
			}
			// Aggregates must agree exactly too.
			if naive.Generated() != fast.Generated() || naive.Steps() != fast.Steps() ||
				naive.Clock() != fast.Clock() || naive.BusySeconds() != fast.BusySeconds() ||
				naive.Preemptions() != fast.Preemptions() ||
				naive.BlockedSeconds() != fast.BlockedSeconds() ||
				naive.RecomputeSeconds() != fast.RecomputeSeconds() ||
				naive.Utilization() != fast.Utilization() ||
				naive.MaxActive() != fast.MaxActive() ||
				naive.PeakLiveBytes() != fast.PeakLiveBytes() ||
				naive.PeakReservedBytes() != fast.PeakReservedBytes() {
				t.Errorf("aggregates diverged:\nnaive gen=%d steps=%d clock=%g busy=%g preempt=%d blocked=%g recomp=%g\nleap  gen=%d steps=%d clock=%g busy=%g preempt=%d blocked=%g recomp=%g",
					naive.Generated(), naive.Steps(), naive.Clock(), naive.BusySeconds(), naive.Preemptions(), naive.BlockedSeconds(), naive.RecomputeSeconds(),
					fast.Generated(), fast.Steps(), fast.Clock(), fast.BusySeconds(), fast.Preemptions(), fast.BlockedSeconds(), fast.RecomputeSeconds())
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
// arrival admission timing identical to one iteration per call — and
// every clock it reports must be the naive loop's at that iteration.
func TestLeapRespectsUntil(t *testing.T) {
	ctx := context.Background()
	cfg := engineConfig(t, PIMphony())
	reqs := []workload.Request{{ID: 1, Context: 4096, Decode: 64}}
	// ref[i] is the naive loop's clock at the end of iteration i.
	var ref []float64
	for naive := engineFor(t, cfg, reqs); !naive.Idle(); {
		if _, err := refStep(ctx, naive); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, naive.Clock())
	}
	e := engineFor(t, cfg, reqs)
	// The admitting call prices one iteration, however far its bound.
	res, err := e.Leap(ctx, math.Inf(1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("admitting call leapt %d iterations", res.Iterations)
	}
	if res.FirstEnd != ref[0] || e.Clock() != ref[0] {
		t.Fatalf("admitting call reports clocks %g and %g, want %g", res.FirstEnd, e.Clock(), ref[0])
	}
	// Advance toward a bound ~3.5 iterations out: the leap must stop
	// after the 4th iteration (the one that crosses), not run to the
	// completion horizon.
	until := e.Clock() + ref[0]*3.5
	if res, err = e.Leap(ctx, until, until); err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 4 {
		t.Fatalf("leap ran %d iterations toward a 3.5-iteration bound, want 4", res.Iterations)
	}
	if res.FirstEnd != ref[1] || e.Clock() != ref[4] {
		t.Fatalf("leap reports clocks %g and %g, want %g and %g", res.FirstEnd, e.Clock(), ref[1], ref[4])
	}
	if ref[3] >= until || ref[4] < until {
		t.Fatal("leap did not stop with the iteration that crossed its bound")
	}
	// A bound already reached prices exactly one iteration.
	if res, err = e.Leap(ctx, e.Clock(), e.Clock()); err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("call bounded at its start ran %d iterations, want 1", res.Iterations)
	}
	if res.FirstEnd != ref[5] || e.Clock() != ref[5] {
		t.Fatalf("call bounded at its start reports clocks %g and %g, want %g", res.FirstEnd, e.Clock(), ref[5])
	}
}

// TestLeapDrainsStableBatchInOneCall: nothing but completion bounds a
// lone static-allocation request's leap, so it drains in two calls —
// the admitting iteration, then one leap to completion — with the same
// trace and clocks as the naive loop.
func TestLeapDrainsStableBatchInOneCall(t *testing.T) {
	cfg := engineConfig(t, Technique{TCP: true, DCS: true}) // static allocation
	reqs := []workload.Request{{ID: 1, Context: 4000, Decode: 300}}
	want := drainTrace(t, engineFor(t, cfg, reqs), false)
	e := engineFor(t, cfg, reqs)
	var got []stepTrace
	calls := 0
	for ; !e.Idle() && calls < 10; calls++ {
		res, err := e.Leap(context.Background(), math.Inf(1), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, flatten(t, res, e.Clock())...)
	}
	if calls != 2 {
		t.Errorf("drained in %d calls, want 2 (admission, then one leap)", calls)
	}
	if d := diffTrace(want, got); d != "" {
		t.Error(d)
	}
}

// reacted reports whether a call admitted, completed or preempted: the
// outcomes a fleet scheduler reacts to.
func reacted(res StepResult) bool {
	return len(res.Admitted)+len(res.Completed)+len(res.Preempted) > 0
}

// TestQuietUntilBoundsReactingIterations is the oracle of the quiet
// bound: stepping an engine one iteration per call, every iteration that
// admits, completes or preempts starts at or after every QuietUntil
// taken since the last enqueue. Half of each case's requests arrive
// mid-drain, one every third call, and each case also runs under
// SetTimeScale(2).
func TestQuietUntilBoundsReactingIterations(t *testing.T) {
	ctx := context.Background()
	for _, c := range leapOracleCases(t) {
		for _, scale := range []float64{1, 2} {
			t.Run(fmt.Sprintf("%s/x%g", c.name, scale), func(t *testing.T) {
				head := (len(c.reqs) + 1) / 2
				e := engineFor(t, c.cfg, c.reqs[:head])
				e.SetTimeScale(scale)
				late := c.reqs[head:]
				bound, quiet, reacting := math.Inf(-1), 0, 0
				for call := 0; !e.Idle() || len(late) > 0; call++ {
					if call > 1_000_000 {
						t.Fatal("engine did not drain")
					}
					if len(late) > 0 && (call%3 == 2 || e.Idle()) {
						if err := e.Enqueue(late[0]); err != nil {
							t.Fatal(err)
						}
						late = late[1:]
						bound = math.Inf(-1) // an enqueue may admit at the next iteration
					}
					q := e.QuietUntil()
					if q < e.Clock() {
						t.Fatalf("call %d: QuietUntil %g below the clock %g", call, q, e.Clock())
					}
					bound = max(bound, q)
					start := e.Clock()
					res, err := e.Leap(ctx, start, start)
					if err != nil {
						t.Fatal(err)
					}
					if res.Iterations != 1 {
						t.Fatalf("call %d bounded at its start ran %d iterations", call, res.Iterations)
					}
					if !reacted(res) {
						quiet++
						continue
					}
					reacting++
					if start < bound {
						t.Fatalf("call %d: iteration starting at %.17g admitted %d, completed %d, preempted %d; an earlier QuietUntil was %.17g",
							call, start, len(res.Admitted), len(res.Completed), len(res.Preempted), bound)
					}
				}
				if quiet == 0 || reacting == 0 {
					t.Fatalf("drain had %d quiet and %d reacting iterations; the oracle needs both", quiet, reacting)
				}
				if !math.IsInf(e.QuietUntil(), 1) {
					t.Fatalf("idle engine's QuietUntil is %g, want +Inf", e.QuietUntil())
				}
			})
		}
	}
}

// TestQuietLeapsMatchStepEventStream drains every leap-oracle case with
// calls bounded at their own start but with an unbounded quiet bound:
// past its first iteration, each call runs only quiet iterations. The
// trace and clocks must match the naive loop's, and a call of more than
// one iteration must report no admission, completion or preemption.
func TestQuietLeapsMatchStepEventStream(t *testing.T) {
	ctx := context.Background()
	for _, c := range leapOracleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want := drainTrace(t, engineFor(t, c.cfg, c.reqs), false)
			e := engineFor(t, c.cfg, c.reqs)
			var got []stepTrace
			multi := 0
			for call := 0; !e.Idle(); call++ {
				if call > 1_000_000 {
					t.Fatal("engine did not drain")
				}
				res, err := e.Leap(ctx, e.Clock(), math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations > 1 {
					multi++
					if reacted(res) {
						t.Fatalf("call %d leapt %d quiet iterations but admitted %d, completed %d, preempted %d",
							call, res.Iterations, len(res.Admitted), len(res.Completed), len(res.Preempted))
					}
				}
				got = append(got, flatten(t, res, e.Clock())...)
			}
			if d := diffTrace(want, got); d != "" {
				t.Fatal(d)
			}
			if multi == 0 && c.name != "pim-dpa-preempting" {
				t.Fatal("no call leapt past its first iteration")
			}
		})
	}
}

// TestWithdrawCanLowerQuietUntil: withdrawing a blocked queue head can
// uncover an admissible request behind it (admission is strict FCFS), so
// a withdrawal can lower QuietUntil to the clock; a fleet scheduler must
// re-read the bound after one.
func TestWithdrawCanLowerQuietUntil(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	cfg.KVBudgetBytes = 4100 << 20 // about 8,200 tokens
	e := engineFor(t, cfg, []workload.Request{
		{ID: 1, Context: 4096, Decode: 8},
		{ID: 2, Context: 4096, Decode: 100}, // cannot reach its horizon beside request 1
		{ID: 3, Context: 100, Decode: 8},    // fits, but queues behind request 2
	})
	res, err := e.Leap(context.Background(), e.Clock(), e.Clock())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 1 || e.Pending() != 2 {
		t.Fatalf("admitted %d with %d queued, want 1 and 2", len(res.Admitted), e.Pending())
	}
	if before := e.QuietUntil(); !(before > e.Clock()) {
		t.Fatalf("QuietUntil %g with a blocked queue head, want past the clock %g", before, e.Clock())
	}
	if _, _, err := e.Withdraw(2); err != nil {
		t.Fatal(err)
	}
	if after := e.QuietUntil(); after != e.Clock() {
		t.Fatalf("QuietUntil %g after the blocked head left, want the clock %g", after, e.Clock())
	}
	if res, err = e.Leap(context.Background(), e.Clock(), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 1 || res.Admitted[0].ID != 3 {
		t.Fatalf("next call admitted %v, want request 3", ids(res.Admitted))
	}
}
