package cluster

import (
	"context"
	"math"
	"testing"

	"pimphony/internal/model"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// engineConfig is a small CENT-style system for engine tests.
func engineConfig(t testing.TB, tech Technique) Config {
	t.Helper()
	m := model.LLM7B32K()
	return Config{
		Name:         "engine-test",
		Backend:      PIMOnly,
		Dev:          timing.AiM16().WithChannels(32).WithCapacity(16 << 30),
		Modules:      8,
		TP:           8,
		PP:           1,
		Model:        m,
		Tech:         tech,
		DecodeWindow: 4,
	}
}

// drain runs the naive reference loop (refStep) to completion,
// returning all completions in retirement order.
func drain(t *testing.T, e *Engine) []workload.Request {
	t.Helper()
	var done []workload.Request
	for i := 0; !e.Idle(); i++ {
		if i > 1_000_000 {
			t.Fatal("engine did not drain")
		}
		res, err := refStep(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, res.Completed...)
	}
	return done
}

func TestEngineServesAllRequests(t *testing.T) {
	sys, err := New(engineConfig(t, PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.NewGenerator(workload.QMSum(), 42).Batch(12)
	want := 0
	for i := range reqs {
		reqs[i].Decode = 3 + i%4
		want += reqs[i].Decode
		if err := e.Enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	done := drain(t, e)
	if len(done) != len(reqs) {
		t.Fatalf("completed %d of %d requests", len(done), len(reqs))
	}
	if e.Generated() != want {
		t.Errorf("generated %d tokens, want %d", e.Generated(), want)
	}
	if e.OutstandingTokens() != 0 {
		t.Errorf("outstanding %d tokens after drain", e.OutstandingTokens())
	}
	if e.BusySeconds() <= 0 || e.Steps() == 0 {
		t.Errorf("no time accounted: busy=%g steps=%d", e.BusySeconds(), e.Steps())
	}
	if u := e.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %g out of (0,1]", u)
	}
}

// TestEngineStepEvents checks the per-step event stream: admissions on
// the step that first decodes a request, one generated token per active
// request, completions exactly at each request's generation length.
func TestEngineStepEvents(t *testing.T) {
	sys, err := New(engineConfig(t, PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Enqueue(workload.Request{ID: 1, Context: 4096, Decode: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := refStep(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 1 || res.Admitted[0].ID != 1 {
		t.Fatalf("step 1 admitted %v", res.Admitted)
	}
	if len(res.Generated) != 1 || len(res.Completed) != 0 || res.Batch != 1 {
		t.Fatalf("step 1: %+v", res)
	}
	if res.Iterations != 1 || e.Clock() <= 0 || res.FirstEnd != e.Clock() {
		t.Fatalf("step 1: %d iterations ending at %g (first at %g); want one that takes time", res.Iterations, e.Clock(), res.FirstEnd)
	}
	// Mid-flight arrival joins at the next step boundary.
	if err := e.Enqueue(workload.Request{ID: 2, Context: 4096, Decode: 1}); err != nil {
		t.Fatal(err)
	}
	res, err = refStep(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Admitted) != 1 || res.Admitted[0].ID != 2 || res.Batch != 2 {
		t.Fatalf("step 2: %+v", res)
	}
	// Request 1 finishes its 2 tokens, request 2 its single token.
	if len(res.Completed) != 2 {
		t.Fatalf("step 2 completed %v", res.Completed)
	}
	if !e.Idle() {
		t.Fatal("engine should be idle")
	}
	// Idle steps are free and report nothing.
	clock := e.Clock()
	res, err = refStep(context.Background(), e)
	if err != nil || res.Iterations != 0 || res.Batch != 0 || e.Clock() != clock {
		t.Fatalf("idle step: %+v, clock %g -> %g, %v", res, clock, e.Clock(), err)
	}
}

// TestEngineWait: Wait moves an idle engine's clock forward, never back,
// and leaves an engine with queued or admitted work alone; the next
// call's iteration starts at the clock Wait left.
func TestEngineWait(t *testing.T) {
	sys, err := New(engineConfig(t, PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	want := func(what string, clock float64) {
		t.Helper()
		if e.Clock() != clock {
			t.Fatalf("%s: clock %g, want %g", what, e.Clock(), clock)
		}
	}
	want("new engine", 0)
	e.Wait(2)
	want("idle wait forward", 2)
	e.Wait(1)
	want("idle wait back", 2)
	if err := e.Enqueue(workload.Request{ID: 1, Context: 4096, Decode: 3}); err != nil {
		t.Fatal(err)
	}
	e.Wait(5)
	want("wait with a queued request", 2)
	res, err := e.Leap(context.Background(), e.Clock(), e.Clock())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 || !(res.FirstEnd > 2) || e.Clock() != res.FirstEnd {
		t.Fatalf("first call from t=2: %d iterations, first ending at %g, clock %g", res.Iterations, res.FirstEnd, e.Clock())
	}
	busy := e.Clock()
	e.Wait(busy + 10)
	want("wait with an admitted request", busy)
	for !e.Idle() {
		if _, err := e.Leap(context.Background(), math.Inf(1), math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	}
	end := e.Clock()
	e.Wait(end + 10)
	want("wait after draining", end+10)
}

func TestEngineEnqueueErrors(t *testing.T) {
	sys, err := New(engineConfig(t, PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Enqueue(workload.Request{ID: 1, Context: 1024}); err == nil {
		t.Error("zero Decode should be rejected")
	}
	if err := e.Enqueue(workload.Request{ID: 1, Context: 1024, Decode: 4}); err != nil {
		t.Fatal(err)
	}
	if err := e.Enqueue(workload.Request{ID: 1, Context: 2048, Decode: 4}); err == nil {
		t.Error("duplicate ID should be rejected")
	}
	// A context at (or past) T_max can never emit a token.
	window := engineConfig(t, PIMphony()).Model.ContextWindow
	if err := e.Enqueue(workload.Request{ID: 2, Context: window, Decode: 4}); err == nil {
		t.Error("context at T_max should be rejected at enqueue")
	}
}

// TestEngineTruncatesAtTMax: under static allocation a request whose
// Context+Decode overruns T_max must not freeze forever — generation is
// truncated at the window and the request retires with the tokens it
// actually produced.
func TestEngineTruncatesAtTMax(t *testing.T) {
	cfg := engineConfig(t, Technique{}) // static T_max reservation
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	tmax := cfg.Model.ContextWindow
	req := workload.Request{ID: 1, Context: tmax - 2, Decode: 8}
	if err := e.Enqueue(req); err != nil {
		t.Fatal(err)
	}
	done := drain(t, e)
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("truncated request did not retire: %v", done)
	}
	if e.Generated() != 2 {
		t.Errorf("generated %d tokens, want 2 (truncated at T_max)", e.Generated())
	}
}

// TestEngineServesGPU: the refactored step loop gives the GPU baseline
// full serving-engine support — admission against its paged pool,
// per-step events, completion accounting — where the pre-backend code
// refused to build an engine at all.
func TestEngineServesGPU(t *testing.T) {
	gpu := Config{Name: "gpu", Backend: GPUSystem, Model: model.LLM7B32K(), GPUs: 2, DecodeWindow: 4}
	sys, err := New(gpu)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.NewGenerator(workload.QMSum(), 7).Batch(6)
	want := 0
	for i := range reqs {
		reqs[i].Decode = 2 + i%3
		want += reqs[i].Decode
		if err := e.Enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	done := drain(t, e)
	if len(done) != len(reqs) {
		t.Fatalf("completed %d of %d requests", len(done), len(reqs))
	}
	if e.Generated() != want {
		t.Errorf("generated %d tokens, want %d", e.Generated(), want)
	}
	if e.BusySeconds() <= 0 || e.Steps() == 0 {
		t.Errorf("no time accounted: busy=%g steps=%d", e.BusySeconds(), e.Steps())
	}
	// The GPU's pool maps one-token chunks: it reserves exactly its live
	// KV, so the two high-water marks coincide.
	if e.PeakReservedBytes() != e.PeakLiveBytes() || e.PeakLiveBytes() == 0 {
		t.Errorf("GPU engine peak reserved %d, want its peak live %d",
			e.PeakReservedBytes(), e.PeakLiveBytes())
	}
	// No PIM channels: utilization has no denominator and stays zero.
	if u := e.Utilization(); u != 0 {
		t.Errorf("GPU utilization %g, want 0", u)
	}
}

// TestEngineRejectsShortPrompts: a prompt needs at least one token, so
// Enqueue and the batch window both reject an empty or negative
// context instead of pricing it.
func TestEngineRejectsShortPrompts(t *testing.T) {
	sys, err := New(centConfig(model.LLM7B32K(), PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	for _, prompt := range []int{0, -1, -2000000} {
		e, err := sys.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Enqueue(workload.Request{ID: 1, Context: prompt, Decode: 4}); err == nil {
			t.Errorf("Enqueue accepted context %d", prompt)
		}
		reqs := []workload.Request{{ID: 1, Context: 1000}, {ID: 2, Context: prompt}}
		if rep, err := sys.RunCtx(context.Background(), reqs); err == nil {
			t.Errorf("RunCtx accepted context %d: %+v", prompt, rep)
		}
	}
}

func TestEngineRejectsOversized(t *testing.T) {
	// A request that fits the context window but not the KV pool can
	// never be admitted: the engine must surface the stuck head-of-queue
	// instead of spinning idle. 8x2 GiB modules leave ~2.5 GiB of pool
	// after the 7B weights — under static T_max reservation (~16 GiB per
	// request at the 32K window) nothing fits.
	cfg := engineConfig(t, Technique{}) // static T_max reservation
	cfg.Dev = cfg.Dev.WithCapacity(2 << 30)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	big := workload.Request{ID: 9, Context: 8192, Decode: 4}
	if err := e.Enqueue(big); err != nil {
		t.Fatal(err)
	}
	if _, err := refStep(context.Background(), e); err == nil {
		t.Error("un-admittable head of queue should error")
	}
	if _, err := e.Leap(context.Background(), math.Inf(1), math.Inf(1)); err == nil {
		t.Error("un-admittable head of queue should error from Leap")
	}
}

// TestEngineKVBudgetCapsPool: Config.KVBudgetBytes caps the serving
// pool below the physical capacity left after weights.
func TestEngineKVBudgetCapsPool(t *testing.T) {
	cfg := engineConfig(t, PIMphony())
	cfg.KVBudgetBytes = 1 << 30
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if got := e.KVPoolBytes(); got != 1<<30 {
		t.Fatalf("pool %d, want the 1 GiB budget", got)
	}
	cfg.KVBudgetBytes = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative KV budget should fail validation")
	}
}

// TestEnginePreemptsUnderDPAExhaustion builds the failure mode static
// allocation over-reserves to avoid: two DPA requests admitted into a
// pool with room for their prompts but not their combined growth. The
// engine must evict the youngest back to the queue (freeing its
// chunks), let the older one finish, then re-admit the victim — paying
// a KV recompute — and still serve every token exactly once.
func TestEnginePreemptsUnderDPAExhaustion(t *testing.T) {
	cfg := engineConfig(t, PIMphony()) // DPA on
	// LLM-7B KV is 0.5 MiB/token -> 2 tokens per 1 MiB chunk. 4100
	// chunks hold two 4096-token prompts (2048 chunks each) with only 4
	// chunks of slack — each request wants 4 more chunks of growth.
	cfg.KVBudgetBytes = 4100 << 20
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	a := workload.Request{ID: 1, Context: 4096, Decode: 8}
	b := workload.Request{ID: 2, Context: 4096, Decode: 8}
	for _, r := range []workload.Request{a, b} {
		if err := e.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	var done []workload.Request
	var preempted []workload.Request
	tokens := map[int]int{}
	for i := 0; !e.Idle(); i++ {
		if i > 10_000 {
			t.Fatal("engine did not drain")
		}
		res, err := refStep(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, res.Completed...)
		preempted = append(preempted, res.Preempted...)
		for _, id := range res.Generated {
			tokens[id]++
		}
		// Invariant: the allocator never reserves past the budget and
		// live never exceeds reserved.
		al := e.pool
		if al.ReservedBytes() > al.CapacityBytes() {
			t.Fatalf("step %d: reserved %d past capacity %d", i, al.ReservedBytes(), al.CapacityBytes())
		}
		if al.LiveBytes() > al.ReservedBytes() {
			t.Fatalf("step %d: live %d > reserved %d", i, al.LiveBytes(), al.ReservedBytes())
		}
	}
	if e.Preemptions() == 0 || len(preempted) == 0 {
		t.Fatal("expected at least one preemption in the exhaustion scenario")
	}
	if preempted[0].ID != b.ID {
		t.Errorf("victim was %d, want the youngest (%d)", preempted[0].ID, b.ID)
	}
	if len(done) != 2 {
		t.Fatalf("completed %d of 2 requests", len(done))
	}
	// The older request finishes first; the victim re-admits after.
	if done[0].ID != a.ID || done[1].ID != b.ID {
		t.Errorf("completion order %v, want [1 2]", []int{done[0].ID, done[1].ID})
	}
	// Every decode token emitted exactly once — eviction keeps progress,
	// recompute rebuilds KV, not tokens.
	if tokens[a.ID] != a.Decode || tokens[b.ID] != b.Decode {
		t.Errorf("token counts %v, want 8 each", tokens)
	}
	if e.RecomputeSeconds() <= 0 {
		t.Error("re-admission should have charged KV recompute time")
	}
	if e.MaxActive() != 2 {
		t.Errorf("max active %d, want 2", e.MaxActive())
	}
	// Reserve/release accounting under preemption: the drained pool is
	// empty.
	if r := e.pool.ReservedBytes(); r != 0 {
		t.Errorf("reserved %d bytes after drain", r)
	}
	if l := e.pool.LiveBytes(); l != 0 {
		t.Errorf("live %d bytes after drain", l)
	}
}

// TestEngineStaticNeverPreempts: the same exhaustion-shaped workload
// under static allocation cannot over-admit — T_max reservation blocks
// the second request at admission instead, so it queues (blocked time
// accrues) and no preemption ever happens.
func TestEngineStaticNeverPreempts(t *testing.T) {
	cfg := engineConfig(t, Technique{TCP: true, DCS: true}) // DPA off
	cfg.TMaxOverride = 8192                                 // 4 GiB static reservation per request
	cfg.KVBudgetBytes = 4100 << 20                          // room for exactly one
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 2; id++ {
		if err := e.Enqueue(workload.Request{ID: id, Context: 4096, Decode: 8}); err != nil {
			t.Fatal(err)
		}
	}
	done := drain(t, e)
	if len(done) != 2 {
		t.Fatalf("completed %d of 2", len(done))
	}
	if e.Preemptions() != 0 {
		t.Errorf("static allocation preempted %d times", e.Preemptions())
	}
	if e.MaxActive() != 1 {
		t.Errorf("max active %d, want 1 (one T_max reservation fits)", e.MaxActive())
	}
	if e.BlockedSeconds() <= 0 {
		t.Error("the queued request should have accrued admission-blocked time")
	}
	if e.PeakReservedBytes() <= e.PeakLiveBytes() {
		t.Errorf("static peak reserved %d should exceed peak live %d",
			e.PeakReservedBytes(), e.PeakLiveBytes())
	}
}
