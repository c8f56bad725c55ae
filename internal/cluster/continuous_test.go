package cluster

import (
	"testing"

	"pimphony/internal/model"
	"pimphony/internal/workload"
)

// shortDecode builds a request stream with short generation lengths, so
// continuous batching has completions to act on.
func shortDecode(n, context, decode int) []workload.Request {
	reqs := workload.Uniform(context, 3).Batch(n)
	for i := range reqs {
		reqs[i].Decode = decode
	}
	return reqs
}

// TestContinuousBatchingFreesChannelBudget: under head-first placement
// the channel budget must be returned on release, or refills would
// starve and the queue would stall behind a budget nobody holds. The
// pool holds more requests than the budget admits at once, so every
// request past the first batch admits on a refill.
func TestContinuousBatchingFreesChannelBudget(t *testing.T) {
	m := model.LLM7B128KGQA()
	cfg := centConfig(m, Technique{DPA: true}) // HFP placement + DPA alloc
	cfg.TMaxOverride = 40000
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	reqs := shortDecode(48, 30000, 2)
	for _, r := range reqs {
		if err := e.Enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	done := drain(t, e)
	if len(done) != len(reqs) {
		t.Fatalf("completed %d of %d requests", len(done), len(reqs))
	}
	if e.MaxActive() >= len(done) {
		t.Errorf("refills should serve more requests (%d) than one batch (%d)", len(done), e.MaxActive())
	}
	t.Logf("%d requests served, peak active %d", len(done), e.MaxActive())
	if e.Generated() != 2*len(reqs) {
		t.Errorf("generated %d tokens, want %d", e.Generated(), 2*len(reqs))
	}
}

func TestPrefillSeconds(t *testing.T) {
	m := model.LLM7B32K()
	cent, err := New(centConfig(m, PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	neu, err := New(neuPIMsConfig(m, PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	gpuCfg := Config{Name: "gpu", Backend: GPUSystem, Model: m, GPUs: 2, DecodeWindow: 2}
	gpu, err := New(gpuCfg)
	if err != nil {
		t.Fatal(err)
	}
	const ctx = 32768
	pc, pn, pg := cent.PrefillSeconds(ctx), neu.PrefillSeconds(ctx), gpu.PrefillSeconds(ctx)
	// Prefill is compute bound: the 3-TFLOPS PNM must be far slower than
	// the 256-TFLOPS NPU and the GPU (the Hybe motivation).
	if !(pc > pn && pc > pg) {
		t.Errorf("PIM-only prefill (%.3fs) should be slowest (npu %.3fs, gpu %.3fs)", pc, pn, pg)
	}
	// Quadratic attention term: 4x context should cost more than 4x time.
	if r := cent.PrefillSeconds(4*ctx) / pc; r < 4 {
		t.Errorf("prefill should grow superlinearly with context, got %.1fx for 4x", r)
	}
	if pc <= 0 || pn <= 0 || pg <= 0 {
		t.Error("prefill times must be positive")
	}
}
