package cluster

import (
	"context"
	"math"
	"strings"
	"testing"

	"pimphony/internal/model"
	"pimphony/internal/workload"
	"pimphony/internal/xpu"
)

// refGPURun reimplements the pre-refactor dedicated GPU path (runGPU)
// verbatim as an oracle: greedy skip-unfit admission against the
// paged-attention-derated pool with upfront context+window reservations
// and per-step roofline pricing.
// The backend refactor must reproduce its Batch, TotalSeconds and
// Throughput bit for bit.
func refGPURun(cfg Config, reqs []workload.Request) (batch int, totalSec, throughput float64, ok bool) {
	g := xpu.A100()
	m := cfg.Model
	capacity := int64(cfg.GPUs) * g.MemBytes
	w := m.WeightBytes()
	if w >= capacity {
		return 0, 0, 0, false
	}
	pool := capacity - w
	if b := cfg.KVBudgetBytes; b > 0 && b < pool {
		pool = b
	}
	pool = int64(float64(pool) * g.PagedAttentionEff)
	var admitted []workload.Request
	var kvBytes int64
	for _, r := range reqs {
		need := m.KVBytes(r.Context + cfg.DecodeWindow)
		if kvBytes+need > pool {
			continue
		}
		kvBytes += need
		admitted = append(admitted, r)
	}
	if len(admitted) == 0 {
		return 0, 0, 0, false
	}
	fcFlopsPerReq := m.FCFlopsPerToken()
	weightBytes := m.WeightBytes()
	grown := 0
	for step := 0; step < cfg.DecodeWindow; step++ {
		var kv int64
		for _, r := range admitted {
			kv += m.KVBytes(r.Context + grown)
		}
		fc := g.OpTime(int64(len(admitted))*fcFlopsPerReq/int64(cfg.GPUs), weightBytes/int64(cfg.GPUs))
		attn := g.AttentionTime(kv / int64(cfg.GPUs))
		totalSec += fc + attn
		grown++
	}
	return len(admitted), totalSec, float64(len(admitted)*cfg.DecodeWindow) / totalSec, true
}

// gpuCase runs both paths and requires bit-exact agreement.
func gpuCase(t *testing.T, name string, cfg Config, reqs []workload.Request) *Report {
	t.Helper()
	wantBatch, wantSec, wantTput, ok := refGPURun(cfg, reqs)
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep, err := sys.RunCtx(context.Background(), reqs)
	if !ok {
		if err == nil {
			t.Fatalf("%s: oracle admits nothing but refactored path returned %+v", name, rep)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rep.Batch != wantBatch {
		t.Errorf("%s: batch %d, oracle %d", name, rep.Batch, wantBatch)
	}
	if rep.TotalSeconds != wantSec {
		t.Errorf("%s: total %v, oracle %v (diff %g)", name, rep.TotalSeconds, wantSec, rep.TotalSeconds-wantSec)
	}
	if rep.Throughput != wantTput {
		t.Errorf("%s: throughput %v, oracle %v", name, rep.Throughput, wantTput)
	}
	if rep.Steps != cfg.DecodeWindow {
		t.Errorf("%s: steps %d, want %d", name, rep.Steps, cfg.DecodeWindow)
	}
	return rep
}

// TestGPUByteIdenticalAcrossRefactor pins the GPU-baseline edge cases of
// the backend extraction: an overflowing pool whose unfit requests are
// skipped (not queue-blocking), and the PagedAttentionEff capacity
// derate — all bit-exact against the pre-refactor math. The oracle
// reserves each request's context+window upfront, while the engine
// drain admits lazily at the live context and grows per token; on these
// cases the two admit the same batch and no growth preempts, so they
// agree.
func TestGPUByteIdenticalAcrossRefactor(t *testing.T) {
	m7 := model.LLM7B32K()
	m72 := model.LLM72B32K()
	qmsum := qmsumBatch(64)

	// Pool overflow with skip-unfit packing: on 8 GPUs the 72B model's
	// per-request KV (tens of GiB at QMSum contexts) overflows the pool,
	// so the admitted batch is a strict, non-prefix subset of the queue.
	cfg := Config{Name: "gpu-72b", Backend: GPUSystem, Model: m72, GPUs: 8, DecodeWindow: 4}
	rep := gpuCase(t, "overflow", cfg, qmsum)
	if rep != nil && (rep.Batch == 0 || rep.Batch == len(qmsum)) {
		t.Errorf("overflow case should admit a strict subset, got %d of %d", rep.Batch, len(qmsum))
	}

	// The PagedAttentionEff derate decides admission at the boundary: a
	// KV budget sized so one request fits only at the full (underated)
	// budget must reject it at 0.9x. CapacityUtil must keep reporting
	// the derate itself.
	one := []workload.Request{{ID: 1, Context: 10000, Decode: 4}}
	need := m7.KVBytes(one[0].Context + 4)
	cfgTight := Config{Name: "gpu-derate", Backend: GPUSystem, Model: m7, GPUs: 2, DecodeWindow: 4,
		KVBudgetBytes: need + 1} // fits undated, not after *0.9
	if _, err := New(cfgTight); err != nil {
		t.Fatal(err)
	}
	gpuCase(t, "derate-reject", cfgTight, one) // oracle and refactored path both reject
	cfgLoose := cfgTight
	cfgLoose.Name = "gpu-derate-fit"
	cfgLoose.KVBudgetBytes = int64(math.Ceil(float64(need)/xpu.A100().PagedAttentionEff)) + 1
	repFit := gpuCase(t, "derate-fit", cfgLoose, one)
	if repFit == nil || repFit.Batch != 1 {
		t.Fatalf("request should fit once the budget covers the derate: %+v", repFit)
	}
	if repFit.CapacityUtil != xpu.A100().PagedAttentionEff {
		t.Errorf("CapacityUtil %v, want the paged-attention efficiency", repFit.CapacityUtil)
	}
}

// TestGPUNoRequestFits: an empty admissible set must error out of the
// unified admission path, like the dedicated path did.
func TestGPUNoRequestFits(t *testing.T) {
	m := model.LLM7B32K()
	cfg := Config{Name: "gpu-nofit", Backend: GPUSystem, Model: m, GPUs: 2, DecodeWindow: 4,
		KVBudgetBytes: 1 << 20}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.RunCtx(context.Background(), qmsumBatch(8))
	if err == nil || !strings.Contains(err.Error(), "no request fits") {
		t.Fatalf("want a no-request-fits error, got %v", err)
	}
}

// TestGPUThroughputUnchangedBaseline pins the headline Fig. 20 GPU
// numbers (7B on 2 GPUs) against the oracle on the standard preset
// shape, so a pricing regression cannot hide behind the admission path.
func TestGPUThroughputUnchangedBaseline(t *testing.T) {
	cfg := Config{Name: "a100x2", Backend: GPUSystem, Model: model.LLM7B32K(), GPUs: 2, DecodeWindow: 4}
	rep := gpuCase(t, "fig20-7b", cfg, qmsumBatch(48))
	if rep == nil || rep.Throughput <= 0 {
		t.Fatalf("GPU baseline produced %+v", rep)
	}
	// The refactor newly reports TBT for GPU systems (one decode
	// iteration); it must be consistent with the totals.
	if rep.TBTSeconds <= 0 || math.Abs(rep.TBTSeconds*float64(rep.Steps)-rep.TotalSeconds) > 1e-12 {
		t.Errorf("TBT %v inconsistent with total %v over %d steps", rep.TBTSeconds, rep.TotalSeconds, rep.Steps)
	}
}
