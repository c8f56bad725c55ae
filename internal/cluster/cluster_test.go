package cluster

import (
	"context"
	"strings"
	"testing"

	"pimphony/internal/backend"
	"pimphony/internal/model"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// centConfig is a CENT-like PIM-only system: 8 modules x 16 GiB for the 7B
// models (Table IV / Sec. VIII-A), 32 channels per module.
func centConfig(m model.Config, tech Technique) Config {
	dev := timing.AiM16().WithChannels(32).WithCapacity(16 << 30)
	return Config{
		Name:         "cent-7b",
		Backend:      PIMOnly,
		Dev:          dev,
		Modules:      8,
		TP:           8,
		PP:           1,
		Model:        m,
		Tech:         tech,
		DecodeWindow: 4,
	}
}

func neuPIMsConfig(m model.Config, tech Technique) Config {
	dev := timing.AiM16().WithChannels(32).WithCapacity(32 << 30)
	return Config{
		Name:         "neupims-7b",
		Backend:      XPUPIM,
		Dev:          dev,
		Modules:      4,
		TP:           4,
		PP:           1,
		Model:        m,
		Tech:         tech,
		DecodeWindow: 4,
	}
}

func qmsumBatch(n int) []workload.Request {
	return workload.NewGenerator(workload.QMSum(), 11).Batch(n)
}

func runOrFatal(t *testing.T, cfg Config, reqs []workload.Request) *Report {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestIncrementalTechniqueOrdering is the headline Fig. 13 shape: each
// added technique must not reduce throughput, and the full stack must be
// substantially faster than the baseline. A uniform-context workload
// isolates the techniques from batch-composition sampling effects (with a
// skewed trace, a bigger DPA batch can simply contain longer requests).
func TestIncrementalTechniqueOrdering(t *testing.T) {
	m := model.LLM7B32K()
	reqs := workload.Uniform(14000, 1).Batch(64)
	steps := []Technique{
		{},
		{TCP: true},
		{TCP: true, DCS: true},
		{TCP: true, DCS: true, DPA: true},
	}
	var prev float64
	var tps []float64
	for _, tech := range steps {
		rep := runOrFatal(t, centConfig(m, tech), reqs)
		if rep.Throughput < prev*0.98 { // allow sub-1% modelling noise
			t.Errorf("technique %+v reduced throughput: %.0f -> %.0f tok/s", tech, prev, rep.Throughput)
		}
		prev = rep.Throughput
		tps = append(tps, rep.Throughput)
	}
	speedup := tps[3] / tps[0]
	t.Logf("CENT LLM-7B-32K uniform-14K: base=%.0f +TCP=%.0f +DCS=%.0f +DPA=%.0f tok/s (%.1fx)",
		tps[0], tps[1], tps[2], tps[3], speedup)
	if speedup < 1.5 {
		t.Errorf("full PIMphony speedup %.2fx is below the paper's 2.1x-4.5x band floor", speedup)
	}
	// The QMSum trace must land in the paper's reported band as well.
	base := runOrFatal(t, centConfig(m, Baseline()), qmsumBatch(64))
	full := runOrFatal(t, centConfig(m, PIMphony()), qmsumBatch(64))
	t.Logf("CENT LLM-7B-32K QMSum: base=%.0f full=%.0f tok/s (%.1fx)",
		base.Throughput, full.Throughput, full.Throughput/base.Throughput)
	if full.Throughput/base.Throughput < 1.5 {
		t.Errorf("QMSum speedup %.2fx below band floor", full.Throughput/base.Throughput)
	}
}

func TestDPAIncreasesBatch(t *testing.T) {
	m := model.LLM7B32K()
	reqs := qmsumBatch(64)
	noDPA := runOrFatal(t, centConfig(m, Technique{TCP: true, DCS: true}), reqs)
	withDPA := runOrFatal(t, centConfig(m, PIMphony()), reqs)
	if withDPA.Batch <= noDPA.Batch {
		t.Errorf("DPA should raise the effective batch: %d vs %d", withDPA.Batch, noDPA.Batch)
	}
	if withDPA.CapacityUtil <= noDPA.CapacityUtil {
		t.Errorf("DPA should raise capacity utilization: %.2f vs %.2f",
			withDPA.CapacityUtil, noDPA.CapacityUtil)
	}
	t.Logf("batch %d -> %d, capacity util %.1f%% -> %.1f%%",
		noDPA.Batch, withDPA.Batch, 100*noDPA.CapacityUtil, 100*withDPA.CapacityUtil)
}

func TestPIMUtilizationImproves(t *testing.T) {
	m := model.LLM7B32K()
	reqs := qmsumBatch(64)
	base := runOrFatal(t, centConfig(m, Baseline()), reqs)
	full := runOrFatal(t, centConfig(m, PIMphony()), reqs)
	if full.PIMUtil <= base.PIMUtil {
		t.Errorf("PIMphony should raise PIM utilization: %.3f vs %.3f", full.PIMUtil, base.PIMUtil)
	}
	t.Logf("PIM util %.1f%% -> %.1f%%", 100*base.PIMUtil, 100*full.PIMUtil)
	if base.PIMUtil < 0 || base.PIMUtil > 1 || full.PIMUtil > 1 {
		t.Error("utilization out of [0,1]")
	}
}

func TestXPUPIMRuns(t *testing.T) {
	m := model.LLM7B32K()
	reqs := qmsumBatch(64)
	base := runOrFatal(t, neuPIMsConfig(m, Baseline()), reqs)
	full := runOrFatal(t, neuPIMsConfig(m, PIMphony()), reqs)
	if full.Throughput <= base.Throughput {
		t.Errorf("PIMphony on xPU+PIM should win: %.0f vs %.0f tok/s", full.Throughput, base.Throughput)
	}
	t.Logf("NeuPIMs 7B: %.0f -> %.0f tok/s (%.1fx)", base.Throughput, full.Throughput, full.Throughput/base.Throughput)
}

func TestPPBubblesWithSmallBatch(t *testing.T) {
	// Two long requests through an 8-stage pipeline: stage idling should
	// make PP slower than pure TP at the same module count.
	m := model.LLM7B32K()
	reqs := workload.NewGenerator(workload.QMSum(), 5).Batch(2)
	tp := centConfig(m, Baseline())
	pp := tp
	pp.TP, pp.PP = 1, 8
	repTP := runOrFatal(t, tp, reqs)
	repPP := runOrFatal(t, pp, reqs)
	if repPP.Throughput >= repTP.Throughput {
		t.Errorf("PP with batch 2 over 8 stages should bubble: PP %.0f vs TP %.0f tok/s",
			repPP.Throughput, repTP.Throughput)
	}
}

func TestGPUBaselineRuns(t *testing.T) {
	m := model.LLM7B32K()
	cfg := Config{
		Name:         "a100x2",
		Backend:      GPUSystem,
		Model:        m,
		GPUs:         2,
		DecodeWindow: 4,
	}
	rep := runOrFatal(t, cfg, qmsumBatch(64))
	if rep.Throughput <= 0 || rep.Batch <= 0 {
		t.Fatalf("GPU baseline produced %+v", rep)
	}
	// Memory-matched PIM system should beat the GPU on this non-GQA model
	// (Fig. 20a shape).
	pim := runOrFatal(t, centConfig(m, PIMphony()), qmsumBatch(64))
	if pim.Throughput <= rep.Throughput {
		t.Errorf("PIMphony (%.0f tok/s) should beat A100x2 (%.0f tok/s) on non-GQA", pim.Throughput, rep.Throughput)
	}
	t.Logf("GPU %.0f vs PIMphony %.0f tok/s", rep.Throughput, pim.Throughput)
}

func TestAttentionEnergyTracked(t *testing.T) {
	m := model.LLM7B32K()
	rep := runOrFatal(t, centConfig(m, Baseline()), qmsumBatch(32))
	if rep.AttnEnergy.Total() <= 0 || rep.FCEnergy.Total() <= 0 {
		t.Fatal("energy must be tracked")
	}
	base := rep.AttnEnergy.Background / rep.AttnEnergy.Total()
	if base <= 0 {
		t.Fatal("baseline background share must be positive")
	}
	full := runOrFatal(t, centConfig(m, PIMphony()), qmsumBatch(32))
	if share := full.AttnEnergy.Background / full.AttnEnergy.Total(); share >= base {
		t.Errorf("background share should collapse: %.2f -> %.2f", base, share)
	}
}

func TestConfigValidation(t *testing.T) {
	m := model.LLM7B32K()
	good := centConfig(m, Baseline())
	bad1 := good
	bad1.TP = 3 // 3*1 != 8
	if _, err := New(bad1); err == nil {
		t.Error("TP*PP != Modules should fail")
	}
	bad2 := good
	bad2.TP, bad2.PP, bad2.Modules = 48, 1, 48 // 48 neither divides nor is divided by 32 KV heads
	if _, err := New(bad2); err == nil {
		t.Error("non-dividing TP should fail")
	}
	good2 := good
	good2.TP, good2.PP, good2.Modules = 64, 1, 64 // token-sharded TP beyond KV heads
	if _, err := New(good2); err != nil {
		t.Errorf("TP beyond KV heads with even sharding should be legal: %v", err)
	}
	bad3 := good
	bad3.PP, bad3.TP = 3, 1
	bad3.Modules = 3 // 32 layers % 3 != 0
	if _, err := New(bad3); err == nil {
		t.Error("PP not dividing layers should fail")
	}
	bad4 := Config{Name: "gpu", Backend: GPUSystem, Model: m, GPUs: 0}
	if _, err := New(bad4); err == nil {
		t.Error("GPU system without GPUs should fail")
	}
	bad5 := good
	bad5.DecodeWindow = -3
	if _, err := New(bad5); err == nil || !strings.Contains(err.Error(), "DecodeWindow") {
		t.Errorf("a negative decode window should fail, naming the field: %v", err)
	}
}

func TestWeightsMustFit(t *testing.T) {
	m := model.LLM72B32K() // ~140 GiB weights
	cfg := centConfig(m, Baseline())
	cfg.TP = 8 // 8 modules x 16 GiB = 128 GiB < weights
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunCtx(context.Background(), qmsumBatch(8)); err == nil {
		t.Fatal("72B on 128 GiB should fail")
	}
}

func TestAttnShareGrowsWithContext(t *testing.T) {
	m := model.LLM7B128KGQA()
	cfg := centConfig(m, PIMphony())
	short := runOrFatal(t, cfg, workload.Uniform(4096, 1).Batch(16))
	long := runOrFatal(t, cfg, workload.Uniform(100000, 1).Batch(16))
	if long.AttnTimeShare <= short.AttnTimeShare {
		t.Errorf("attention share should grow with context: %.2f -> %.2f",
			short.AttnTimeShare, long.AttnTimeShare)
	}
}

func TestBackendNames(t *testing.T) {
	if PIMOnly != "pim-only" || XPUPIM != "xpu+pim" || GPUSystem != "gpu" || DIMMPIM != "dimm-pim" {
		t.Fatal("backend names changed")
	}
	// Every re-exported name must resolve through the registry, and the
	// empty name must default to the PIM-only backend.
	for _, name := range []string{PIMOnly, XPUPIM, GPUSystem, DIMMPIM, ""} {
		if _, err := backend.Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
}

// TestDIMMPIMAllKVPool: the DIMM-PIM backend hosts weights on its GPU,
// so the whole DIMM capacity serves KV — unlike the memory-matched
// AiM systems, whose pool shrinks by the resident weights.
func TestDIMMPIMAllKVPool(t *testing.T) {
	m := model.LLM7B32K()
	dev := timing.DDR5DIMM()
	cfg := Config{
		Name: "dimm-7b", Backend: DIMMPIM, Dev: dev,
		Modules: 8, TP: 8, PP: 1, Model: m, Tech: PIMphony(), DecodeWindow: 4,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.KVPoolBytes(), int64(8)*dev.ModuleBytes(); got != want {
		t.Fatalf("dimm pool %d, want the full capacity %d (weights hosted)", got, want)
	}
	rep, err := sys.RunCtx(context.Background(), qmsumBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 || rep.PIMUtil <= 0 || rep.Backend != DIMMPIM {
		t.Fatalf("dimm report %+v", rep)
	}
	// The host GPU FC keeps attention dominant; the all-KV pool admits
	// every candidate at these sizes.
	if rep.Batch != 16 {
		t.Errorf("dimm pool should admit all 16, got %d", rep.Batch)
	}
}
