package core

import (
	"context"
	"testing"

	"pimphony/internal/backend"
	"pimphony/internal/cluster"
	"pimphony/internal/model"
	"pimphony/internal/workload"
)

// TestSweepMatchesSequentialServe runs a technique grid through Sweep
// and pins the reports to what per-config NewSystem+Serve produces, in
// input order; a broken config must surface its own error.
func TestSweepMatchesSequentialServe(t *testing.T) {
	m := model.LLM7B32K()
	reqs := workload.NewGenerator(workload.QMSum(), 11).Batch(16)
	cfgs := []Config{CENT(m, Baseline()), CENT(m, PIMphony()), NeuPIMs(m, PIMphony())}
	got, err := Sweep(context.Background(), cfgs, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Serve(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Throughput != want.Throughput || got[i].Batch != want.Batch {
			t.Errorf("config %d (%s): swept (%.3f tok/s, batch %d) != sequential (%.3f, %d)",
				i, cfg.Name, got[i].Throughput, got[i].Batch, want.Throughput, want.Batch)
		}
	}
	bad := CENT(m, Baseline())
	bad.TP, bad.PP = 3, 1 // 3*1 != 8 modules
	if _, err := Sweep(context.Background(), []Config{cfgs[0], bad}, reqs); err == nil {
		t.Error("invalid config in the grid should fail the sweep")
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, m := range model.All() {
		for _, cfg := range []Config{CENT(m, Baseline()), NeuPIMs(m, PIMphony()), GPU(m)} {
			if _, err := cluster.New(cfg); err != nil {
				t.Errorf("%s: %v", cfg.Name, err)
			}
		}
	}
}

func TestOptimalParallelism(t *testing.T) {
	cases := []struct {
		m       model.Config
		modules int
		tp, pp  int
	}{
		{model.LLM7B32K(), 8, 8, 1},       // KV heads 32 >= 8 modules
		{model.LLM7B128KGQA(), 8, 8, 1},   // KV heads 8
		{model.LLM72B32K(), 32, 32, 1},    // KV heads 64
		{model.LLM72B128KGQA(), 32, 8, 4}, // KV heads 8 -> TP8 x PP4 (CENT)
		{model.LLM72B128KGQA(), 16, 8, 2},
	}
	for _, c := range cases {
		tp, pp := optimalParallelism(c.m, c.modules)
		if tp != c.tp || pp != c.pp {
			t.Errorf("%s x%d: got TP%d/PP%d, want TP%d/PP%d", c.m.Name, c.modules, tp, pp, c.tp, c.pp)
		}
		if tp*pp != c.modules {
			t.Errorf("%s x%d: TP*PP != modules", c.m.Name, c.modules)
		}
	}
}

// TestNewSystemCostsNoMoreThanCluster guards NewSystem's cost: for every
// evaluated preset it allocates at most one object beyond the
// cluster.New inside it, so building a system compiles nothing.
func TestNewSystemCostsNoMoreThanCluster(t *testing.T) {
	for _, cfg := range []Config{
		CENT(model.LLM7B32K(), PIMphony()),
		CENT(model.LLM72B128KGQA(), PIMphony()),
		NeuPIMs(model.LLM7B32K(), PIMphony()),
		GPU(model.LLM7B32K()),
		DIMMPIM(model.LLM7B32K(), PIMphony()),
	} {
		if _, err := NewSystem(cfg); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		sim := testing.AllocsPerRun(10, func() { _, _ = cluster.New(cfg) })
		sys := testing.AllocsPerRun(10, func() { _, _ = NewSystem(cfg) })
		if sys > sim+1 {
			t.Errorf("%s: NewSystem makes %v allocations, cluster.New %v; want at most one more", cfg.Name, sys, sim)
		}
	}
}

func TestServeEndToEnd(t *testing.T) {
	sys, err := NewSystem(CENT(model.LLM7B32K(), PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.NewGenerator(workload.QMSum(), 3).Batch(32)
	rep, err := sys.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 || rep.Batch <= 0 {
		t.Fatalf("bad report: %+v", rep)
	}
	// Serving again must not trip duplicate registration.
	if _, err := sys.Serve(reqs); err != nil {
		t.Fatalf("second Serve failed: %v", err)
	}
}

func TestInstructionFootprintSwitches(t *testing.T) {
	m := model.LLM7B128KGQA()
	withDPA, err := NewSystem(CENT(m, PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	noDPA, err := NewSystem(CENT(m, Technique{TCP: true, DCS: true}))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := withDPA.InstructionFootprint()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := noDPA.InstructionFootprint()
	if err != nil {
		t.Fatal(err)
	}
	if fd >= fs {
		t.Errorf("DPA footprint (%d B) should be far below static (%d B)", fd, fs)
	}
	gpu, err := NewSystem(GPU(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpu.InstructionFootprint(); err == nil {
		t.Error("GPU system has no PIM programs; footprint should error")
	}
}

func TestIncrementalStudyMonotone(t *testing.T) {
	reqs := workload.Uniform(14000, 1).Batch(48)
	stages, err := IncrementalStudy(CENT(model.LLM7B32K(), Baseline()), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 4 {
		t.Fatalf("stages = %d, want 4", len(stages))
	}
	var prev float64
	for _, st := range stages {
		if st.Report == nil {
			t.Fatalf("stage %s has no report", st.Stage)
		}
		if st.Report.Throughput < prev*0.98 {
			t.Errorf("stage %s regressed: %.0f -> %.0f tok/s", st.Stage, prev, st.Report.Throughput)
		}
		prev = st.Report.Throughput
	}
	if s := stages[3].Report.Throughput / stages[0].Report.Throughput; s < 1.5 {
		t.Errorf("full-stack speedup %.2fx below expectation", s)
	}
}

func TestGPUSystemServe(t *testing.T) {
	sys, err := NewSystem(GPU(model.LLM7B32K()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Serve(workload.NewGenerator(workload.QMSum(), 3).Batch(32))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != cluster.GPUSystem || rep.Throughput <= 0 {
		t.Fatalf("bad GPU report: %+v", rep)
	}
}

// TestPresetsCoverRegistry: every registered backend must have a preset
// (the CLIs resolve -system through this pairing), presets must build
// valid systems, and aliases must resolve case-insensitively.
func TestPresetsCoverRegistry(t *testing.T) {
	presets := Presets()
	if len(presets) != len(backend.Names()) {
		t.Fatalf("%d presets for %d registered backends", len(presets), len(backend.Names()))
	}
	m := model.LLM7B32K()
	for i, name := range backend.Names() {
		if presets[i].Backend != name {
			t.Errorf("preset %d is %q, want registry order %q", i, presets[i].Backend, name)
		}
		cfg := presets[i].Make(m, PIMphony())
		if cfg.Backend != name {
			t.Errorf("preset %q built a %q config", name, cfg.Backend)
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		rep, err := sys.Serve(workload.NewGenerator(workload.QMSum(), 3).Batch(8))
		if err != nil {
			t.Fatalf("preset %q serve: %v", name, err)
		}
		if rep.Throughput <= 0 || rep.Backend != name {
			t.Errorf("preset %q report %+v", name, rep)
		}
	}
	for flagName, want := range map[string]string{
		"cent": cluster.PIMOnly, "NeuPIMs": cluster.XPUPIM, "a100": cluster.GPUSystem,
		"gpu": cluster.GPUSystem, "l3": cluster.DIMMPIM, "dimm-pim": cluster.DIMMPIM,
	} {
		p, err := PresetByFlag(flagName)
		if err != nil {
			t.Errorf("PresetByFlag(%q): %v", flagName, err)
			continue
		}
		if p.Backend != want {
			t.Errorf("PresetByFlag(%q) = %q, want %q", flagName, p.Backend, want)
		}
	}
	if _, err := PresetByFlag("vax"); err == nil {
		t.Error("unknown system flag should error")
	}
}

// TestDIMMPIMSystem: the fourth backend end to end through the facade —
// an instruction footprint (DIMM attention is PIM attention, so the
// model compiles to PIM programs), an all-KV pool larger than the
// memory-matched AiM systems, and a working serving engine.
func TestDIMMPIMSystem(t *testing.T) {
	m := model.LLM7B32K()
	sys, err := NewSystem(DIMMPIM(m, PIMphony()))
	if err != nil {
		t.Fatal(err)
	}
	if fp, err := sys.InstructionFootprint(); err != nil || fp <= 0 {
		t.Fatalf("dimm-pim must compile PIM programs: footprint %d, %v", fp, err)
	}
	rep, err := sys.Serve(workload.NewGenerator(workload.QMSum(), 9).Batch(16))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != cluster.DIMMPIM || rep.Throughput <= 0 || rep.PIMUtil <= 0 {
		t.Fatalf("dimm-pim report %+v", rep)
	}
	if rep.AttnEnergy.Total() <= 0 {
		t.Error("dimm attention energy must accrue")
	}
	if rep.FCEnergy.Total() != 0 {
		t.Error("dimm FC energy is host-side and outside the module model")
	}
}

// TestGPUEngineThroughCore: the GPU baseline now builds a serving
// engine through the facade (the refactor's Engine-support dividend).
func TestGPUEngineThroughCore(t *testing.T) {
	sys, err := cluster.New(GPU(model.LLM7B32K()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Enqueue(workload.Request{ID: 1, Context: 4096, Decode: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; !e.Idle(); i++ {
		if i > 100 {
			t.Fatal("engine did not drain")
		}
		if _, err := e.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if e.Generated() != 3 {
		t.Errorf("generated %d, want 3", e.Generated())
	}
}
