// Package core is PIMphony's public orchestration API: it puts the
// multi-node cluster simulator and, for instruction footprints, the
// compiler (kernel detection and PIM program lowering) behind one
// facade, and provides the paper's evaluated system presets (CENT-style
// PIM-only, NeuPIMs-style xPU+PIM, the A100 GPU baseline and an
// L3/LoL-PIM-style DIMM-PIM system), each resolved through the
// internal/backend registry.
//
// Typical use:
//
//	cfg := core.CENT(model.LLM7B32K(), core.PIMphony())
//	sys, err := core.NewSystem(cfg)
//	rep, err := sys.Serve(workload.NewGenerator(workload.QMSum(), 1).Batch(64))
//
// The incremental study helper reproduces the +TCP/+DCS/+DPA bars of the
// paper's Fig. 13/14.
package core

import (
	"context"
	"fmt"
	"strings"

	"pimphony/internal/backend"
	"pimphony/internal/cluster"
	"pimphony/internal/compiler"
	"pimphony/internal/model"
	"pimphony/internal/sweep"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// Technique re-exports the cluster toggles.
type Technique = cluster.Technique

// Baseline returns the all-off technique set (the prior-work PIM stack).
func Baseline() Technique { return cluster.Baseline() }

// PIMphony returns the full technique set (TCP + DCS + DPA).
func PIMphony() Technique { return cluster.PIMphony() }

// Report re-exports the cluster report.
type Report = cluster.Report

// Config is a fully specified system to simulate.
type Config = cluster.Config

// optimalParallelism picks the paper's "optimal TP/PP" default: maximise
// tensor parallelism up to the KV-head count, pipeline the rest.
func optimalParallelism(m model.Config, modules int) (tp, pp int) {
	tp = m.KVHeads()
	if tp > modules {
		tp = modules
	}
	for modules%tp != 0 {
		tp--
	}
	pp = modules / tp
	for pp > 1 && m.Layers%pp != 0 {
		tp, pp = tp*pp, 1 // fall back to pure TP if layers do not divide
	}
	return tp, pp
}

// CENT returns the PIM-only preset: 16 GiB modules with 32 PIM channels;
// 8 modules (128 GiB) for 7B-class models, 32 modules (512 GiB) for
// 72B-class models.
func CENT(m model.Config, tech Technique) Config {
	modules := 8
	if m.DIn > 4096 {
		modules = 32
	}
	dev := timing.AiM16().WithChannels(32).WithCapacity(16 << 30)
	tp, pp := optimalParallelism(m, modules)
	return Config{
		Name:         fmt.Sprintf("cent-%s", m.Name),
		Backend:      cluster.PIMOnly,
		Dev:          dev,
		Modules:      modules,
		TP:           tp,
		PP:           pp,
		Model:        m,
		Tech:         tech,
		RowReuse:     m.IsGQA(),
		DecodeWindow: 4,
	}
}

// NeuPIMs returns the xPU+PIM preset: 32 GiB modules with an NPU; 4
// modules (128 GiB) for 7B-class models, 16 modules (512 GiB) for
// 72B-class models. NeuPIMs scales through tensor parallelism only,
// sharding the token axis across module groups once TP exceeds the KV-head
// count (the stability the paper notes in Fig. 17).
func NeuPIMs(m model.Config, tech Technique) Config {
	modules := 4
	if m.DIn > 4096 {
		modules = 16
	}
	dev := timing.AiM16().WithChannels(32).WithCapacity(32 << 30)
	tp, pp := modules, 1
	return Config{
		Name:         fmt.Sprintf("neupims-%s", m.Name),
		Backend:      cluster.XPUPIM,
		Dev:          dev,
		Modules:      modules,
		TP:           tp,
		PP:           pp,
		Model:        m,
		Tech:         tech,
		RowReuse:     m.IsGQA(),
		DecodeWindow: 4,
	}
}

// GPU returns the A100 baseline of Fig. 20: GPU memory matched to the PIM
// system (two A100-80GB for 7B models, eight for 72B).
func GPU(m model.Config) Config {
	gpus := 2
	if m.DIn > 4096 {
		gpus = 8
	}
	return Config{
		Name:         fmt.Sprintf("a100x%d-%s", gpus, m.Name),
		Backend:      cluster.GPUSystem,
		Model:        m,
		GPUs:         gpus,
		DecodeWindow: 4,
	}
}

// DIMMPIM returns the L3/LoL-PIM-style DIMM-PIM preset: 64 GiB DDR5
// DIMMs whose rank-level PIM units run attention while a host GPU runs
// the FC projections out of its own HBM, so every DIMM byte serves KV
// cache. 8 DIMMs (512 GiB of KV) for 7B-class models, 16 DIMMs (1 TiB)
// for 72B-class — the capacity-first scale-out these systems trade on.
func DIMMPIM(m model.Config, tech Technique) Config {
	modules := 8
	if m.DIn > 4096 {
		modules = 16
	}
	dev := timing.DDR5DIMM()
	tp, pp := optimalParallelism(m, modules)
	return Config{
		Name:         fmt.Sprintf("dimmpim-%s", m.Name),
		Backend:      cluster.DIMMPIM,
		Dev:          dev,
		Modules:      modules,
		TP:           tp,
		PP:           pp,
		Model:        m,
		Tech:         tech,
		RowReuse:     m.IsGQA(),
		DecodeWindow: 4,
	}
}

// Preset pairs a registered backend with its paper-evaluated
// configuration builder and the CLI shorthands that select it.
type Preset struct {
	// Backend is the registry name (backend.Names() entry).
	Backend string
	// Aliases are accepted CLI spellings besides the backend name.
	Aliases []string
	// Make builds the evaluated configuration for a model. Technique
	// toggles are ignored by backends without PIM attention (the GPU).
	Make func(m model.Config, tech Technique) Config
}

// Presets returns the evaluated configuration builder for every
// registered backend, in registry (sorted-name) order.
func Presets() []Preset {
	byName := map[string]Preset{
		cluster.PIMOnly: {Backend: cluster.PIMOnly, Aliases: []string{"cent"}, Make: CENT},
		cluster.XPUPIM:  {Backend: cluster.XPUPIM, Aliases: []string{"neupims"}, Make: NeuPIMs},
		cluster.GPUSystem: {Backend: cluster.GPUSystem, Aliases: []string{"a100"},
			Make: func(m model.Config, _ Technique) Config { return GPU(m) }},
		cluster.DIMMPIM: {Backend: cluster.DIMMPIM, Aliases: []string{"l3", "lolpim"}, Make: DIMMPIM},
	}
	var out []Preset
	for _, name := range backend.Names() {
		if p, ok := byName[name]; ok {
			out = append(out, p)
		}
	}
	return out
}

// PresetByFlag resolves a CLI -system value — a backend registry name or
// one of its aliases, case-insensitive — through the backend registry.
func PresetByFlag(name string) (Preset, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	var known []string
	for _, p := range Presets() {
		if want == p.Backend {
			return p, nil
		}
		known = append(known, p.Backend)
		for _, a := range p.Aliases {
			if want == a {
				return p, nil
			}
			known = append(known, a)
		}
	}
	return Preset{}, fmt.Errorf("unknown system %q (known: %s)", name, strings.Join(known, ", "))
}

// System is the orchestrator facade over the cluster simulator.
type System struct {
	cfg Config
	sim *cluster.System
}

// NewSystem prepares the simulator for a configuration.
func NewSystem(cfg Config) (*System, error) {
	sim, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, sim: sim}, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// InstructionFootprint compiles the model for this system's target and
// reports the per-layer attention instruction bytes: the DPA encoding
// when DPA is enabled, otherwise the static unrolling at the model's
// context window. Backends without PIM attention (the GPU baseline)
// have no PIM programs and return an error.
func (s *System) InstructionFootprint() (int64, error) {
	if !s.sim.Backend().PIMAttention() {
		return 0, fmt.Errorf("core: %s has no PIM programs", s.cfg.Name)
	}
	comp, err := compiler.Compile(s.cfg.Model, compiler.Target{Dev: s.cfg.Dev, TCP: s.cfg.Tech.TCP})
	if err != nil {
		return 0, fmt.Errorf("core: compiling %s: %w", s.cfg.Model.Name, err)
	}
	if s.cfg.Tech.DPA {
		return comp.DPAFootprint(), nil
	}
	tmax := s.cfg.TMaxOverride
	if tmax == 0 {
		tmax = s.cfg.Model.ContextWindow
	}
	return comp.StaticFootprint(tmax)
}

// Serve simulates a decode window over the candidate requests.
func (s *System) Serve(reqs []workload.Request) (*Report, error) {
	return s.ServeCtx(context.Background(), reqs)
}

// ServeCtx is Serve with cancellation: the decode loop aborts between
// iterations once ctx is done, so grid sweeps can stop in-flight
// simulations when a sibling point fails.
func (s *System) ServeCtx(ctx context.Context, reqs []workload.Request) (*Report, error) {
	return s.sim.RunCtx(ctx, reqs)
}

// Sweep builds one System per configuration and serves each against the
// shared candidate pool, fanning the independent simulations through the
// sweep engine. Reports come back in input order; the first failing
// configuration cancels the rest (in-flight decode loops abort between
// iterations). It is the facade-level counterpart of cluster.Sweep for
// grids that share one request pool; grids with per-point pools (e.g.
// cmd/pimphony-sim's trace cross-product) call sweep.Run with ServeCtx
// directly.
func Sweep(ctx context.Context, cfgs []Config, reqs []workload.Request, opts ...sweep.Option) ([]*Report, error) {
	return sweep.Run(ctx, cfgs, func(ctx context.Context, cfg Config) (*Report, error) {
		sys, err := NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		return sys.ServeCtx(ctx, reqs)
	}, opts...)
}

// StageResult is one bar of the incremental technique study.
type StageResult struct {
	Stage  string
	Tech   Technique
	Report *Report
}

// Stages returns the incremental technique ladder of Fig. 13/14.
func Stages() []StageResult {
	return []StageResult{
		{Stage: "baseline", Tech: Technique{}},
		{Stage: "+TCP", Tech: Technique{TCP: true}},
		{Stage: "+DCS", Tech: Technique{TCP: true, DCS: true}},
		{Stage: "+DPA", Tech: Technique{TCP: true, DCS: true, DPA: true}},
	}
}

// IncrementalStudy runs the technique ladder on copies of a configuration,
// returning one report per stage.
func IncrementalStudy(cfg Config, reqs []workload.Request) ([]StageResult, error) {
	return IncrementalStudyCtx(context.Background(), cfg, reqs)
}

// IncrementalStudyCtx is IncrementalStudy with cancellation: the four
// stages are independent simulations (each builds its own System over
// the shared read-only request pool), so they fan out through the sweep
// engine and come back in ladder order.
func IncrementalStudyCtx(ctx context.Context, cfg Config, reqs []workload.Request) ([]StageResult, error) {
	return sweep.Run(ctx, Stages(), func(ctx context.Context, st StageResult) (StageResult, error) {
		c := cfg
		c.Tech = st.Tech
		sys, err := NewSystem(c)
		if err != nil {
			return st, fmt.Errorf("core: stage %s: %w", st.Stage, err)
		}
		rep, err := sys.ServeCtx(ctx, reqs)
		if err != nil {
			return st, fmt.Errorf("core: stage %s: %w", st.Stage, err)
		}
		st.Report = rep
		return st, nil
	})
}
