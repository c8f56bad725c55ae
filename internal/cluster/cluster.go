// Package cluster composes the channel-level performance model into the
// multi-node decode simulator the paper's end-to-end evaluation needs.
// The system organisations themselves — PIM-only nodes in the style of
// CENT, heterogeneous xPU+PIM nodes in the style of NeuPIMs, the A100
// GPU baseline of Fig. 20, and an L3/LoL-PIM-style DIMM-PIM system —
// live behind the internal/backend seam: this package owns the
// backend-agnostic decode loop, the step-level Engine (admission against
// a KV allocator, iteration pricing, growth, preemption, retirement,
// energy accrual), and prices every iteration through the one Stepper
// the configured backend builds.
// Online serving steps the engine event by event; Run drains it over a
// fixed decode window for the paper's batch figures. Adding a system
// organisation is a value in internal/backend's table, not a fork of
// the loop here.
//
// Parallelism follows Sec. II-C: tensor parallelism (TP) shards KV heads
// and FC weights across modules with a per-layer all-reduce, and pipeline
// parallelism (PP) assigns contiguous layer ranges to module groups with
// request-granular micro-batches (pipeline bubbles appear whenever the
// batch cannot fill the stages — the CENT long-context collapse of
// Fig. 17).
package cluster

import (
	"context"
	"fmt"
	"sync/atomic"

	"pimphony/internal/backend"
	"pimphony/internal/energy"
	"pimphony/internal/memory"
	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// simTokens tallies every decode token priced by the decode loop in this
// process (batch windows and serving alike): each Engine.Leap adds its
// iterations times its batch size. The benchgate derives its sim_rate
// metric — simulated tokens per wall-second — from deltas of this
// counter around a timed experiment.
var simTokens atomic.Int64

// SimulatedTokens reports the process-wide count of decode tokens
// simulated since start.
func SimulatedTokens() int64 { return simTokens.Load() }

// Re-exported backend names: the values Config.Backend accepts, all of
// backend.Names().
const (
	// PIMOnly is a CENT-style system: FC on per-module PNM, attention on PIM.
	PIMOnly = backend.PIMOnly
	// XPUPIM is a NeuPIMs-style system: FC on an NPU, attention on PIM.
	XPUPIM = backend.XPUPIM
	// GPUSystem is the A100 flash-decoding + paged-attention baseline.
	GPUSystem = backend.GPU
	// DIMMPIM is an L3/LoL-PIM-style system: host-GPU FC, DIMM-PIM attention.
	DIMMPIM = backend.DIMMPIM
)

// Technique toggles PIMphony's three co-designed techniques.
type Technique = backend.Technique

// Baseline is the all-off configuration.
func Baseline() Technique { return backend.Baseline() }

// PIMphony is the all-on configuration.
func PIMphony() Technique { return backend.PIMphony() }

// Config describes one simulated system.
type Config struct {
	Name string
	// Backend selects the system organisation by name
	// (backend.Names()); empty means PIMOnly.
	Backend string
	Dev     timing.Device
	Modules int
	TP, PP  int
	Model   model.Config
	Tech    Technique
	// TMaxOverride replaces the model's context window as the static
	// reservation size (used by the Fig. 17 long-context sweep).
	TMaxOverride int
	// DecodeWindow is the number of decode steps to simulate (0 = 16).
	DecodeWindow int
	// GPUs is the device count for GPUSystem configurations.
	GPUs int
	// KVBudgetBytes optionally caps the KV-cache pool below the physical
	// capacity left after weights (0 = whole pool). The capacity studies
	// use it to compare allocation schemes at an equal memory budget.
	KVBudgetBytes int64
}

// env builds the backend pricing environment for this configuration.
// New attaches the device's latency service; a bare env suffices for
// validation.
func (c *Config) env() *backend.Env {
	return &backend.Env{
		Name:    c.Name,
		Dev:     c.Dev,
		Modules: c.Modules,
		TP:      c.TP,
		PP:      c.PP,
		GPUs:    c.GPUs,
		Model:   c.Model,
		Tech:    c.Tech,
	}
}

// validate resolves the backend and checks the configuration; Validate
// and New share it, so the backend a config validates against is the
// one New prices with.
func (c *Config) validate() (backend.Backend, *backend.Env, error) {
	if err := c.Model.Validate(); err != nil {
		return nil, nil, err
	}
	if c.KVBudgetBytes < 0 {
		return nil, nil, fmt.Errorf("cluster %s: KVBudgetBytes must be non-negative", c.Name)
	}
	if c.DecodeWindow < 0 {
		return nil, nil, fmt.Errorf("cluster %s: DecodeWindow must be non-negative", c.Name)
	}
	be, err := backend.Lookup(c.Backend)
	if err != nil {
		return nil, nil, err
	}
	env := c.env()
	if err := be.Validate(env); err != nil {
		return nil, nil, err
	}
	return be, env, nil
}

// Report is the outcome of one simulation.
type Report struct {
	Config string
	// Backend is the system organisation's name.
	Backend      string
	Batch        int
	Steps        int
	TotalSeconds float64
	// Throughput is decode tokens per second (the paper's metric).
	Throughput float64
	// PIMUtil is aggregate MAC-pipeline utilization over the attention
	// phase across all channels (the Fig. 4 metric). Zero for GPU systems.
	PIMUtil float64
	// AttnTimeShare is the attention fraction of iteration time.
	AttnTimeShare float64
	// CapacityUtil is the KV allocator's live/reserved ratio at admission.
	CapacityUtil float64
	// TBTSeconds is the mean time-between-tokens a request observes (the
	// serving-latency counterpart of throughput: one decode iteration).
	TBTSeconds float64
	// Energy breakdowns (attention on PIM; FC on PNM/NPU/GPU). Zero for
	// backends outside the PIM module energy model.
	AttnEnergy energy.Breakdown
	FCEnergy   energy.Breakdown
}

// System is the pricing of one Config: its backend, pricing environment,
// admission parameters and one memoizing Stepper, all fixed by the
// configuration. Every Engine built from a System prices through its
// Stepper, so replicas of one configuration (a serving fleet spec) share
// one System and each shape is priced once for all of them. Engines of
// one System must be driven from one goroutine; a sweep that runs
// configurations in parallel builds one System per configuration.
type System struct {
	cfg Config
	be  backend.Backend
	env *backend.Env
	adm backend.Admission
	// stepper is the backend's iteration pricer, shared by every Engine
	// of this System: Engine.Leap starts one leap on it per call and
	// prices each of the leap's iterations, energy included, through it,
	// so no leap state outlives the call.
	stepper backend.Stepper
}

// New builds a simulator for a configuration.
func New(cfg Config) (*System, error) {
	if cfg.DecodeWindow == 0 {
		cfg.DecodeWindow = 16
	}
	be, env, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	// The latency service is shared per device across all Systems in the
	// process: kernel pricing is pure in (device, query), so grid sweeps
	// and serving replicas reuse each other's cold simulations instead
	// of re-running them per instance.
	env.Perf = perfmodel.Shared(cfg.Dev)
	return &System{cfg: cfg, be: be, env: env, adm: be.Admission(env), stepper: be.NewStepper(env)}, nil
}

// FixedAllocator reports whether the backend admits into a paged pool
// (the GPU), making the static-vs-DPA technique toggle inapplicable to
// this system.
func (s *System) FixedAllocator() bool { return s.adm.PagedEff > 0 }

// tmax is the static reservation length.
func (s *System) tmax() int {
	if s.cfg.TMaxOverride > 0 {
		return s.cfg.TMaxOverride
	}
	return s.cfg.Model.ContextWindow
}

// kvPoolBytes is the system-wide memory available for KV cache: the
// backend's device capacity minus resident weights (unless the backend
// hosts them elsewhere), capped by the configured budget and derated to
// a paged pool's usable fraction.
func (s *System) kvPoolBytes() (int64, error) {
	capacity := s.be.CapacityBytes(s.env)
	pool := capacity
	if !s.adm.WeightsHosted {
		w := s.cfg.Model.WeightBytes()
		if w >= capacity {
			return 0, fmt.Errorf("cluster %s: weights (%d GiB) exceed capacity (%d GiB)",
				s.cfg.Name, w>>30, capacity>>30)
		}
		pool = capacity - w
	}
	if b := s.cfg.KVBudgetBytes; b > 0 && b < pool {
		pool = b
	}
	if eff := s.adm.PagedEff; eff > 0 {
		pool = int64(float64(pool) * eff)
	}
	return pool, nil
}

// newPool builds the KV pool from the backend's admission parameters:
// a paged pool (one-token chunks) for the GPU, otherwise the technique
// picks DPA chunks or static T_max regions.
func (s *System) newPool() (*memory.Pool, error) {
	pool, err := s.kvPoolBytes()
	if err != nil {
		return nil, err
	}
	bpt := s.cfg.Model.KVBytesPerToken()
	switch {
	case s.adm.PagedEff > 0:
		return memory.NewPaged(pool, bpt)
	case s.cfg.Tech.DPA:
		return memory.NewDPA(pool, bpt, memory.DefaultChunkBytes)
	default:
		return memory.NewStatic(pool, bpt, s.tmax())
	}
}

// RunCtx simulates a decode window over the given candidate requests
// and reports throughput, utilization and energy. The decode loop aborts
// between iterations once ctx is done, so config-grid sweeps can stop
// early when a sibling point fails.
//
// The window is a drain of the serving engine. Every candidate is queued
// with the window as its generation length, one admission pass forms the
// batch (CapacityUtil is sampled right after it), and the engine prices
// one iteration per call until the window has run or nothing is left to
// decode. So the batch figures share the engine's semantics: a request
// that cannot grow preempts the youngest, only generated tokens count,
// and a request reaching T_max retires and frees its slot for the queue.
func (s *System) RunCtx(ctx context.Context, reqs []workload.Request) (*Report, error) {
	e, err := s.NewEngine()
	if err != nil {
		return nil, err
	}
	for _, r := range reqs {
		r.Decode = s.cfg.DecodeWindow
		if err := e.Enqueue(r); err != nil {
			return nil, err
		}
	}
	e.fill()
	if len(e.active) == 0 {
		return nil, fmt.Errorf("cluster %s: no request fits (pool %d GiB, T_max %d)",
			s.cfg.Name, e.pool.CapacityBytes()>>30, s.tmax())
	}
	// A paged pool reports its paged-attention efficiency rather than
	// pool fill.
	capUtil := e.pool.Utilization()
	if u := s.adm.PagedEff; u > 0 {
		capUtil = u
	}
	// A call bounded at its own start prices one iteration, so the
	// window counts iterations. An idle call is not a step, so the window
	// also ends once every request has retired (truncated at T_max) and
	// the queue is empty.
	for e.Steps() < s.cfg.DecodeWindow && !e.Idle() {
		if _, err := e.Leap(ctx, e.Clock(), e.Clock()); err != nil {
			return nil, err
		}
	}
	// The batch was not empty, so at least one step ran.
	steps, sec := float64(e.Steps()), e.BusySeconds()
	rep := &Report{Config: s.cfg.Name, Backend: s.be.Name(), Batch: e.MaxActive(), Steps: e.Steps(),
		TotalSeconds: sec, Throughput: float64(e.Generated()) / sec, PIMUtil: e.Utilization(),
		AttnTimeShare: e.attnShare / steps, CapacityUtil: capUtil, TBTSeconds: sec / steps}
	rep.AttnEnergy, rep.FCEnergy = e.Energy()
	return rep, nil
}

// PrefillSeconds estimates the prompt-processing time of one request at
// the given context length. Prefill is the compute-bound phase (batched
// GEMM over all prompt tokens plus causal attention, quadratic in the
// context), so it runs on the backend's dense engine: the per-module PNM
// for PIM-only systems (their known weakness — the motivation for
// GPU/NPU prefill offload in Hybe and NeuPIMs), the NPU for xPU+PIM, the
// host GPU for DIMM-PIM, and the GPU itself for the baseline.
func (s *System) PrefillSeconds(context int) float64 {
	return s.be.PrefillSeconds(s.env, context)
}

// CostPerHour is the amortised provisioning cost of this system in
// dollars per hour (hardware capital plus hosting, excluding modeled
// device energy) — the backend's order-of-magnitude rate for the
// configured module/device counts. Serving reports multiply it by the
// seconds a replica was provisioned to price goodput per dollar.
func (s *System) CostPerHour() float64 {
	return s.be.CostPerHour(s.env)
}
