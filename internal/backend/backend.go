// Package backend defines the pluggable system-backend seam of the
// cluster simulator: one Backend per system organisation (CENT-style
// PIM-only, NeuPIMs-style xPU+PIM, the A100 GPU baseline, and an
// L3/LoL-PIM-style DIMM-PIM system), each pricing the per-step phases of
// a decode iteration — FC projections, attention, collective
// communication — and declaring its KV-capacity geometry and admission
// semantics. The one decode loop in internal/cluster, the engine that
// serving steps and the batch window drains, is backend-agnostic: it
// admits against the backend's Admission parameters and prices every
// iteration, energy included, through the Stepper Backend.NewStepper
// builds, one leap (a run of iterations over a fixed batch) at a time.
// Adding a new system organisation is one value in the backends table;
// no step-loop fork.
package backend

import (
	"fmt"

	"pimphony/internal/energy"
	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
)

// Technique toggles PIMphony's three co-designed techniques.
type Technique struct {
	TCP bool // token-centric partitioning (vs head-first)
	DCS bool // dynamic command scheduling + I/O-aware buffering (vs static)
	DPA bool // dynamic PIM access / lazy KV allocation (vs T_max reservation)
}

// Baseline is the all-off configuration.
func Baseline() Technique { return Technique{} }

// PIMphony is the all-on configuration.
func PIMphony() Technique { return Technique{TCP: true, DCS: true, DPA: true} }

// Backend names. The constants double as the Config.Backend values the
// cluster package accepts.
const (
	PIMOnly = "pim-only"
	XPUPIM  = "xpu+pim"
	GPU     = "gpu"
	DIMMPIM = "dimm-pim"
)

// Env is what one configuration fixes for a backend to price against:
// the relevant configuration subset plus the device's shared kernel
// latency service. cluster.New builds one per System, and the System's
// one Stepper reads it.
type Env struct {
	// Name is the owning configuration's name, used in error messages.
	Name string
	// Dev is the PIM module geometry (zero-valued for backends without
	// PIM modules, e.g. the GPU baseline).
	Dev timing.Device
	// Modules, TP, PP describe the module count and its parallelism
	// split; GPUs is the device count of GPU configurations.
	Modules, TP, PP, GPUs int
	Model                 model.Config
	Tech                  Technique
	// Perf is the memoized channel-latency service, nil in
	// validation-only environments.
	Perf *perfmodel.Service
}

// Stats aggregates the PIM-channel attention counters of one priced
// iteration: the utilization inputs the engine accrues and the inputs
// of the iteration's attention energy. Zero-valued for backends without
// PIM channels.
type Stats struct {
	Cycles   timing.Cycles // critical-path attention cycles
	Busy     timing.Cycles // aggregate MAC-busy cycles across channels
	MACs     int64
	IOBytes  int64
	ActPre   int64
	Channels int
}

// StepCost is the price of one decode iteration for a batch.
type StepCost struct {
	// Seconds is the iteration time.
	Seconds float64
	// AttnShare is the attention fraction of iteration time.
	AttnShare float64
	// Stats carries the PIM attention counters (zero for non-PIM
	// backends).
	Stats Stats
	// AttnEnergy and FCEnergy are the iteration's attention and FC
	// energy on the PIM module model (zero for backends outside it, e.g.
	// the GPU, and FCEnergy zero where a host runs FC).
	AttnEnergy, FCEnergy energy.Breakdown
}

// Admission describes how the cluster engine admits requests on this
// backend: pool geometry, queue semantics and the pool that tracks KV
// reservations.
type Admission struct {
	// PagedEff, when positive, marks a paged KV pool (the GPU's
	// paged-attention baseline) and is its usable fraction: the engine
	// derates the post-weights pool by it, packs the queue greedily past
	// requests that do not fit, reports it as the batch's CapacityUtil
	// and tracks KV in a pool of one-token chunks (memory.NewPaged).
	// Zero selects the technique's pool: DPA chunks when Tech.DPA,
	// static T_max regions otherwise.
	PagedEff float64
	// WeightsHosted marks backends whose weights live outside the KV
	// pool (the DIMM-PIM host keeps them in its own HBM), so the whole
	// device capacity serves KV and no weights-fit check applies.
	WeightsHosted bool
	// HeadBudget bounds head-first placement: total (request, KV head)
	// tile tokens that fit per module under per-channel capacity. Zero
	// disables the bound (TCP, or backends without channel placement).
	HeadBudget int64
	// KVHeadsPerModule is the per-request head-tile count charged
	// against HeadBudget.
	KVHeadsPerModule int
}

// Backend prices one system organisation. Implementations must be
// stateless (shared across Systems and goroutines); all per-system
// state lives in the Env and in the Stepper NewStepper builds over it.
type Backend interface {
	// Name is the Lookup key and the Report's system label.
	Name() string
	// Describe is the one-line summary CLI -list flags print.
	Describe() string
	// Validate checks the backend-specific parts of a configuration.
	Validate(env *Env) error
	// CapacityBytes is the total device memory across the system
	// (weights + KV unless Admission.WeightsHosted).
	CapacityBytes(env *Env) int64
	// Admission returns the engine's admission parameters for this
	// backend.
	Admission(env *Env) Admission
	// NewStepper builds the system's iteration pricer, the only way to
	// price a decode iteration and its energy.
	NewStepper(env *Env) Stepper
	// PrefillSeconds estimates prompt processing on the backend's dense
	// engine.
	PrefillSeconds(env *Env, context int) float64
	// CostPerHour is the amortised provisioning cost of one replica of
	// this system in dollars per hour — hardware capital spread over its
	// service life plus hosting, excluding the modeled device energy
	// (which serving reports price separately at the grid rate). Values
	// are order-of-magnitude; the reproduced metric is the cost ratio
	// between system organisations, not a market quote.
	CostPerHour(env *Env) float64
}

// backends is every system organisation, in name order.
var backends = [...]Backend{dimmPIM, gpu{}, pimOnly, xpuPIM}

// Lookup resolves a backend by name. The empty name resolves to the
// PIM-only backend, the historical default system organisation.
func Lookup(name string) (Backend, error) {
	if name == "" {
		name = PIMOnly
	}
	for _, b := range backends {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("backend: unknown system backend %q (known: %v)", name, Names())
}

// Names returns the backend names in sorted order.
func Names() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	return names
}
