package backend

import (
	"pimphony/internal/energy"
	"pimphony/internal/xpu"
)

// dimmPIM is an L3/LoL-PIM-style DIMM-PIM organisation: attention
// executes on rank-level PIM units inside commodity DDR5 DIMMs (high
// capacity, modest internal bandwidth — timing.DDR5DIMM), while the FC
// projections run on a host GPU-class engine out of its own HBM
// (xpu.DIMMHostGPU), overlapped with the DIMM attention the way L3's
// integrated scheduler hides PIM latency under the GEMM. The weights
// therefore live outside the DIMM pool: every DIMM byte serves KV
// cache, which is the capacity roofline these systems trade on for
// long-context serving.
type dimmPIM struct{ pimShared }

func init() { Register(dimmPIM{}) }

func (dimmPIM) Name() string { return DIMMPIM }

func (dimmPIM) Describe() string {
	return "L3/LoL-PIM-style DIMM-PIM: host-GPU FC, DIMM-rank PIM attention, all-KV DIMM pool"
}

func (dimmPIM) PIMAttention() bool { return true }

func (d dimmPIM) Validate(env *Env) error { return d.validatePIM(env) }

func (d dimmPIM) CapacityBytes(env *Env) int64 { return d.moduleCapacity(env) }

// Admission is the shared PIM admission with the weights hosted on the
// GPU: the whole DIMM capacity is KV pool.
func (d dimmPIM) Admission(env *Env) Admission {
	adm := d.admission(env)
	adm.WeightsHosted = true
	return adm
}

// hostFC prices one layer's FC as a batched GEMM on the host GPU, which
// holds the full (unsharded) weights in its own HBM: one weight
// streaming pass per layer regardless of the DIMM count.
func hostFC(env *Env, batch int) float64 {
	m := env.Model
	return xpu.DIMMHostGPU().OpTime(int64(batch)*m.FCLayerFlops(), m.FCLayerWeightBytes())
}

// IterEnergy prices the DIMM attention on the shared PIM module model;
// the host-side FC burns HBM/GPU energy outside the module model, so
// its share is reported as zero here.
func (d dimmPIM) IterEnergy(env *Env, cost StepCost, batch int) (attn, fc energy.Breakdown) {
	attn, _ = d.iterEnergy(env, cost, batch)
	return attn, energy.Breakdown{}
}

// PrefillSeconds runs the prompt on the host GPU at full weight
// residency (no per-module sharding).
func (dimmPIM) PrefillSeconds(env *Env, context int) float64 {
	dev := xpu.DIMMHostGPU()
	return dev.OpTime(prefillFlops(env.Model, context), env.Model.WeightBytes())
}

// dimmDollarsPerHour amortises one PIM-enabled DDR5 DIMM — commodity
// memory pricing, the capacity-per-dollar argument of the L3/LoL-PIM
// line.
const dimmDollarsPerHour = 0.09

// CostPerHour charges the host GPU (which keeps the weights and runs
// FC) plus the DIMM pool.
func (dimmPIM) CostPerHour(env *Env) float64 {
	return gpuDollarsPerHour + dimmDollarsPerHour*float64(env.Modules)
}
