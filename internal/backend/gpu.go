package backend

import (
	"fmt"

	"pimphony/internal/xpu"
)

// gpu is the A100 flash-decoding + paged-attention baseline of Fig. 20.
// It prices the whole iteration on the GPU rooflines (batched-GEMM FC
// plus KV-streaming attention) and admits against a paged pool: the
// post-weights capacity derated by the paged-attention efficiency and
// packed greedily, each request admitted at its live context and grown
// per token (growth past the pool preempts, the vLLM recompute path).
// It runs through the same engine admission and decode loop as every other
// backend, which is what gives the GPU baseline serving-engine support.
type gpu struct{}

func (gpu) Name() string { return GPU }

func (gpu) Describe() string {
	return "A100 GPU baseline with flash-decoding and paged-attention"
}

func (gpu) Validate(env *Env) error {
	if env.GPUs <= 0 {
		return fmt.Errorf("cluster %s: GPU system needs GPUs > 0", env.Name)
	}
	return nil
}

func (gpu) CapacityBytes(env *Env) int64 {
	return int64(env.GPUs) * xpu.A100().MemBytes
}

// Admission is the paged pool at the paged-attention efficiency.
func (gpu) Admission(*Env) Admission {
	return Admission{PagedEff: xpu.A100().PagedAttentionEff}
}

// NewStepper returns the roofline pricer.
func (gpu) NewStepper(env *Env) Stepper { return &gpuStepper{env: env} }

// gpuStepper prices an iteration on the A100 rooflines: batched-GEMM FC
// plus flash-decoding attention streaming the batch's KV bytes, both
// split over the devices. The module energy model covers PIM systems
// only, so the GPU's energy is zero.
type gpuStepper struct {
	env  *Env
	toks []int
}

// Start implements Stepper.
func (s *gpuStepper) Start(toks []int) { s.toks = toks }

// Next implements Stepper.
func (s *gpuStepper) Next(c *StepCost) error {
	g := xpu.A100()
	env, m := s.env, s.env.Model
	var kv int64
	for _, t := range s.toks {
		kv += m.KVBytes(t)
	}
	fc := g.OpTime(int64(len(s.toks))*m.FCFlopsPerToken()/int64(env.GPUs), m.WeightBytes()/int64(env.GPUs))
	attn := g.AttentionTime(kv / int64(env.GPUs))
	*c = StepCost{Seconds: fc + attn, AttnShare: attn / (fc + attn)}
	for i := range s.toks {
		s.toks[i]++
	}
	return nil
}

// Floor implements Stepper. Zero is a true bound that gains nothing: no
// leap of a GPU replica runs past its lockstep bound.
func (*gpuStepper) Floor(int) float64 { return 0 }

func (gpu) PrefillSeconds(env *Env, context int) float64 {
	g := xpu.A100()
	flops := prefillFlops(env.Model, context)
	return g.OpTime(flops/int64(env.GPUs), env.Model.WeightBytes()/int64(env.GPUs))
}

// gpuDollarsPerHour amortises one A100-class device (cloud on-demand
// scale), the baseline's and the DIMM-PIM host's. The GPU prices no
// module energy (its stepper's energy is zero), so its serving cost is
// provisioning-only.
const gpuDollarsPerHour = 2.10

// CostPerHour charges the device count.
func (gpu) CostPerHour(env *Env) float64 {
	return gpuDollarsPerHour * float64(env.GPUs)
}
