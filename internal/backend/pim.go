package backend

import (
	"fmt"

	"pimphony/internal/energy"
	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
	"pimphony/internal/xpu"
)

// cyclesPerSecond converts command-clock cycles (1 GHz) to seconds.
const cyclesPerSecond = 1e9

// epuLanes is the number of parallel EPU softmax lanes per module.
const epuLanes = 16

// fcFunc prices one layer's FC projections (seconds) for a micro-batch.
type fcFunc func(env *Env, batch int) float64

// combineFunc composes one layer's attention, FC and all-reduce times.
type combineFunc func(attnSec, fcSec, syncSec float64) float64

// pimBackend is a system organisation whose attention runs on PIM
// channels. The organisations share the channel-level pricing: TP/PP
// geometry, perfmodel attention tiles, the TP all-reduce, the stage
// composition, head-first admission bounds and the attention energy
// model; the stepper (stepper.go) adds the EPU costs, the PP pipeline
// fold and the iteration's energy. They differ only in the fields:
// where FC runs, how the phases combine into a layer, the dense engine
// prompts run on, whether a host keeps the weights, and what the
// hardware costs.
type pimBackend struct {
	name, desc string
	// fc prices one layer's FC projections; combine composes a layer.
	fc      fcFunc
	combine combineFunc
	// prefill is the dense engine prompt processing runs on.
	prefill func(env *Env) xpu.Device
	// hosted marks a host GPU that keeps the weights in its own HBM and
	// runs FC there: the whole device capacity is KV pool, FC burns no
	// module energy (its HBM/GPU energy lies outside the module model),
	// and prefill runs at full weight residency instead of sharded over
	// the modules.
	hosted bool
	// CostPerHour is hostDollars + moduleDollars·Modules.
	hostDollars, moduleDollars float64
}

// pimOnly is a CENT-style system: FC on per-module PNM, attention on
// PIM, the two phases sharing the channel command bus.
var pimOnly = &pimBackend{
	name:    PIMOnly,
	desc:    "CENT-style PIM-only: FC on per-module PNM, attention on PIM channels",
	fc:      pnmFC,
	combine: additive,
	// The PNM runs prompts too — the PIM-only system's known weakness
	// and the motivation for GPU/NPU prefill offload in Hybe and
	// NeuPIMs.
	prefill:       func(env *Env) xpu.Device { return xpu.CENTPNM(env.Dev.InternalBandwidth()) },
	moduleDollars: pimModuleDollarsPerHour, // PIM modules and nothing else
}

// xpuPIM is a NeuPIMs-style system: FC on an NPU, attention on PIM, the
// two phases overlapped by sub-batch interleaving.
var xpuPIM = &pimBackend{
	name:    XPUPIM,
	desc:    "NeuPIMs-style xPU+PIM: batched GEMM on an NPU overlapped with PIM attention",
	fc:      npuFC,
	combine: overlapped,
	// Prompts run on the NPU (the phase split NeuPIMs and Hybe argue
	// for).
	prefill:       func(*Env) xpu.Device { return xpu.NeuPIMsNPU(npuMemGBsPerModule) },
	hostDollars:   npuDollarsPerHour,
	moduleDollars: pimModuleDollarsPerHour,
}

// dimmPIM is an L3/LoL-PIM-style DIMM-PIM organisation: attention
// executes on rank-level PIM units inside commodity DDR5 DIMMs (high
// capacity, modest internal bandwidth — timing.DDR5DIMM), while the FC
// projections run on a host GPU-class engine out of its own HBM
// (xpu.DIMMHostGPU), overlapped with the DIMM attention the way L3's
// integrated scheduler hides PIM latency under the GEMM. The weights
// therefore live outside the DIMM pool: every DIMM byte serves KV
// cache, which is the capacity roofline these systems trade on for
// long-context serving.
var dimmPIM = &pimBackend{
	name:          DIMMPIM,
	desc:          "L3/LoL-PIM-style DIMM-PIM: host-GPU FC, DIMM-rank PIM attention, all-KV DIMM pool",
	fc:            hostFC,
	combine:       overlapped,
	prefill:       func(*Env) xpu.Device { return xpu.DIMMHostGPU() },
	hosted:        true,
	hostDollars:   gpuDollarsPerHour,
	moduleDollars: dimmDollarsPerHour,
}

// Hourly hardware costs, amortised with hosting.
const (
	// pimModuleDollarsPerHour is one GDDR6-AiM-class PIM module —
	// commodity-DRAM economics, an order of magnitude below a
	// datacenter GPU.
	pimModuleDollarsPerHour = 0.45
	// npuDollarsPerHour is the NPU die the hybrid adds on top of its PIM
	// modules.
	npuDollarsPerHour = 1.20
	// dimmDollarsPerHour is one PIM-enabled DDR5 DIMM — commodity memory
	// pricing, the capacity-per-dollar argument of the L3/LoL-PIM line.
	dimmDollarsPerHour = 0.09
)

// npuMemGBsPerModule is the weight-read bandwidth available to the NeuPIMs
// NPU per module. The NPU accesses DRAM through the regular channel
// interface (not the bank-internal MAC path), so it sees GDDR6-class
// external bandwidth rather than the 32 TB/s internal figure.
const npuMemGBsPerModule = 1000

func (b *pimBackend) Name() string { return b.name }

func (b *pimBackend) Describe() string { return b.desc }

// Validate checks the PIM configuration constraints.
func (b *pimBackend) Validate(env *Env) error {
	if err := env.Dev.Validate(); err != nil {
		return err
	}
	m := env.Model
	switch {
	case env.Modules <= 0:
		return fmt.Errorf("cluster %s: Modules must be positive", env.Name)
	case env.TP <= 0 || env.PP <= 0:
		return fmt.Errorf("cluster %s: TP and PP must be positive", env.Name)
	case env.TP*env.PP != env.Modules:
		return fmt.Errorf("cluster %s: TP(%d) x PP(%d) != Modules(%d)", env.Name, env.TP, env.PP, env.Modules)
	case env.TP > m.KVHeads() && env.TP%m.KVHeads() != 0:
		return fmt.Errorf("cluster %s: TP(%d) beyond KV heads (%d) must shard tokens evenly", env.Name, env.TP, m.KVHeads())
	case env.TP < m.KVHeads() && m.KVHeads()%env.TP != 0:
		return fmt.Errorf("cluster %s: TP(%d) must divide KV heads (%d)", env.Name, env.TP, m.KVHeads())
	case m.Layers%env.PP != 0:
		return fmt.Errorf("cluster %s: PP(%d) must divide layers (%d)", env.Name, env.PP, m.Layers)
	}
	return nil
}

// CapacityBytes is Modules x module bytes.
func (b *pimBackend) CapacityBytes(env *Env) int64 {
	return int64(env.Modules) * env.Dev.ModuleBytes()
}

// Admission leaves the allocator to the technique (PagedEff zero) and
// adds, under head-first placement, the per-channel head-capacity
// budget.
func (b *pimBackend) Admission(env *Env) Admission {
	kvHeadsPerModule, tokenShard := headGeometry(env)
	adm := Admission{WeightsHosted: b.hosted, KVHeadsPerModule: kvHeadsPerModule}
	// Head-first placement additionally binds each (request, KV head)
	// tile to one channel's capacity; TCP's token slices are spread over
	// all channels and never hit this bound.
	if !env.Tech.TCP {
		adm.HeadBudget = int64(env.Dev.Channels) * int64(headCapacityTokens(env)) * int64(tokenShard)
	}
	return adm
}

// NewStepper implements Backend.
func (b *pimBackend) NewStepper(env *Env) Stepper { return newPIMStepper(env, b) }

// PrefillSeconds runs the prompt on the dense engine, its FLOPs and
// weights sharded over the modules unless a host keeps the weights.
func (b *pimBackend) PrefillSeconds(env *Env, context int) float64 {
	flops, weights := prefillFlops(env.Model, context), env.Model.WeightBytes()
	if !b.hosted {
		flops /= int64(env.Modules)
		weights /= int64(env.Modules)
	}
	return b.prefill(env).OpTime(flops, weights)
}

// CostPerHour charges the host (NPU or GPU, if any) plus the module
// stack.
func (b *pimBackend) CostPerHour(env *Env) float64 {
	return b.hostDollars + b.moduleDollars*float64(env.Modules)
}

// schedKind maps the DCS toggle to the scheduler/buffer pair.
func schedKind(env *Env) (perfmodel.Sched, bool) {
	if env.Tech.DCS {
		return perfmodel.DCS, false // PIMphony OBuf geometry
	}
	return perfmodel.Static, true // baseline OutReg geometry
}

// headGeometry returns how TP shards attention: KV heads per module, and
// the token-axis sharding factor once TP exceeds the head count.
func headGeometry(env *Env) (kvHeadsPerModule, tokenShard int) {
	kvHeadsPerModule = env.Model.KVHeads() / env.TP
	tokenShard = 1
	if kvHeadsPerModule == 0 {
		kvHeadsPerModule = 1
		tokenShard = env.TP / env.Model.KVHeads()
	}
	return kvHeadsPerModule, tokenShard
}

// headCapacityTokens is the KV capacity of one channel in (module-sharded)
// tokens for a single head tile: under head-first placement a (request,
// KV head) tile must live — and compute — within one channel, so this
// bounds both placement and admission. Sec. IV: "a request typically
// consumes nearly the entire memory capacity of a single PIM channel".
func headCapacityTokens(env *Env) int {
	m := env.Model
	perHead := m.KVBytesPerToken() / int64(m.KVHeads()) / int64(env.PP)
	if perHead <= 0 {
		perHead = 1
	}
	return int(env.Dev.ChannelBytes() / perHead)
}

// priceAttention prices one channel's attention tile. The KV mapping
// (row-reuse vs query-resident, Sec. V-C) is a compile-time choice, so
// every GQA configuration gets the cheaper of the two under its own
// scheduler — row-reuse wins under DCS because the extra WR-INP traffic
// hides behind MAC execution, while static controllers often prefer the
// query-resident mapping. A single query has no rows to reuse.
func priceAttention(env *Env, tokens, headDim, queries int, baseline bool, sc perfmodel.Sched) (perfmodel.Latency, error) {
	plain, err := env.Perf.AttentionLatency(tokens, headDim, queries, false, baseline, sc)
	if err != nil {
		return perfmodel.Latency{}, err
	}
	if queries == 1 {
		return plain, nil
	}
	reuse, err := env.Perf.AttentionLatency(tokens, headDim, queries, true, baseline, sc)
	if err != nil {
		return perfmodel.Latency{}, err
	}
	if reuse.Cycles < plain.Cycles {
		return reuse, nil
	}
	return plain, nil
}

// fcShard is the per-module TP shard of one layer's FC work.
func fcShard(env *Env) (shardFlops, shardBytes int64) {
	m := env.Model
	fcFlops := m.FCLayerFlops()
	fcBytes := m.FCLayerWeightBytes()
	return fcFlops / int64(env.TP), fcBytes / int64(env.TP)
}

// syncCycles is the per-layer TP all-reduce cost.
func syncCycles(env *Env, batch int) timing.Cycles {
	if env.TP <= 1 {
		return 0
	}
	bytes := int64(batch) * int64(env.Model.DIn) * int64(env.Model.ElemBytes)
	per := timing.Cycles(float64(bytes) * float64(env.TP-1) / float64(env.TP) / env.Dev.LinkBytesPerCycle)
	return 2 * (env.Dev.LinkLatency + per) // attention-out + FFN-out
}

// fcEnergy coarsely prices the FC phase of one iteration on the module
// energy model em: DRAM reads of all sharded weights plus MAC-array
// energy for the batched GEMM. The price is pure in (model, batch), so
// the stepper memoizes it by batch size with the batch's FC seconds.
func fcEnergy(env *Env, em energy.Model, batch int) energy.Breakdown {
	m := env.Model
	fcBytes := m.FCLayerWeightBytes() * int64(m.Layers)
	macEquiv := fcBytes / int64(env.Dev.TileBytes*env.Dev.Banks) * int64(batch)
	return energy.Breakdown{
		MAC:        float64(macEquiv) * em.MACpJ,
		IO:         float64(batch) * float64(m.DIn*m.Layers*m.ElemBytes) * em.IOpJPerByte,
		Background: 0, // background power is attributed once, in the attention energy
		Else:       float64(fcBytes) * em.DRAMReadpJPerByte,
	}
}

// prefillFlops is the total prompt-processing work at a context length:
// the FC GEMMs over all prompt tokens plus causal attention, quadratic
// in the context.
func prefillFlops(m model.Config, context int) int64 {
	fcFlopsPerTok := m.FCFlopsPerToken()
	// Causal attention per layer: sum_{t=1..T} 2*2*heads*dh*t ~ 2*heads*dh*T^2.
	attnFlops := int64(m.Layers) * 2 * int64(m.Heads) * int64(m.HeadDim) * int64(context) * int64(context)
	return int64(context)*fcFlopsPerTok + attnFlops
}

// additive composes a layer with no FC/attention overlap — the
// PIM-only schedule, whose FC and attention phases share the channel
// command bus.
func additive(attnSec, fcSec, syncSec float64) float64 {
	return attnSec + fcSec + syncSec
}

// overlapped composes a layer with sub-batch interleaving: 85% of the
// shorter phase hides under the longer one. NeuPIMs pioneered it for
// NPU GEMM vs PIM attention; the DIMM-PIM backend reuses it for its
// host-GPU GEMM vs DIMM attention (the L3 integrated schedule).
func overlapped(attnSec, fcSec, syncSec float64) float64 {
	longer, shorter := attnSec, fcSec
	if fcSec > attnSec {
		longer, shorter = fcSec, attnSec
	}
	return longer + 0.15*shorter + syncSec
}

// pnmFC prices one layer's FC time on the PIM banks themselves: the max
// of the MAC-command issue roof (one command per Banks*ElemsPerTile
// MAC-ops per channel, at the scheduler's steady-state interval) and the
// weight-read roof (weights stream once per accumulator-file batch).
func pnmFC(env *Env, batch int) float64 {
	shardFlops, shardBytes := fcShard(env)
	dev := env.Dev
	macOpsPerCmd := int64(dev.Banks * dev.ElemsPerTile())
	cmds := int64(batch) * shardFlops / 2 / macOpsPerCmd
	perChannel := cmds / int64(dev.Channels)
	interval := dev.TMAC // static controllers pace MACs at tMAC
	if env.Tech.DCS {
		interval = dev.TCCDS // DCS sustains the pipelined interval
	}
	cmdSec := float64(perChannel) * float64(interval) / cyclesPerSecond
	// The accumulator file bounds how many requests share one weight
	// streaming pass; the baseline OutReg re-reads weights per pair.
	outEntries := dev.OutRegEntries()
	if env.Tech.DCS {
		outEntries = dev.OBufEntries()
	}
	passes := (batch + outEntries - 1) / outEntries
	byteSec := float64(shardBytes*int64(passes)) / (dev.InternalBandwidth() * cyclesPerSecond)
	if cmdSec > byteSec {
		return cmdSec
	}
	return byteSec
}

// npuFC prices one layer's FC as a batched GEMM on the NPU roofline.
func npuFC(env *Env, batch int) float64 {
	shardFlops, shardBytes := fcShard(env)
	return xpu.NeuPIMsNPU(npuMemGBsPerModule).OpTime(int64(batch)*shardFlops, shardBytes)
}

// hostFC prices one layer's FC as a batched GEMM on the host GPU, which
// holds the full (unsharded) weights in its own HBM: one weight
// streaming pass per layer regardless of the DIMM count.
func hostFC(env *Env, batch int) float64 {
	m := env.Model
	return xpu.DIMMHostGPU().OpTime(int64(batch)*m.FCLayerFlops(), m.FCLayerWeightBytes())
}
