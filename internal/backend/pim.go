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

// pimShared is the channel-level pricing machinery every PIM-attention
// backend shares: TP/PP geometry, perfmodel attention tiles, the TP
// all-reduce, the stage composition, head-first admission bounds and
// the attention energy model; the stepper (stepper.go) adds the EPU
// costs and the PP pipeline fold. Concrete backends embed it and differ
// in how FC is priced and how the phases combine into a layer.
type pimShared struct{}

// validatePIM checks the shared PIM configuration constraints.
func (pimShared) validatePIM(env *Env) error {
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

// moduleCapacity is the shared PIM capacity: Modules x module bytes.
func (pimShared) moduleCapacity(env *Env) int64 {
	return int64(env.Modules) * env.Dev.ModuleBytes()
}

// admission returns the shared PIM admitter parameters: the
// technique-selected allocator plus, under head-first placement, the
// per-channel head-capacity budget.
func (p pimShared) admission(env *Env) Admission {
	adm := Admission{}
	kvHeadsPerModule, tokenShard := p.headGeometry(env)
	adm.KVHeadsPerModule = kvHeadsPerModule
	// Head-first placement additionally binds each (request, KV head)
	// tile to one channel's capacity; TCP's token slices are spread over
	// all channels and never hit this bound.
	if !env.Tech.TCP {
		adm.HeadBudget = int64(env.Dev.Channels) * int64(p.headCapacityTokens(env)) * int64(tokenShard)
	}
	return adm
}

// schedKind maps the DCS toggle to the scheduler/buffer pair.
func (pimShared) schedKind(env *Env) (perfmodel.Sched, bool) {
	if env.Tech.DCS {
		return perfmodel.DCS, false // PIMphony OBuf geometry
	}
	return perfmodel.Static, true // baseline OutReg geometry
}

// headGeometry returns how TP shards attention: KV heads per module, and
// the token-axis sharding factor once TP exceeds the head count.
func (pimShared) headGeometry(env *Env) (kvHeadsPerModule, tokenShard int) {
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
func (pimShared) headCapacityTokens(env *Env) int {
	m := env.Model
	perHead := m.KVBytesPerToken() / int64(m.KVHeads()) / int64(env.PP)
	if perHead <= 0 {
		perHead = 1
	}
	return int(env.Dev.ChannelBytes() / perHead)
}

// priceAttention prices one channel's attention tile. The KV mapping
// (row-reuse vs query-resident) is a compile-time choice, so every
// configuration gets the cheaper of the two under its own scheduler —
// row-reuse wins under DCS because the extra WR-INP traffic hides behind
// MAC execution (Sec. V-C), while static controllers often prefer the
// query-resident mapping.
func (pimShared) priceAttention(env *Env, tokens, headDim, queries int, baseline bool, sc perfmodel.Sched) (perfmodel.Latency, error) {
	plain, err := env.Perf.AttentionLatency(tokens, headDim, queries, false, baseline, sc)
	if err != nil {
		return perfmodel.Latency{}, err
	}
	if !env.RowReuse || queries == 1 {
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
func (pimShared) syncCycles(env *Env, batch int) timing.Cycles {
	if env.TP <= 1 {
		return 0
	}
	bytes := int64(batch) * int64(env.Model.DIn) * int64(env.Model.ElemBytes)
	per := timing.Cycles(float64(bytes) * float64(env.TP-1) / float64(env.TP) / env.Dev.LinkBytesPerCycle)
	return 2 * (env.Dev.LinkLatency + per) // attention-out + FFN-out
}

// composeStage folds one layer's attention stats with the FC and TP
// all-reduce costs into the per-stage time, the stage's attention stats
// and the attention share.
func composeStage(env *Env, at Stats, fcSec, syncSec float64, combine combineFunc) (float64, Stats, float64) {
	layers := env.Model.Layers / env.PP
	attnSec := float64(at.Cycles) / cyclesPerSecond
	layerSec := combine(attnSec, fcSec, syncSec)
	stage := layerSec * float64(layers)
	attnShare := attnSec / layerSec
	// Scale the per-layer attention stats to the stage.
	at.Cycles *= timing.Cycles(layers)
	at.Busy *= timing.Cycles(layers)
	at.MACs *= int64(layers)
	at.IOBytes *= int64(layers)
	at.ActPre *= int64(layers)
	return stage, at, attnShare
}

// iterEnergy prices one iteration's energy on the shared PIM model: the
// accumulated stats cover one module's shard (TP) of one stage (PP); all
// Modules perform equivalent shards, and background power accrues only
// over the attention phase of the iteration.
func (p pimShared) iterEnergy(env *Env, cost StepCost, batch int) (attn, fc energy.Breakdown) {
	attnCycles := timing.Cycles(cost.Seconds * cost.AttnShare * cyclesPerSecond)
	eb := env.EMod.ForAggregate(env.Dev, cost.Stats.MACs, cost.Stats.IOBytes, cost.Stats.ActPre,
		cost.Stats.Channels, attnCycles)
	return eb.Scale(float64(env.Modules)), p.fcEnergy(env, batch)
}

// fcEnergy coarsely prices the FC phase of one iteration: DRAM reads of all
// sharded weights plus MAC-array energy for the batched GEMM. The price is
// pure in (model, batch), so it is memoized on the Env by batch size —
// the FC shape walk otherwise ran once per decode iteration.
func (pimShared) fcEnergy(env *Env, batch int) energy.Breakdown {
	if batch < len(env.fcEOK) && env.fcEOK[batch] {
		return env.fcE[batch]
	}
	m := env.Model
	fcBytes := m.FCLayerWeightBytes() * int64(m.Layers)
	macEquiv := fcBytes / int64(env.Dev.TileBytes*env.Dev.Banks) * int64(batch)
	v := energy.Breakdown{
		MAC:        float64(macEquiv) * env.EMod.MACpJ,
		IO:         float64(batch) * float64(m.DIn*m.Layers*m.ElemBytes) * env.EMod.IOpJPerByte,
		Background: 0, // background power is attributed once, in AttnEnergy
		Else:       float64(fcBytes) * env.EMod.DRAMReadpJPerByte,
	}
	env.fcE, env.fcEOK = memoPut(env.fcE, env.fcEOK, batch, v)
	return v
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

// ---------------------------------------------------------------------------
// PIM-only (CENT-style) backend
// ---------------------------------------------------------------------------

// pimOnly is a CENT-style system: FC on per-module PNM, attention on PIM.
type pimOnly struct{ pimShared }

func init() { Register(pimOnly{}) }

func (pimOnly) Name() string { return PIMOnly }

func (pimOnly) Describe() string {
	return "CENT-style PIM-only: FC on per-module PNM, attention on PIM channels"
}

func (pimOnly) PIMAttention() bool { return true }

func (p pimOnly) Validate(env *Env) error { return p.validatePIM(env) }

func (p pimOnly) CapacityBytes(env *Env) int64 { return p.moduleCapacity(env) }

func (p pimOnly) Admission(env *Env) Admission { return p.admission(env) }

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

// pimModuleDollarsPerHour amortises one GDDR6-AiM-class PIM module
// (device plus its hosting share) — commodity-DRAM economics, an order
// of magnitude below a datacenter GPU.
const pimModuleDollarsPerHour = 0.45

// CostPerHour charges the module stack: a CENT-style system is PIM
// modules and nothing else.
func (pimOnly) CostPerHour(env *Env) float64 {
	return pimModuleDollarsPerHour * float64(env.Modules)
}

func (p pimOnly) IterEnergy(env *Env, cost StepCost, batch int) (attn, fc energy.Breakdown) {
	return p.iterEnergy(env, cost, batch)
}

// PrefillSeconds runs the prompt on the per-module PNM — the PIM-only
// system's known weakness and the motivation for GPU/NPU prefill offload
// in Hybe and NeuPIMs.
func (pimOnly) PrefillSeconds(env *Env, context int) float64 {
	dev := xpu.CENTPNM(env.Dev.InternalBandwidth())
	flops := prefillFlops(env.Model, context)
	return dev.OpTime(flops/int64(env.Modules), env.Model.WeightBytes()/int64(env.Modules))
}
