package backend

import (
	"context"
	"fmt"

	"pimphony/internal/energy"
	"pimphony/internal/mapping"
	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/sweep"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
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
// backend shares: TP/PP geometry, the mapping + perfmodel attention
// path, EPU softmax/reduction costs, the TP all-reduce, the stage/PP
// pipeline composition, head-first admission bounds and the attention
// energy model. Concrete backends embed it and differ in how FC is
// priced and how the phases combine into a layer.
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

// strategy maps the TCP toggle to the partitioning strategy.
func (p pimShared) strategy(env *Env) mapping.Strategy {
	if env.Tech.TCP {
		return mapping.TCP{}
	}
	return mapping.HFP{CapacityTokens: p.headCapacityTokens(env)}
}

// attentionLayer evaluates one layer's attention time on one module group
// for the given micro-batch of requests.
func (p pimShared) attentionLayer(env *Env, reqs []workload.Request, tokensOf TokensOf) (Stats, error) {
	m := env.Model
	// TP shards KV heads first; beyond the head count it shards the token
	// axis across module groups (how TP-centric systems like NeuPIMs keep
	// scaling past the head count).
	kvHeadsPerModule, tokenShard := p.headGeometry(env)
	mreqs := make([]mapping.Request, len(reqs))
	for i, r := range reqs {
		t := (tokensOf(r) + tokenShard - 1) / tokenShard
		mreqs[i] = mapping.Request{ID: r.ID, Tokens: t}
	}
	assign, err := p.strategy(env).Assign(mreqs, kvHeadsPerModule, m.GQAGroup, env.Dev.Channels)
	if err != nil {
		return Stats{}, err
	}
	sc, baseline := p.schedKind(env)
	var st Stats
	st.Channels = env.Dev.Channels
	var maxCh timing.Cycles
	for _, works := range assign.Channels {
		var chCycles timing.Cycles
		for _, w := range works {
			lat, err := p.priceAttention(env, w.Tokens, m.HeadDim, w.Queries, baseline, sc)
			if err != nil {
				return Stats{}, err
			}
			chCycles += lat.Cycles
			st.Busy += lat.Breakdown.MAC
			st.MACs += lat.MACs
			st.IOBytes += lat.IOBytes
			st.ActPre += lat.ActPre
		}
		if chCycles > maxCh {
			maxCh = chCycles
		}
	}
	st.Cycles = maxCh
	// EPU softmax: one per (request, query head) on this module, spread
	// over the EPU lanes; under TCP the segments are concatenated first
	// (no extra cost beyond the softmax itself).
	var softmax timing.Cycles
	qHeadsPerModule := kvHeadsPerModule * m.GQAGroup
	for _, r := range reqs {
		softmax += env.Hub.SoftmaxCycles((tokensOf(r)+tokenShard-1)/tokenShard) * timing.Cycles(qHeadsPerModule)
	}
	st.Cycles += softmax / epuLanes
	// TCP pays one SV reduction per (request, KV head); the HUB performs
	// reductions for completed heads while the channels compute the next
	// head, so only the lane-parallel EPU residue is exposed (the paper
	// measures < 0.2% of attention latency).
	if env.Tech.TCP {
		red := env.Hub.ReduceCycles(env.Dev.Channels, m.HeadDim)
		st.Cycles += red * timing.Cycles(len(reqs)*kvHeadsPerModule) / epuLanes
	}
	return st, nil
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
// all-reduce costs into the per-stage time. The naive step path and the
// memoizing stepper (stepper.go) share it, so the two produce
// bit-identical stage times from the same per-layer inputs.
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

// stageTime returns the per-stage time in seconds for a micro-batch, plus
// the attention stats for utilization/energy accounting.
func (p pimShared) stageTime(env *Env, reqs []workload.Request, tokensOf TokensOf, fc fcFunc, combine combineFunc) (float64, Stats, float64, error) {
	at, err := p.attentionLayer(env, reqs, tokensOf)
	if err != nil {
		return 0, Stats{}, 0, err
	}
	fcSec := fc(env, len(reqs))
	syncSec := float64(p.syncCycles(env, len(reqs))) / cyclesPerSecond
	stage, at, attnShare := composeStage(env, at, fcSec, syncSec, combine)
	return stage, at, attnShare, nil
}

// step evaluates one decode iteration for a batch: the iteration time in
// seconds, the attention stats merged across the per-request stage
// evaluations (cycles and busy sum over PP micro-batches), and the
// attention share of iteration time. The cluster engine prices every
// decode iteration here, for the batch window and serving alike.
func (p pimShared) step(ctx context.Context, env *Env, batch []workload.Request, tokensOf TokensOf, fc fcFunc, combine combineFunc) (StepCost, error) {
	if env.PP == 1 {
		sec, stats, share, err := p.stageTime(env, batch, tokensOf, fc, combine)
		return StepCost{Seconds: sec, AttnShare: share, Stats: stats}, err
	}
	// Request-granular micro-batches through PP stages: sum of
	// per-request stage times + (PP-1) bubbles of the max. The
	// per-request evaluations are independent (the perfmodel cache
	// is internally locked), so they fan out through the sweep
	// engine; the ordered reduction below accumulates floats in
	// request order, keeping the result identical to the
	// sequential loop.
	type stageOut struct {
		sec   float64
		stats Stats
		share float64
	}
	evalOne := func(r workload.Request) (stageOut, error) {
		st, stats1, share1, err := p.stageTime(env, []workload.Request{r}, tokensOf, fc, combine)
		return stageOut{st, stats1, share1}, err
	}
	var outs []stageOut
	var err error
	// Tiny batches are mostly memoized perfmodel hits; spinning a
	// worker pool per decode step costs more than it saves there
	// (and this loop already nests under the experiment grid and
	// stage-ladder sweeps).
	if len(batch) < 4 {
		outs = make([]stageOut, len(batch))
		for i, r := range batch {
			if outs[i], err = evalOne(r); err != nil {
				return StepCost{}, err
			}
		}
	} else {
		if outs, err = sweep.Run(ctx, batch, func(_ context.Context, r workload.Request) (stageOut, error) {
			return evalOne(r)
		}); err != nil {
			return StepCost{}, err
		}
	}
	var stats Stats
	var share float64
	var sum, max float64
	for _, o := range outs {
		sum += o.sec
		if o.sec > max {
			max = o.sec
		}
		stats.Busy += o.stats.Busy
		stats.Cycles += o.stats.Cycles
		stats.Channels = o.stats.Channels
		share += o.share
		stats.MACs += o.stats.MACs
		stats.IOBytes += o.stats.IOBytes
		stats.ActPre += o.stats.ActPre
	}
	share /= float64(len(batch))
	iterSec := sum + float64(env.PP-1)*max
	return StepCost{Seconds: iterSec, AttnShare: share, Stats: stats}, nil
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

func (p pimOnly) Step(ctx context.Context, env *Env, batch []workload.Request, tokensOf TokensOf) (StepCost, error) {
	return p.step(ctx, env, batch, tokensOf, pnmFC, additive)
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
