package backend

import (
	"fmt"
	"testing"

	"pimphony/internal/energy"
	"pimphony/internal/hub"
	"pimphony/internal/mapping"
	"pimphony/internal/timing"
)

// refStepper is the naive iteration pricer the memoizing stepper
// replaced, kept as its differential oracle. Every iteration it
// materializes the mapping.Assign work lists of each micro-batch and
// prices every (channel, work) unit through perfmodel; under pipeline
// parallelism it prices one micro-batch per request and folds them in
// request order. Energy follows from the folded cost (refEnergy).
// priced records every per-channel token count it priced, and critical
// the channel that carried the last micro-batch's critical path (the
// first on ties).
type refStepper struct {
	env      *Env
	fc       fcFunc
	combine  combineFunc
	hosted   bool
	priced   map[int]bool
	critical int
}

// newRefStepper wires the reference to a PIM-attention backend's FC
// pricing, layer composition and FC placement.
func newRefStepper(be Backend, env *Env) *refStepper {
	p, ok := be.(*pimBackend)
	if !ok {
		panic(fmt.Sprintf("no reference pricer for backend %s", be.Name()))
	}
	return &refStepper{env: env, fc: p.fc, combine: p.combine, hosted: p.hosted, priced: map[int]bool{}}
}

// Step prices one iteration of a batch whose members hold toks tokens.
func (r *refStepper) Step(toks []int) (StepCost, error) {
	var c StepCost
	if r.env.PP == 1 {
		sec, stats, share, err := r.stage(toks)
		if err != nil {
			return StepCost{}, err
		}
		c = StepCost{Seconds: sec, AttnShare: share, Stats: stats}
	} else {
		// Request-granular micro-batches through PP stages: sum of
		// per-request stage times + (PP-1) bubbles of the max.
		var stats Stats
		var share, sum, max float64
		for _, t := range toks {
			sec, st, sh, err := r.stage([]int{t})
			if err != nil {
				return StepCost{}, err
			}
			sum += sec
			if sec > max {
				max = sec
			}
			stats.Busy += st.Busy
			stats.Cycles += st.Cycles
			stats.Channels = st.Channels
			share += sh
			stats.MACs += st.MACs
			stats.IOBytes += st.IOBytes
			stats.ActPre += st.ActPre
		}
		share /= float64(len(toks))
		c = StepCost{Seconds: sum + float64(r.env.PP-1)*max, AttnShare: share, Stats: stats}
	}
	c.AttnEnergy, c.FCEnergy = refEnergy(r.env, r.hosted, c, len(toks))
	return c, nil
}

// refEnergy prices one iteration's energy on the PIM module model from
// its cost: the stats cover one module's shard (TP) of one stage (PP),
// all Modules perform equivalent shards, and background power accrues
// only over the attention phase of the iteration. A host-side FC burns
// HBM/GPU energy outside the module model, so its share is zero.
func refEnergy(env *Env, hosted bool, cost StepCost, batch int) (attn, fc energy.Breakdown) {
	attnCycles := timing.Cycles(cost.Seconds * cost.AttnShare * cyclesPerSecond)
	m := energy.Default()
	attn = m.ForAggregate(&env.Dev, cost.Stats.MACs, cost.Stats.IOBytes, cost.Stats.ActPre,
		cost.Stats.Channels, attnCycles).Scale(float64(env.Modules))
	if hosted {
		return attn, energy.Breakdown{}
	}
	return attn, fcEnergy(env, m, batch)
}

// stage returns the per-stage time in seconds for a micro-batch, its
// attention stats and the attention share.
func (r *refStepper) stage(toks []int) (float64, Stats, float64, error) {
	at, err := r.attention(toks)
	if err != nil {
		return 0, Stats{}, 0, err
	}
	fcSec := r.fc(r.env, len(toks))
	syncSec := float64(syncCycles(r.env, len(toks))) / cyclesPerSecond
	stage, at, attnShare := composeStage(r.env, at, fcSec, syncSec, r.combine)
	return stage, at, attnShare, nil
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

// attention evaluates one layer's attention time on one module group
// for a micro-batch.
func (r *refStepper) attention(toks []int) (Stats, error) {
	env := r.env
	m := env.Model
	kvHeadsPerModule, tokenShard := headGeometry(env)
	mreqs := make([]mapping.Request, len(toks))
	for i, tok := range toks {
		mreqs[i] = mapping.Request{ID: i, Tokens: (tok + tokenShard - 1) / tokenShard}
	}
	var strategy mapping.Strategy = mapping.TCP{}
	if !env.Tech.TCP {
		strategy = mapping.HFP{CapacityTokens: headCapacityTokens(env)}
	}
	assign, err := strategy.Assign(mreqs, kvHeadsPerModule, m.GQAGroup, env.Dev.Channels)
	if err != nil {
		return Stats{}, err
	}
	sc, baseline := schedKind(env)
	var st Stats
	st.Channels = env.Dev.Channels
	var maxCh timing.Cycles
	r.critical = 0
	for ch, works := range assign.Channels {
		var chCycles timing.Cycles
		for _, w := range works {
			lat, err := priceAttention(env, w.Tokens, m.HeadDim, w.Queries, baseline, sc)
			if err != nil {
				return Stats{}, err
			}
			r.priced[w.Tokens] = true
			chCycles += lat.Cycles
			st.Busy += lat.Breakdown.MAC
			st.MACs += lat.MACs
			st.IOBytes += lat.IOBytes
			st.ActPre += lat.ActPre
		}
		if chCycles > maxCh {
			maxCh, r.critical = chCycles, ch
		}
	}
	st.Cycles = maxCh
	var softmax timing.Cycles
	qHeadsPerModule := kvHeadsPerModule * m.GQAGroup
	for _, tok := range toks {
		softmax += softmaxCycles(env.Dev, (tok+tokenShard-1)/tokenShard) * timing.Cycles(qHeadsPerModule)
	}
	st.Cycles += softmax / epuLanes
	if env.Tech.TCP {
		red := hub.ReduceCycles(env.Dev, env.Dev.Channels, m.HeadDim)
		st.Cycles += red * timing.Cycles(len(toks)*kvHeadsPerModule) / epuLanes
	}
	return st, nil
}

// softmaxCycles is the EPU cost of a softmax over `scores` values: a
// fixed base plus a per-tile marginal (the EPU streams score tiles from
// the GPR). It is the reference for the stepper's pre-resolved copy.
func softmaxCycles(dev timing.Device, scores int) timing.Cycles {
	tiles := (scores + dev.ElemsPerTile() - 1) / dev.ElemsPerTile()
	return dev.EPUSoftmaxBase + timing.Cycles(tiles)*dev.EPUSoftmaxPerTile
}

func TestSoftmaxCyclesScale(t *testing.T) {
	dev := timing.AiM16()
	short := softmaxCycles(dev, 1024)
	long := softmaxCycles(dev, 65536)
	if long <= short {
		t.Fatal("softmax cost should grow with score count")
	}
	// Base cost dominates only for tiny inputs.
	if softmaxCycles(dev, 16) <= 0 {
		t.Fatal("softmax cost must be positive")
	}
}
