package backend

import (
	"pimphony/internal/energy"
	"pimphony/internal/hub"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
)

// Stepper prices the decode iterations of one configuration a leap at a
// time. A leap is a run of iterations over a fixed batch in which every
// member grows by one token per iteration, so whatever the batch fixes —
// its size, FC and all-reduce costs, FC energy — is resolved once per
// leap. A Stepper memoizes across leaps, and its memos are pure in the
// configuration, so several engines may price through one Stepper as
// long as each leap's Start and Next calls end before the next leap
// starts: each cluster.System owns exactly one, and every Engine built
// from that System shares it. It is not safe for concurrent use.
//
// Within a leap a Stepper may price an iteration from the one before it
// (the PIM stepper's TCP runs), so every leap begins with Start, even
// one over the batch the last leap priced.
type Stepper interface {
	// Start begins a leap over toks, each batch member's current KV
	// length (prompt plus generated tokens) in batch order. The stepper
	// keeps the slice and advances it in place: every Next adds one
	// token to each member.
	Start(toks []int)
	// Next prices the leap's current iteration, energy included, into c
	// and then adds one token to each batch member.
	Next(c *StepCost) error
}

// pimStepper is the iteration pricer of the PIM-attention backends.
// Neither partitioning strategy needs its work lists built: under TCP
// each (request, KV head) token range splits into at most two
// per-channel shapes (token slices of base and base+1 tokens), and
// under HFP into the capacity tile plus one remainder, each placed
// round-robin. The stepper computes the per-channel cycle sums directly
// from those closed forms and memoizes each priced shape, so a decode
// iteration touches the perfmodel cache only when a token count the
// stepper has not seen yet appears. Everything ahead of the final stage
// fold is integer arithmetic over the priced values. Pipeline systems
// price one request-granular micro-batch per request and fold them
// (pipelined).
//
// Under TCP at PP = 1 and token shard 1 a full price also opens a run:
// the iterations after it in which no request changes its two slice
// prices or its softmax tile count. Across a run every counter grows by
// a fixed integer per iteration and the critical path is a prefix
// maximum of the full price's channel sums, so each of its iterations
// costs a few integer adds (advance) before the stage fold and energy
// every iteration pays.
type pimStepper struct {
	env     *Env
	fc      fcFunc
	combine combineFunc

	// geometry, resolved once per system
	kvHeads    int
	tokenShard int
	layers     int // layers per pipeline stage
	capTokens  int // HFP force-split channel capacity
	sc         perfmodel.Sched
	tcp        bool
	runs       bool // TCP at PP = 1 and token shard 1: full prices open runs
	baseline   bool
	hosted     bool // a host runs FC: no module FC energy
	queries    int
	emod       energy.Model // resolved once: Next prices energy every iteration

	// The memo tables are dense slices indexed by their small integer
	// keys (per-channel token counts, batch sizes): the serving hot path
	// hits them once per request per iteration, where a map lookup's
	// hashing dominated the lookup. The attention memo keeps its priced
	// values in lats, in pricing order, and latIdx maps a per-channel
	// token count to its index there, 0 while unpriced (lats[0] is
	// unused), so an index over 64K counts takes 256 KB where a dense
	// table of Latency values would take 5.8 MB. The per-batch memo has
	// a validity bitmap.
	lats    []perfmodel.Latency
	latIdx  []int32
	batch   []batchCost // by batch size
	batchOK []bool
	chSum   []timing.Cycles // per-channel scratch; a run's prefix maxima (see tcpRun)
	red     timing.Cycles   // TCP's per-head SV reduction, constant per system
	deltas  []tcpDelta      // TCP scratch: each request's extra-slice delta

	// The leap Start fixed: the batch's token counts, which Next
	// advances in place, its micro-batch's FC and all-reduce seconds,
	// and its FC energy. Within a leap a micro-batch's stage time and
	// attention share depend only on its critical-path cycles, so the
	// last ones computed are kept with their cycles (cyc, -1 once a new
	// leap starts).
	toks       []int
	fcSec      float64
	syncSec    float64
	fcE        energy.Breakdown
	cyc        timing.Cycles
	sec, share float64

	// layer is the current iteration's per-layer attention stats at
	// PP = 1, which a run advances in place, and run the open run.
	layer Stats
	run   tcpRun

	// Softmax pricing constants resolved once: softmax runs once per
	// request per iteration, so it reads no Device per call. (A
	// per-token-count memo does not pay here — decode sweeps
	// mostly-distinct token counts, so it never warms up.)
	softEPT     int
	softBase    timing.Cycles
	softPerTile timing.Cycles
}

// batchCost is what a batch size fixes for a whole leap: one layer's FC
// and TP all-reduce seconds for a micro-batch of that size, and one
// iteration's FC energy for a batch of that size (zero when a host runs
// FC).
type batchCost struct {
	fc, sync float64
	fcE      energy.Breakdown
}

// tcpDelta is one request's extra-slice delta under TCP: the cycles its
// base+1-token slices cost over its base-token slices (across its KV
// heads), carried by channels below rem.
type tcpDelta struct {
	rem int
	d   timing.Cycles
}

// tcpRun is what a full TCP price fixes for the iterations after it
// that the same prices cover: how many are left and how many have gone
// (k), the per-iteration increments of Busy, MACs, IOBytes and ActPre
// (d), the softmax and reduction cycles on top of the channel maximum
// (resid), and whether a delta was negative, in which case chSum holds
// the prefix maxima of the full price's channel sums.
type tcpRun struct {
	left, k int
	d       Stats
	resid   timing.Cycles
	peaks   bool
}

func newPIMStepper(env *Env, b *pimBackend) *pimStepper {
	kvHeads, tokenShard := headGeometry(env)
	sc, baseline := schedKind(env)
	s := &pimStepper{
		env: env, fc: b.fc, combine: b.combine,
		kvHeads: kvHeads, tokenShard: tokenShard, layers: env.Model.Layers / env.PP,
		tcp: env.Tech.TCP, runs: env.Tech.TCP && env.PP == 1 && tokenShard == 1,
		sc: sc, baseline: baseline, hosted: b.hosted,
		queries: env.Model.GQAGroup, emod: energy.Default(),
		lats:  make([]perfmodel.Latency, 1),
		chSum: make([]timing.Cycles, env.Dev.Channels),
		red:   hub.ReduceCycles(env.Dev, env.Dev.Channels, env.Model.HeadDim),

		softEPT:     env.Dev.ElemsPerTile(),
		softBase:    env.Dev.EPUSoftmaxBase,
		softPerTile: env.Dev.EPUSoftmaxPerTile,
	}
	if !s.tcp {
		s.capTokens = headCapacityTokens(env)
	}
	return s
}

// softmax is the EPU cost of a softmax over `scores` values: a fixed
// base plus a per-tile marginal (the EPU streams score tiles from the
// GPR). It also returns how many more scores the same tiles hold.
func (s *pimStepper) softmax(scores int) (timing.Cycles, int) {
	tiles := (scores + s.softEPT - 1) / s.softEPT
	return s.softBase + timing.Cycles(tiles)*s.softPerTile, tiles*s.softEPT - scores
}

// Start implements Stepper. A pipelined leap prices one request per
// micro-batch, so its stage costs are those of a batch of one; its FC
// energy is the whole batch's.
func (s *pimStepper) Start(toks []int) {
	s.toks, s.cyc, s.run.left = toks, -1, 0
	bc := s.batchCost(len(toks))
	s.fcE = bc.fcE
	if s.env.PP > 1 {
		bc = s.batchCost(1)
	}
	s.fcSec, s.syncSec = bc.fc, bc.sync
}

// Next implements Stepper. The attention energy prices the iteration's
// stats on the module model: they cover one module's shard (TP) of one
// stage (PP), all Modules perform equivalent shards, and background
// power accrues only over the attention phase of the iteration.
func (s *pimStepper) Next(c *StepCost) error {
	if s.env.PP > 1 {
		if err := s.pipelined(c); err != nil {
			return err
		}
	} else {
		if s.run.left > 0 {
			s.advance()
		} else if err := s.attention(s.toks, &s.layer); err != nil {
			return err
		}
		c.Stats = s.layer
		s.stage(c)
	}
	env := s.env
	attnCycles := timing.Cycles(c.Seconds * c.AttnShare * cyclesPerSecond)
	c.AttnEnergy = s.emod.ForAggregate(&env.Dev, c.Stats.MACs, c.Stats.IOBytes, c.Stats.ActPre,
		c.Stats.Channels, attnCycles).Scale(float64(env.Modules))
	c.FCEnergy = s.fcE
	for i := range s.toks {
		s.toks[i]++
	}
	return nil
}

// advance prices the open run's next iteration from the last. Every
// request's rem has grown by one, so each counter grows by its
// increment, and after k iterations channel ch carries what channel
// ch-k carried at the full price (channel 0's below k): the channel
// maximum is the prefix maximum over channels 0..C-1-k, and with no
// negative delta it stays on channel 0.
func (s *pimStepper) advance() {
	r, st := &s.run, &s.layer
	r.left--
	r.k++
	st.Busy += r.d.Busy
	st.MACs += r.d.MACs
	st.IOBytes += r.d.IOBytes
	st.ActPre += r.d.ActPre
	if r.peaks {
		st.Cycles = s.chSum[len(s.chSum)-1-r.k] + r.resid
	}
}

// stage folds one micro-batch's per-layer attention stats in c.Stats
// with the leap's FC and all-reduce seconds into its stage time and
// attention share, and scales the stats to the stage. The two float
// results depend only on the cycles within a leap, so they are
// recomputed only when the cycles change.
func (s *pimStepper) stage(c *StepCost) {
	st := &c.Stats
	if st.Cycles != s.cyc {
		attnSec := float64(st.Cycles) / cyclesPerSecond
		layerSec := s.combine(attnSec, s.fcSec, s.syncSec)
		s.cyc, s.sec, s.share = st.Cycles, layerSec*float64(s.layers), attnSec/layerSec
	}
	c.Seconds, c.AttnShare = s.sec, s.share
	layers := s.layers
	st.Cycles *= timing.Cycles(layers)
	st.Busy *= timing.Cycles(layers)
	st.MACs *= int64(layers)
	st.IOBytes *= int64(layers)
	st.ActPre *= int64(layers)
}

// pipelined prices a pipeline-parallel iteration: every request is its
// own micro-batch through PP stages, so the iteration takes the sum of
// the per-request stage times plus PP-1 bubbles of the longest, the
// attention counters sum and the attention shares average, folded in
// request order.
func (s *pimStepper) pipelined(c *StepCost) error {
	toks := s.toks
	*c = StepCost{}
	var o StepCost
	var sum, longest float64
	for i := range toks {
		if err := s.attention(toks[i:i+1], &o.Stats); err != nil {
			return err
		}
		s.stage(&o)
		sum += o.Seconds
		if o.Seconds > longest {
			longest = o.Seconds
		}
		c.Stats.Busy += o.Stats.Busy
		c.Stats.Cycles += o.Stats.Cycles
		c.Stats.Channels = o.Stats.Channels
		c.AttnShare += o.AttnShare
		c.Stats.MACs += o.Stats.MACs
		c.Stats.IOBytes += o.Stats.IOBytes
		c.Stats.ActPre += o.Stats.ActPre
	}
	c.AttnShare /= float64(len(toks))
	c.Seconds = sum + float64(s.env.PP-1)*longest
	return nil
}

// batchCost memoizes what a batch size fixes for a leap.
func (s *pimStepper) batchCost(batch int) batchCost {
	if batch < len(s.batchOK) && s.batchOK[batch] {
		return s.batch[batch]
	}
	v := batchCost{fc: s.fc(s.env, batch), sync: float64(syncCycles(s.env, batch)) / cyclesPerSecond}
	if !s.hosted {
		v.fcE = fcEnergy(s.env, s.emod, batch)
	}
	s.batch, s.batchOK = memoPut(s.batch, s.batchOK, batch, v)
	return v
}

// memoPut stores v at index k, growing the dense memo to fit.
func memoPut[T any](vals []T, ok []bool, k int, v T) ([]T, []bool) {
	if k >= len(vals) {
		vals = append(vals, make([]T, k+1-len(vals))...)
		ok = append(ok, make([]bool, k+1-len(ok))...)
	}
	vals[k] = v
	ok[k] = true
	return vals, ok
}

// price memoizes priceAttention for one per-channel token count (the
// query count is the GQA group for every work of a batch). It returns
// the memo index rather than the Latency value so hot callers read the
// few fields they need in place instead of copying the whole struct;
// the index stays valid across later price calls (only the slice header
// moves on growth), but a *pointer* into s.lats would not.
func (s *pimStepper) price(tokens int) (int, error) {
	if tokens < len(s.latIdx) && s.latIdx[tokens] != 0 {
		return int(s.latIdx[tokens]), nil
	}
	l, err := priceAttention(s.env, tokens, s.env.Model.HeadDim, s.queries, s.baseline, s.sc)
	if err != nil {
		return 0, err
	}
	if tokens >= len(s.latIdx) {
		s.latIdx = append(s.latIdx, make([]int32, tokens+1-len(s.latIdx))...)
	}
	s.latIdx[tokens] = int32(len(s.lats))
	s.lats = append(s.lats, l)
	return len(s.lats) - 1, nil
}

// attention prices one layer's attention on one module group into st:
// the critical-path channel cycles plus the EPU softmax and TCP
// reduction residues, and the summed MAC, I/O and ACT/PRE counters.
// toks holds each micro-batch member's current KV length.
func (s *pimStepper) attention(toks []int, st *Stats) error {
	env := s.env
	channels := env.Dev.Channels
	*st = Stats{Channels: channels}
	if s.tcp {
		// TCP slices every (request, head) token range evenly over all
		// channels: rem channels carry base+1 tokens, the rest base. The
		// per-channel sums are never walked per request: a request adds
		// C0 to every channel and its delta C1-C0 to channels below its
		// rem, so sums[ch] = ΣC0 + Σ_{rem>ch}(C1-C0), all integer cycles.
		//
		// A request with rem ≥ 1 keeps both slice prices for C-rem more
		// iterations (the last with base+1 tokens on every channel), one
		// with rem = 0 for none, and its softmax tile count while its
		// last tile has room: the run is the least of these, and each
		// of its iterations adds every request's C1-C0 counters once.
		var base0, extra, busy, softSum, dBusy timing.Cycles
		var macs, io, ap, dMACs, dIO, dAP int64
		var negative bool
		run := channels - 1
		deltas := s.deltas[:0]
		heads := timing.Cycles(s.kvHeads)
		kh := int64(s.kvHeads)
		for _, tok := range toks {
			t := tok
			if s.tokenShard != 1 {
				t = (tok + s.tokenShard - 1) / s.tokenShard
			}
			base, rem := t/channels, t%channels
			var cyc0, mac0, cyc1, mac1 timing.Cycles
			var macs0, io0, ap0, macs1, io1, ap1 int64
			if base > 0 {
				i0, err := s.price(base)
				if err != nil {
					return err
				}
				l := &s.lats[i0]
				cyc0, mac0, macs0, io0, ap0 = l.Cycles, l.Breakdown.MAC, l.MACs, l.IOBytes, l.ActPre
			}
			if rem > 0 {
				i1, err := s.price(base + 1)
				if err != nil {
					return err
				}
				l := &s.lats[i1]
				cyc1, mac1, macs1, io1, ap1 = l.Cycles, l.Breakdown.MAC, l.MACs, l.IOBytes, l.ActPre
			}
			c0h := cyc0 * heads
			base0 += c0h
			if rem > 0 {
				d := cyc1*heads - c0h
				extra += d
				negative = negative || d < 0
				deltas = append(deltas, tcpDelta{rem: rem, d: d})
				run = min(run, channels-rem)
			} else {
				run = 0
			}
			n1 := int64(rem)
			n0 := int64(channels - rem)
			if base == 0 {
				n0 = 0 // zero-token slices are not placed
			}
			busy += timing.Cycles((int64(mac1)*n1 + int64(mac0)*n0) * kh)
			macs += (macs1*n1 + macs0*n0) * kh
			io += (io1*n1 + io0*n0) * kh
			ap += (ap1*n1 + ap0*n0) * kh
			dBusy += (mac1 - mac0) * heads
			dMACs += (macs1 - macs0) * kh
			dIO += (io1 - io0) * kh
			dAP += (ap1 - ap0) * kh
			sm, room := s.softmax(t)
			softSum += sm
			run = min(run, room)
		}
		s.deltas = deltas
		st.Busy, st.MACs, st.IOBytes, st.ActPre = busy, macs, io, ap
		// Channel 0 carries every delta. With none negative the sums
		// only fall as ch grows, so channel 0 holds the maximum. A
		// negative delta (base+1 tokens priced below base at a
		// quantization-bucket edge) can move it, so then accumulate a
		// rem-indexed delta histogram and sweep the sums up from channel
		// 0, leaving each channel's prefix maximum in chSum for the run.
		maxCh := base0 + extra
		if negative {
			dd := s.chSum
			clear(dd)
			for _, x := range deltas {
				dd[x.rem] += x.d
			}
			sum := maxCh
			for ch, d := range dd {
				sum -= d
				maxCh = max(maxCh, sum)
				dd[ch] = maxCh
			}
		}
		// EPU softmax: one per (request, query head) on this module,
		// spread over the EPU lanes. TCP also pays one SV reduction per
		// (request, KV head); the HUB reduces completed heads while the
		// channels compute the next, so only the lane-parallel EPU
		// residue is exposed (the paper measures < 0.2% of attention
		// latency).
		qHeads := s.kvHeads * env.Model.GQAGroup
		resid := softSum*timing.Cycles(qHeads)/epuLanes + s.red*timing.Cycles(len(toks)*s.kvHeads)/epuLanes
		st.Cycles = maxCh + resid
		if s.runs {
			// Field by field: a struct literal here costs a zeroing and a
			// copy on every full price.
			r := &s.run
			r.left, r.k, r.resid, r.peaks = run, 0, resid, negative
			r.d.Busy, r.d.MACs, r.d.IOBytes, r.d.ActPre = dBusy, dMACs, dIO, dAP
		}
		return nil
	}
	sums := s.chSum
	for i := range sums {
		sums[i] = 0
	}
	// HFP places whole (request, head) tiles round-robin, force-split
	// at the channel capacity.
	i := 0
	place := func(tokens int) error {
		idx, err := s.price(tokens)
		if err != nil {
			return err
		}
		c := &s.lats[idx]
		sums[i%channels] += c.Cycles
		st.Busy += c.Breakdown.MAC
		st.MACs += c.MACs
		st.IOBytes += c.IOBytes
		st.ActPre += c.ActPre
		i++
		return nil
	}
	for _, tok := range toks {
		t := (tok + s.tokenShard - 1) / s.tokenShard
		for h := 0; h < s.kvHeads; h++ {
			tt := t
			if s.capTokens > 0 {
				for tt > s.capTokens {
					if err := place(s.capTokens); err != nil {
						return err
					}
					tt -= s.capTokens
				}
			}
			if tt > 0 {
				if err := place(tt); err != nil {
					return err
				}
			}
		}
	}
	var maxCh timing.Cycles
	for _, c := range sums {
		if c > maxCh {
			maxCh = c
		}
	}
	st.Cycles = maxCh
	var softmax timing.Cycles
	qHeads := s.kvHeads * env.Model.GQAGroup
	for _, tok := range toks {
		sm, _ := s.softmax((tok + s.tokenShard - 1) / s.tokenShard)
		softmax += sm * timing.Cycles(qHeads)
	}
	st.Cycles += softmax / epuLanes
	return nil
}
