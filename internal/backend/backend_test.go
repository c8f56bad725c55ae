package backend

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pimphony/internal/model"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
	"pimphony/internal/xpu"
)

// pimEnv builds a CENT-shaped environment with live pricing services.
func pimEnv(m model.Config, tech Technique) *Env {
	dev := timing.AiM16().WithChannels(32).WithCapacity(16 << 30)
	return &Env{
		Name: "test-pim", Dev: dev, Modules: 8, TP: 8, PP: 1,
		Model: m, Tech: tech,
		Perf: perfmodel.New(dev),
	}
}

// dimmEnv builds a DIMM-PIM-shaped environment.
func dimmEnv(m model.Config, tech Technique) *Env {
	dev := timing.DDR5DIMM()
	return &Env{
		Name: "test-dimm", Dev: dev, Modules: 8, TP: 8, PP: 1,
		Model: m, Tech: tech,
		Perf: perfmodel.New(dev),
	}
}

// gpuEnv builds the A100-baseline environment (no PIM services needed).
func gpuEnv(m model.Config) *Env {
	return &Env{Name: "test-gpu", GPUs: 2, Model: m}
}

func smallBatch(n int) []workload.Request {
	return workload.Uniform(8192, 3).Batch(n)
}

// toksOf lists a batch's prompt lengths in batch order: the KV lengths
// a stepper prices before any token is generated.
func toksOf(batch []workload.Request) []int {
	toks := make([]int, len(batch))
	for i, r := range batch {
		toks[i] = r.Context
	}
	return toks
}

// step prices one iteration of a batch holding toks tokens as a
// one-iteration leap, leaving toks as it was.
func step(t testing.TB, st Stepper, toks []int) StepCost {
	t.Helper()
	var c StepCost
	st.Start(slices.Clone(toks))
	if err := st.Next(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegistryNamesAndLookup(t *testing.T) {
	names := Names()
	want := []string{DIMMPIM, GPU, PIMOnly, XPUPIM}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q (sorted)", i, names[i], n)
		}
	}
	for _, n := range names {
		b, err := Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if b.Name() != n {
			t.Errorf("Lookup(%q).Name() = %q", n, b.Name())
		}
		if b.Describe() == "" {
			t.Errorf("%s has no description", n)
		}
	}
	// The empty name is the historical default organisation.
	if b, err := Lookup(""); err != nil || b.Name() != PIMOnly {
		t.Errorf(`Lookup("") = %v, %v; want pim-only`, b, err)
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown lookup should name the offender: %v", err)
	}
}

func TestValidate(t *testing.T) {
	m := model.LLM7B32K()
	pim, _ := Lookup(PIMOnly)
	if err := pim.Validate(pimEnv(m, Baseline())); err != nil {
		t.Errorf("valid pim env rejected: %v", err)
	}
	bad := pimEnv(m, Baseline())
	bad.TP, bad.PP = 3, 1 // 3*1 != 8 modules
	if err := pim.Validate(bad); err == nil {
		t.Error("TP*PP != Modules should fail")
	}
	badTP := pimEnv(m, Baseline())
	badTP.Modules, badTP.TP = 48, 48 // 48 neither divides nor is divided by 32 heads
	if err := pim.Validate(badTP); err == nil {
		t.Error("non-dividing TP should fail")
	}
	badPP := pimEnv(m, Baseline())
	badPP.Modules, badPP.TP, badPP.PP = 3, 1, 3 // 32 layers % 3 != 0
	if err := pim.Validate(badPP); err == nil {
		t.Error("PP not dividing layers should fail")
	}
	g, _ := Lookup(GPU)
	if err := g.Validate(gpuEnv(m)); err != nil {
		t.Errorf("valid gpu env rejected: %v", err)
	}
	noGPUs := gpuEnv(m)
	noGPUs.GPUs = 0
	if err := g.Validate(noGPUs); err == nil {
		t.Error("GPUs=0 should fail")
	}
}

func TestCapacityBytes(t *testing.T) {
	m := model.LLM7B32K()
	env := pimEnv(m, Baseline())
	pim, _ := Lookup(PIMOnly)
	if got, want := pim.CapacityBytes(env), int64(env.Modules)*env.Dev.ModuleBytes(); got != want {
		t.Errorf("pim capacity %d, want %d", got, want)
	}
	g, _ := Lookup(GPU)
	if got, want := g.CapacityBytes(gpuEnv(m)), int64(2)*xpu.A100().MemBytes; got != want {
		t.Errorf("gpu capacity %d, want %d", got, want)
	}
	d, _ := Lookup(DIMMPIM)
	de := dimmEnv(m, Baseline())
	if got, want := d.CapacityBytes(de), int64(8)*timing.DDR5DIMM().ModuleBytes(); got != want {
		t.Errorf("dimm capacity %d, want %d", got, want)
	}
}

func TestAdmissionParameters(t *testing.T) {
	m := model.LLM7B32K()
	pim, _ := Lookup(PIMOnly)
	// Head-first placement bounds admission only without TCP.
	hfp := pim.Admission(pimEnv(m, Baseline()))
	if hfp.HeadBudget <= 0 || hfp.KVHeadsPerModule != m.KVHeads()/8 {
		t.Errorf("HFP admission %+v lacks a head budget", hfp)
	}
	tcp := pim.Admission(pimEnv(m, PIMphony()))
	if tcp.HeadBudget != 0 {
		t.Errorf("TCP admission should not carry a head budget: %+v", tcp)
	}
	if hfp.WeightsHosted || hfp.PagedEff != 0 {
		t.Errorf("pim admission has GPU-shaped fields: %+v", hfp)
	}
	g, _ := Lookup(GPU)
	if ga := g.Admission(gpuEnv(m)); ga.PagedEff != xpu.A100().PagedAttentionEff {
		t.Errorf("gpu admission must carry the paged-attention efficiency: %+v", ga)
	}
	d, _ := Lookup(DIMMPIM)
	da := d.Admission(dimmEnv(m, PIMphony()))
	if !da.WeightsHosted {
		t.Error("dimm-pim pool must be all-KV (weights hosted)")
	}
}

// TestTokenShardGeometry covers TP beyond the KV-head count: the token
// axis shards and the head budget scales with the shard factor.
func TestTokenShardGeometry(t *testing.T) {
	m := model.LLM7B128KGQA() // 8 KV heads
	env := pimEnv(m, Baseline())
	env.Modules, env.TP = 16, 16 // TP 16 > 8 KV heads -> token shard 2
	kvHeads, shard := headGeometry(env)
	if kvHeads != 1 || shard != 2 {
		t.Fatalf("headGeometry = (%d, %d), want (1, 2)", kvHeads, shard)
	}
	adm := pimOnly.Admission(env)
	if adm.KVHeadsPerModule != 1 {
		t.Errorf("admission kv heads %d, want 1", adm.KVHeadsPerModule)
	}
}

// TestStepDeterministicAndOrdered: a stepper prices the same batch
// identically from a cold memo and a warm one.
func TestStepDeterministicAndOrdered(t *testing.T) {
	m := model.LLM7B32K()
	toks := toksOf(smallBatch(6))
	for _, name := range []string{PIMOnly, XPUPIM, DIMMPIM} {
		b, _ := Lookup(name)
		env := pimEnv(m, PIMphony())
		if name == DIMMPIM {
			env = dimmEnv(m, PIMphony())
		}
		st := b.NewStepper(env)
		c1 := step(t, st, toks)
		c2 := step(t, st, toks)
		if c1 != c2 {
			t.Errorf("%s: Step not deterministic: %+v vs %+v", name, c1, c2)
		}
		if c1.Seconds <= 0 || c1.AttnShare <= 0 || c1.AttnShare > 1 {
			t.Errorf("%s: implausible cost %+v", name, c1)
		}
		if c1.Stats.Cycles <= 0 || c1.Stats.Channels != env.Dev.Channels {
			t.Errorf("%s: missing attention stats %+v", name, c1.Stats)
		}
	}
}

// TestOverlapBeatsAdditive: with identical phase times, the NeuPIMs
// combine must be cheaper than the additive one by 85% of the shorter
// phase.
func TestOverlapBeatsAdditive(t *testing.T) {
	if add, over := additive(3, 2, 1), overlapped(3, 2, 1); over >= add {
		t.Errorf("overlap %g should beat additive %g", over, add)
	}
	if got := overlapped(2, 3, 0); got != 3+0.15*2 {
		t.Errorf("overlapped(2,3,0) = %g", got)
	}
}

// TestPPPipelineComposition: with PP stages, one request's iteration is
// its per-stage time times (1 + PP-1) bubbles — cross-checked against
// the reference's stage of the same request.
func TestPPPipelineComposition(t *testing.T) {
	m := model.LLM7B32K()
	b, _ := Lookup(PIMOnly)
	one := toksOf(smallBatch(1))
	ppEnv := pimEnv(m, PIMphony())
	ppEnv.Modules, ppEnv.TP, ppEnv.PP = 8, 1, 8
	cost := step(t, b.NewStepper(ppEnv), one)
	stage, _, _, err := newRefStepper(b, ppEnv).stage(one)
	if err != nil {
		t.Fatal(err)
	}
	want := stage + 7*stage
	if diff := cost.Seconds - want; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("PP iteration %g, want stage+7 bubbles = %g", cost.Seconds, want)
	}
}

// TestGPUStepMatchesRoofline: the GPU step is the plain A100 roofline
// sum of batched FC and flash-decoding attention.
func TestGPUStepMatchesRoofline(t *testing.T) {
	m := model.LLM7B32K()
	env := gpuEnv(m)
	b, _ := Lookup(GPU)
	batch := smallBatch(4)
	cost := step(t, b.NewStepper(env), toksOf(batch))
	g := xpu.A100()
	var kv int64
	for _, r := range batch {
		kv += m.KVBytes(r.Context)
	}
	fc := g.OpTime(4*m.FCFlopsPerToken()/2, m.WeightBytes()/2)
	attn := g.AttentionTime(kv / 2)
	if cost.Seconds != fc+attn {
		t.Errorf("gpu step %g, want %g", cost.Seconds, fc+attn)
	}
	if cost.Stats != (Stats{}) {
		t.Errorf("gpu step should carry no PIM stats: %+v", cost.Stats)
	}
	// A leap prices each iteration at its own token counts.
	st := b.NewStepper(env)
	toks := toksOf(batch)
	st.Start(toks)
	for i := 0; i < 3; i++ {
		var c StepCost
		if err := st.Next(&c); err != nil {
			t.Fatal(err)
		}
		var kv int64
		for _, r := range batch {
			kv += m.KVBytes(r.Context + i)
		}
		if want := fc + g.AttentionTime(kv/2); c.Seconds != want {
			t.Errorf("gpu leap iteration %d: %g, want %g", i, c.Seconds, want)
		}
	}
	if toks[0] != batch[0].Context+3 {
		t.Errorf("gpu leap left toks at %v, want each prompt plus 3", toks)
	}
	// Zero is the GPU's floor: true for every iteration, and it gains
	// nothing.
	if f := st.Floor(len(batch)); f != 0 {
		t.Errorf("gpu floor %g, want 0", f)
	}
}

// TestIterEnergyPerBackend: every stepper prices its iteration's
// energy. The PIM-attention backends price positive attention energy;
// pim-only's PNM and xpu+pim's NPU burn module FC energy, while
// dimm-pim's host GPU burns none on the module model; the GPU is
// outside the model altogether.
func TestIterEnergyPerBackend(t *testing.T) {
	m := model.LLM7B32K()
	toks := toksOf(smallBatch(4))
	for _, c := range []struct {
		be  Backend
		env *Env
		fc  bool
	}{
		{pimOnly, pimEnv(m, PIMphony()), true},
		{xpuPIM, pimEnv(m, PIMphony()), true},
		{dimmPIM, dimmEnv(m, PIMphony()), false},
	} {
		cost := step(t, c.be.NewStepper(c.env), toks)
		if cost.AttnEnergy.Total() <= 0 {
			t.Errorf("%s attention energy must be positive, got %g", c.be.Name(), cost.AttnEnergy.Total())
		}
		if fc := cost.FCEnergy.Total(); (fc > 0) != c.fc || fc < 0 {
			t.Errorf("%s FC energy %g, want positive %v", c.be.Name(), fc, c.fc)
		}
	}
	if cost := step(t, gpu{}.NewStepper(gpuEnv(m)), toks); cost.AttnEnergy.Total() != 0 || cost.FCEnergy.Total() != 0 {
		t.Error("gpu energy must be zero (outside the module model)")
	}
}

// TestPrefillOrdering: the 3-TFLOPS PNM is the slowest prefill engine;
// the DIMM-PIM host GPU and the A100 baseline are dense-engine class.
func TestPrefillOrdering(t *testing.T) {
	m := model.LLM7B32K()
	const ctx = 32768
	pim, _ := Lookup(PIMOnly)
	xp, _ := Lookup(XPUPIM)
	g, _ := Lookup(GPU)
	d, _ := Lookup(DIMMPIM)
	pp := pim.PrefillSeconds(pimEnv(m, PIMphony()), ctx)
	xn := xp.PrefillSeconds(pimEnv(m, PIMphony()), ctx)
	gg := g.PrefillSeconds(gpuEnv(m), ctx)
	dd := d.PrefillSeconds(dimmEnv(m, PIMphony()), ctx)
	if !(pp > xn && pp > gg && pp > dd) {
		t.Errorf("PNM prefill %.3fs should be slowest (npu %.3fs, gpu %.3fs, dimm host %.3fs)", pp, xn, gg, dd)
	}
	for _, v := range []float64{pp, xn, gg, dd} {
		if v <= 0 {
			t.Error("prefill times must be positive")
		}
	}
}

// TestDCSAcceleratesPNMFC: the DCS command interval and deeper OBuf must
// not slow the PNM FC path down.
func TestDCSAcceleratesPNMFC(t *testing.T) {
	m := model.LLM72B32K()
	base := pimEnv(m, Baseline())
	base.Modules, base.TP = 32, 32
	dcs := pimEnv(m, Technique{DCS: true})
	dcs.Modules, dcs.TP = 32, 32
	for _, batch := range []int{1, 8, 64} {
		b, d := pnmFC(base, batch), pnmFC(dcs, batch)
		if d > b {
			t.Errorf("batch %d: DCS FC %g slower than static %g", batch, d, b)
		}
	}
}

// TestAllocatorFallbackSelection: a zero Admission.PagedEff means the
// cluster picks static vs DPA from the technique — make sure the PIM
// backends leave it zero so that contract holds.
func TestAllocatorFallbackSelection(t *testing.T) {
	m := model.LLM7B32K()
	for _, name := range []string{PIMOnly, XPUPIM, DIMMPIM} {
		b, _ := Lookup(name)
		env := pimEnv(m, PIMphony())
		if name == DIMMPIM {
			env = dimmEnv(m, PIMphony())
		}
		if adm := b.Admission(env); adm.PagedEff != 0 {
			t.Errorf("%s overrides the technique-selected allocator: %+v", name, adm)
		}
	}
}

// TestStepMatchesReference pins the stepper's contract: for every
// PIM-attention backend, technique mix and geometry, pipelines included,
// each iteration a NewStepper(env) leap prices must be the exact
// StepCost, energy included, that the naive reference computes for that
// iteration's token counts — bit for bit — across one-iteration and
// multi-iteration leaps, growing token counts (bucket crossings
// included) and batch changes between leaps. Its memo must end up
// holding exactly the per-channel token counts the reference priced: a
// stepper that priced a shape its fold never uses would add a cold
// simulation without changing a price. Every iteration must also cost at
// least the stepper's Floor for its batch size, and where a case names a
// tightness, its cheapest iteration must lie within that factor of the
// floor: a floor set too high fails the first check, one gone loose the
// second.
func TestStepMatchesReference(t *testing.T) {
	m := model.LLM7B32K()
	gqa := model.LLM7B128KGQA()
	shardEnv := pimEnv(gqa, PIMphony())
	shardEnv.TP = 2 * gqa.KVHeads() // token-axis sharding past the head count
	shardEnv.Modules = shardEnv.TP
	ppEnv := pimEnv(m, PIMphony())
	ppEnv.TP, ppEnv.PP = 4, 2
	// CENT's LLM-72B-128K-GQA geometry: 32 modules as TP 8 x PP 4.
	cent72 := func(tech Technique) *Env {
		env := pimEnv(model.LLM72B128KGQA(), tech)
		env.Modules, env.TP, env.PP = 32, 8, 4
		return env
	}
	// Under HFP the 70,000-token request below spans more than one
	// capacity tile, so the pipelined fold prices a split request; a
	// lone 8K request fits one tile.
	if tile := headCapacityTokens(cent72(Baseline())); tile >= 70000 {
		t.Fatalf("72B-128K-GQA capacity tile %d does not split a 70,000-token request", tile)
	}
	cases := []struct {
		name string
		be   Backend
		env  *Env
		n    int // initial batch size
		// ctxs are the first prompts (default 10 and 70,000 when n > 1):
		// a tiny context exercises the sub-channel (zero-token slice)
		// edge, a huge one the quantization cap and the HFP tile split.
		ctxs []int
		// interior requires the first iteration's critical path on
		// neither channel 0 nor the last.
		interior bool
		// long leaps over the fixed batch for 100 iterations twice.
		long bool
		// tight, when set, bounds the least Seconds/Floor ratio.
		tight float64
	}{
		{name: "pim-baseline", be: pimOnly, env: pimEnv(m, Baseline()), n: 5},
		{name: "pim-pimphony", be: pimOnly, env: pimEnv(m, PIMphony()), n: 5},
		{name: "pim-tcp-only", be: pimOnly, env: pimEnv(m, Technique{TCP: true}), n: 5},
		{name: "pim-dcs-only", be: pimOnly, env: pimEnv(m, Technique{DCS: true}), n: 5},
		{name: "pim-gqa-rowreuse", be: pimOnly, env: pimEnv(gqa, PIMphony()), n: 5},
		{name: "pim-gqa-hfp", be: pimOnly, env: pimEnv(gqa, Baseline()), n: 5},
		{name: "pim-token-sharded", be: pimOnly, env: shardEnv, n: 5},
		{name: "pim-pipelined", be: pimOnly, env: ppEnv, n: 5},
		{name: "pim-pipelined-one", be: pimOnly, env: ppEnv, n: 1},
		{name: "cent-72b-128k-gqa-baseline", be: pimOnly, env: cent72(Baseline()), n: 5},
		{name: "cent-72b-128k-gqa-baseline-one", be: pimOnly, env: cent72(Baseline()), n: 1},
		{name: "cent-72b-128k-gqa-pimphony", be: pimOnly, env: cent72(PIMphony()), n: 5},
		{name: "xpu-pimphony", be: xpuPIM, env: pimEnv(m, PIMphony()), n: 5},
		{name: "xpu-baseline", be: xpuPIM, env: pimEnv(m, Baseline()), n: 5},
		{name: "dimm-pimphony", be: dimmPIM, env: dimmEnv(m, PIMphony()), n: 5},
		// Under TCP on 32 channels, 2,113 tokens are 66 per channel plus
		// one on channel 0, and 67 tokens price below 66 (a quantization
		// bucket edge), so that request's extra slice has a negative
		// delta. 2,164 tokens are 67 per channel plus one on channels
		// 0-19, and 68 price above 67. Channels 1-19 then carry the
		// critical path, so the channel-0 shortcut must not apply.
		{name: "pim-negative-delta", be: pimOnly, env: pimEnv(m, PIMphony()), n: 3,
			ctxs: []int{2113, 2164}, interior: true},
		// Long leaps span several channel periods of TCP runs, from
		// negative-delta and sub-channel prompts. On 32 channels with
		// 16-score softmax tiles a tile edge ends every run, at or
		// before the channel wrap; on the 8-channel DIMM a channel
		// wrap often ends it first.
		{name: "pim-pimphony-long-one", be: pimOnly, env: pimEnv(m, PIMphony()), n: 1,
			ctxs: []int{2113}, long: true},
		{name: "pim-pimphony-long", be: pimOnly, env: pimEnv(m, PIMphony()), n: 3,
			ctxs: []int{10, 2113, 2164}, long: true},
		{name: "pim-tcp-only-long-one", be: pimOnly, env: pimEnv(m, Technique{TCP: true}), n: 1,
			ctxs: []int{2164}, long: true},
		{name: "pim-tcp-only-long", be: pimOnly, env: pimEnv(m, Technique{TCP: true}), n: 3,
			ctxs: []int{10, 2113, 2164}, long: true},
		{name: "dimm-pimphony-long-one", be: dimmPIM, env: dimmEnv(m, PIMphony()), n: 1,
			ctxs: []int{2113}, long: true},
		{name: "dimm-pimphony-long", be: dimmPIM, env: dimmEnv(m, PIMphony()), n: 3,
			ctxs: []int{10, 2113, 2164}, long: true},
		// One request of one token: attention is nearly free, so the
		// floor must sit within a few parts in 10,000 of the iteration
		// (measured 1.0003 on DIMM-PIM, 1.0009 on xPU+PIM).
		{name: "dimm-pimphony-one-token", be: dimmPIM, env: dimmEnv(m, PIMphony()), n: 1,
			ctxs: []int{1}, tight: 1.0005},
		{name: "xpu-pimphony-one-token", be: xpuPIM, env: pimEnv(m, PIMphony()), n: 1,
			ctxs: []int{1}, tight: 1.0015},
	}
	// The leaps start at these steps and end where the next starts, the
	// last at step 48: one-iteration leaps, and multi-iteration leaps
	// across the batch changes at steps 20 and 30. A long case leaps
	// once for one iteration and then twice for 100.
	shortStarts, shortSteps := []int{0, 1, 4, 20, 21, 30, 47}, 48
	longStarts, longSteps := []int{0, 1, 101}, 201
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			starts, steps := shortStarts, shortSteps
			if c.long {
				starts, steps = longStarts, longSteps
			}
			if err := c.be.Validate(c.env); err != nil {
				t.Fatalf("config invalid: %v", err)
			}
			st := c.be.NewStepper(c.env)
			ref := newRefStepper(c.be, c.env)
			batch := smallBatch(c.n)
			ctxs := c.ctxs
			if ctxs == nil && c.n > 1 {
				ctxs = []int{10, 70000}
			}
			for i, ctx := range ctxs {
				batch[i].Context = ctx
			}
			var toks, refToks []int
			least := math.Inf(1) // the least Seconds/Floor ratio
			for li, start := range starts {
				end := steps
				if li+1 < len(starts) {
					end = starts[li+1]
				}
				if c.n > 1 && start == 20 {
					batch = batch[:3] // completion shrinks the batch
				}
				if c.n > 1 && start == 30 {
					batch = append(batch, smallBatch(7)[6]) // admission
				}
				toks = toks[:0]
				for _, r := range batch {
					toks = append(toks, r.Context+start)
				}
				st.Start(toks)
				for step := start; step < end; step++ {
					refToks = refToks[:0]
					for _, r := range batch {
						refToks = append(refToks, r.Context+step)
					}
					want, err := ref.Step(refToks)
					if err != nil {
						t.Fatal(err)
					}
					if c.interior && step == 0 && (ref.critical == 0 || ref.critical == c.env.Dev.Channels-1) {
						t.Fatalf("critical path on channel %d, want an interior channel", ref.critical)
					}
					var got StepCost
					if err := st.Next(&got); err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("step %d (leap from step %d) diverged:\nstepper   %+v\nreference %+v", step, start, got, want)
					}
					floor := st.Floor(len(batch))
					if !(floor > 0) || got.Seconds < floor {
						t.Fatalf("step %d of a %d-request batch costs %.17g s; its floor is %.17g", step, len(batch), got.Seconds, floor)
					}
					least = min(least, got.Seconds/floor)
				}
				for i, r := range batch {
					if toks[i] != r.Context+end {
						t.Fatalf("leap from step %d left request %d at %d tokens, want %d", start, i, toks[i], r.Context+end)
					}
				}
			}
			if c.tight > 0 && least > c.tight {
				t.Errorf("cheapest iteration costs %.6f floors, want at most %g", least, c.tight)
			}
			memo := st.(*pimStepper)
			var memoized int
			for tokens, idx := range memo.latIdx {
				if idx != 0 && !ref.priced[tokens] {
					t.Errorf("stepper priced %d tokens per channel; the reference never did", tokens)
				}
				if idx != 0 {
					memoized++
				}
			}
			if memoized != len(ref.priced) {
				t.Errorf("stepper memoized %d shapes, the reference priced %d", memoized, len(ref.priced))
			}
			if len(memo.lats) != memoized+1 {
				t.Errorf("stepper holds %d priced values for %d shapes", len(memo.lats)-1, memoized)
			}
		})
	}
}

// TestStepperReducesCacheLookups asserts the memo's headline: over a
// 48-iteration leap of an 8-request QMSum batch, the stepper consults
// the perfmodel cache at least 2x less than the reference, which prices
// every (channel, work) unit of every iteration.
func TestStepperReducesCacheLookups(t *testing.T) {
	reqs := workload.NewGenerator(workload.QMSum(), 11).Batch(8)
	const steps = 48
	refEnv := pimEnv(model.LLM7B32K(), PIMphony())
	r := newRefStepper(pimOnly, refEnv)
	for step := 0; step < steps; step++ {
		toks := toksOf(reqs)
		for i := range toks {
			toks[i] += step
		}
		if _, err := r.Step(toks); err != nil {
			t.Fatal(err)
		}
	}
	memoEnv := pimEnv(model.LLM7B32K(), PIMphony())
	st := pimOnly.NewStepper(memoEnv)
	st.Start(toksOf(reqs))
	var c StepCost
	for step := 0; step < steps; step++ {
		if err := st.Next(&c); err != nil {
			t.Fatal(err)
		}
	}
	ref, memo := refEnv.Perf.CacheLookups(), memoEnv.Perf.CacheLookups()
	if ref == 0 || memo == 0 {
		t.Fatalf("lookup counters not wired: reference=%d memo=%d", ref, memo)
	}
	if memo*2 > ref {
		t.Errorf("stepper did %d lookups vs the reference's %d — less than the required 2x reduction", memo, ref)
	}
	t.Logf("perfmodel cache lookups over %d iterations: %d reference -> %d memoized (%.0fx fewer)",
		steps, ref, memo, float64(ref)/float64(memo))
}

func TestCostPerHourAllBackends(t *testing.T) {
	m := model.LLM7B32K()
	envs := map[string]*Env{
		PIMOnly: pimEnv(m, PIMphony()),
		XPUPIM:  pimEnv(m, PIMphony()),
		DIMMPIM: dimmEnv(m, PIMphony()),
		GPU:     gpuEnv(m),
	}
	for name, env := range envs {
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if c := b.CostPerHour(env); c <= 0 {
			t.Errorf("%s: CostPerHour = %g, want positive", name, c)
		}
	}
	// Cost ordering the docs promise: the commodity PIM stack undercuts
	// the GPU pair, and hybrids pay their host/NPU premium over pure PIM.
	pim, _ := Lookup(PIMOnly)
	gpuB, _ := Lookup(GPU)
	xpu, _ := Lookup(XPUPIM)
	if pim.CostPerHour(envs[PIMOnly]) >= gpuB.CostPerHour(envs[GPU]) {
		t.Errorf("PIM stack $%g/h not below GPU $%g/h", pim.CostPerHour(envs[PIMOnly]), gpuB.CostPerHour(envs[GPU]))
	}
	if xpu.CostPerHour(envs[XPUPIM]) <= pim.CostPerHour(envs[PIMOnly]) {
		t.Errorf("xPU+PIM $%g/h not above PIM-only $%g/h", xpu.CostPerHour(envs[XPUPIM]), pim.CostPerHour(envs[PIMOnly]))
	}
}

// TestCostAndPrefillMatchExpressions pins CostPerHour and PrefillSeconds
// bit for bit to each organisation's own expression: the module count
// times the module rate plus the NPU or host GPU, and the prompt on the
// dense engine, sharded over the modules unless the host GPU keeps the
// weights. Every PIM backend is priced on a CENT, a NeuPIMs and a DIMM
// environment, the GPU on its own.
func TestCostAndPrefillMatchExpressions(t *testing.T) {
	type want func(env *Env, flops, weights int64) (cost, prefill float64)
	pimWant := map[Backend]want{
		pimOnly: func(env *Env, flops, weights int64) (float64, float64) {
			mods := int64(env.Modules)
			return 0.45 * float64(env.Modules),
				xpu.CENTPNM(env.Dev.InternalBandwidth()).OpTime(flops/mods, weights/mods)
		},
		xpuPIM: func(env *Env, flops, weights int64) (float64, float64) {
			mods := int64(env.Modules)
			return 1.20 + 0.45*float64(env.Modules), xpu.NeuPIMsNPU(1000).OpTime(flops/mods, weights/mods)
		},
		dimmPIM: func(env *Env, flops, weights int64) (float64, float64) {
			return 2.10 + 0.09*float64(env.Modules), xpu.DIMMHostGPU().OpTime(flops, weights)
		},
	}
	for _, m := range []model.Config{model.LLM7B32K(), model.LLM72B128KGQA()} {
		neupims := pimEnv(m, PIMphony())
		neupims.Dev = timing.AiM16().WithChannels(32).WithCapacity(32 << 30)
		neupims.Name, neupims.Modules, neupims.TP = "test-neupims", 16, 16
		envs := []*Env{pimEnv(m, PIMphony()), neupims, dimmEnv(m, PIMphony())}
		for _, ctx := range []int{1, 4095, 131072} {
			flops, weights := prefillFlops(m, ctx), m.WeightBytes()
			for _, env := range envs {
				for be, f := range pimWant {
					cost, prefill := f(env, flops, weights)
					if got := be.CostPerHour(env); got != cost {
						t.Errorf("%s on %s: CostPerHour %v, want %v", be.Name(), env.Name, got, cost)
					}
					if got := be.PrefillSeconds(env, ctx); got != prefill {
						t.Errorf("%s on %s, %s ctx %d: PrefillSeconds %v, want %v", be.Name(), env.Name, m.Name, ctx, got, prefill)
					}
				}
			}
			env := gpuEnv(m)
			gpus := int64(env.GPUs)
			if got, want := (gpu{}).CostPerHour(env), 2.10*float64(env.GPUs); got != want {
				t.Errorf("gpu: CostPerHour %v, want %v", got, want)
			}
			if got, want := (gpu{}).PrefillSeconds(env, ctx), xpu.A100().OpTime(flops/gpus, weights/gpus); got != want {
				t.Errorf("gpu, %s ctx %d: PrefillSeconds %v, want %v", m.Name, ctx, got, want)
			}
		}
	}
}
