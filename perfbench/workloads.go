package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"pimphony/internal/cluster"
	"pimphony/internal/core"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// workloadDef is one benchmark workload: a name and a function that
// turns a seed into prepared inputs. The benchmark runs the full size;
// tests pass short=true for a shrunk version that exercises the same
// code path in well under a second. BENCHMARK.json and
// README.md say why each workload is in the set.
type workloadDef struct {
	name    string
	prepare func(seed int64, short bool, tr *tracer) (*prepared, error)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workloadDef{
	{"batch-ladder", prepareLadder},
	{"serve-longctx", prepareLongctx},
	{"fleet-diurnal", prepareDiurnal},
	{"fleet-faults", prepareFaults},
}

// workloadByName finds a workload definition.
func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// prepared holds one workload's generated inputs and built systems.
type prepared struct {
	// ops is the number of operations attempted: ladder points or
	// arrivals.
	ops int
	// inputs fingerprints the generated inputs (requests and arrival
	// times), so a test can show that the seed reaches them.
	inputs [sha256.Size]byte
	// devices are the kernel-pricing devices whose shared perfmodel
	// caches the run consults.
	devices []timing.Device
	// run makes the measured simulation calls and folds their output.
	run func(ctx context.Context) (*outcome, error)
	// rerun repeats the simulation on fresh systems in the same process,
	// where every kernel price is already cached, and returns the
	// seconds its simulation calls took.
	rerun func(ctx context.Context) (float64, error)
}

// outcome is what one workload run produced.
type outcome struct {
	// values holds the modelled results (simulated time, not host time)
	// and work counters, keyed by metric name.
	values map[string]float64
	// tokens is the decode tokens the reports account for; the
	// simulator must have priced at least this many
	// (cluster.SimulatedTokens).
	tokens int64
	// failed counts failed operations: ladder points that errored or
	// requests whose retry budget ran out.
	failed int
	// problems lists every failed correctness check.
	problems []string
}

// subSeed derives an independent stream seed from the workload seed
// (splitmix64), so the size and timing streams of one workload never
// share draws.
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// fingerprint hashes request shapes and arrival times.
func fingerprint(reqs []workload.Request, arrivals []workload.Arrival) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range reqs {
		put(uint64(r.ID))
		put(uint64(r.Context))
		put(uint64(r.Decode))
	}
	for _, a := range arrivals {
		put(uint64(a.Req.ID))
		put(uint64(a.Req.Context))
		put(uint64(a.Req.Decode))
		put(math.Float64bits(a.At))
		put(uint64(a.Session))
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// devicesOf lists the distinct kernel-pricing devices of some systems.
func devicesOf(cfgs []cluster.Config) []timing.Device {
	seen := map[timing.Device]bool{}
	var out []timing.Device
	for _, c := range cfgs {
		if !seen[c.Dev] {
			seen[c.Dev] = true
			out = append(out, c.Dev)
		}
	}
	return out
}

// geomean is the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ---------------------------------------------------------------------------
// batch-ladder
// ---------------------------------------------------------------------------

// ladderPair is one model/trace point of the Fig. 13/14 ladder.
type ladderPair struct {
	m  func() model.Config
	tr func() workload.Trace
}

// ladderPairs are the ladder's model/trace points: both traces of each
// 7B model and one trace of each 72B model.
var ladderPairs = []ladderPair{
	{model.LLM7B32K, workload.QMSum},
	{model.LLM7B32K, workload.Musique},
	{model.LLM7B128KGQA, workload.MultiFieldQA},
	{model.LLM7B128KGQA, workload.LoogleSD},
	{model.LLM72B32K, workload.QMSum},
	{model.LLM72B128KGQA, workload.MultiFieldQA},
}

// ladderPreset is one evaluated system of the ladder.
type ladderPreset struct {
	make func(model.Config, core.Technique) core.Config
	// banded presets must show a full-stack speedup inside the
	// TestFig13SpeedupBands band.
	banded bool
}

var ladderPresets = []ladderPreset{
	{core.CENT, true},
	{core.NeuPIMs, false},
}

// Speedup band of TestFig13SpeedupBands.
const ladderMinSpeedup, ladderMaxSpeedup = 1.2, 50.0

// ladderRequests is the request pool per model/trace pair (a power of
// two, for spreadOrder). Batches admit at most a few dozen of them; a
// large pool pins the context lengths at each admitted rank tighter (see
// spreadOrder).
const ladderRequests = 256

// spreadOrder reorders a request pool by bit-reversed context rank: the
// first request is the shortest, the second the median, then the
// quartiles, the octiles and so on. The batch simulator admits a prefix
// of the pool, and a static-reservation batch holds only 4-9
// long-context requests. Which kernel shapes those few requests need,
// and so what cold pricing costs, jumps with their exact lengths: with
// 64 requests in generation order, run time moved by a third between
// seeds. In spread order every prefix covers the whole context
// distribution at the same ranks, and a seed moves only the sampled
// lengths at those ranks, which a 256-request pool pins to within a few
// percent. The pool length must be a power of two.
func spreadOrder(reqs []workload.Request) []workload.Request {
	sorted := append([]workload.Request(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Context < sorted[j].Context })
	bits := uint(0)
	for 1<<bits < len(sorted) {
		bits++
	}
	out := make([]workload.Request, len(sorted))
	for i := range out {
		out[i] = sorted[reverseBits(uint(i), bits)]
	}
	return out
}

// reverseBits reverses the low n bits of x.
func reverseBits(x, n uint) uint {
	var r uint
	for i := uint(0); i < n; i++ {
		r = r<<1 | (x>>i)&1
	}
	return r
}

// ladderPoint is one simulation of the ladder: a preset, a model/trace
// pair and a technique stage.
type ladderPoint struct {
	preset ladderPreset
	pair   int
	stage  core.StageResult
	cfg    core.Config
	sys    *core.System
}

func (p *ladderPoint) label() string {
	return fmt.Sprintf("%s/%s/%s", p.cfg.Name, ladderPairs[p.pair].tr().Name, p.stage.Stage)
}

func prepareLadder(seed int64, short bool, tr *tracer) (*prepared, error) {
	pairs, nreq := len(ladderPairs), ladderRequests
	if short {
		pairs, nreq = 1, 8
	}
	pools := make([][]workload.Request, pairs)
	var all []workload.Request
	end := tr.begin("workload.gen")
	for i := range pools {
		pools[i] = spreadOrder(workload.NewGenerator(ladderPairs[i].tr(), subSeed(seed, i)).Batch(nreq))
		all = append(all, pools[i]...)
	}
	end()
	var pts []*ladderPoint
	var cfgs []cluster.Config
	for _, pr := range ladderPresets {
		for i := 0; i < pairs; i++ {
			for _, st := range core.Stages() {
				cfg := pr.make(ladderPairs[i].m(), st.Tech)
				pts = append(pts, &ladderPoint{preset: pr, pair: i, stage: st, cfg: cfg})
				cfgs = append(cfgs, cfg)
			}
		}
	}
	build := func() error {
		end := tr.begin("core.new_system")
		defer end()
		for _, p := range pts {
			sys, err := core.NewSystem(p.cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", p.label(), err)
			}
			p.sys = sys
		}
		return nil
	}
	if err := build(); err != nil {
		return nil, err
	}
	p := &prepared{ops: len(pts), inputs: fingerprint(all, nil), devices: devicesOf(cfgs)}
	p.run = func(ctx context.Context) (*outcome, error) {
		out := &outcome{values: map[string]float64{}}
		reps := make([]*cluster.Report, len(pts))
		for i, pt := range pts {
			end := tr.begin("core.serve")
			rep, err := pt.sys.ServeCtx(ctx, pools[pt.pair])
			end()
			if err != nil {
				out.failed++
				out.problems = append(out.problems, fmt.Sprintf("%s: %v", pt.label(), err))
				continue
			}
			reps[i] = rep
		}
		end := tr.begin("perfbench.validate")
		foldLadder(pts, reps, out)
		end()
		return out, nil
	}
	p.rerun = func(ctx context.Context) (float64, error) {
		if err := build(); err != nil {
			return 0, err
		}
		start := time.Now()
		for _, pt := range pts {
			if _, err := pt.sys.ServeCtx(ctx, pools[pt.pair]); err != nil {
				return 0, fmt.Errorf("%s: %w", pt.label(), err)
			}
		}
		return time.Since(start).Seconds(), nil
	}
	return p, nil
}

// foldLadder checks every ladder report and folds the modelled results:
// the geometric means of +DPA throughput and of the full-stack speedup
// over the baseline stage, across every preset and model/trace pair.
func foldLadder(pts []*ladderPoint, reps []*cluster.Report, out *outcome) {
	var dpa, speedups, reservedPerLive []float64
	var steps, tokens int
	for i, pt := range pts {
		rep := reps[i]
		if rep == nil {
			continue
		}
		if !(rep.Throughput > 0) || math.IsInf(rep.Throughput, 0) {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: throughput %g is not finite and positive", pt.label(), rep.Throughput))
			reps[i] = nil
			continue
		}
		steps += rep.Steps
		tokens += rep.Batch * rep.Steps
		if rep.CapacityUtil > 0 {
			reservedPerLive = append(reservedPerLive, 1/rep.CapacityUtil)
		}
	}
	nStages := len(core.Stages())
	for i := 0; i+nStages <= len(pts); i += nStages {
		base, full := reps[i], reps[i+nStages-1]
		if base == nil || full == nil {
			continue
		}
		sp := full.Throughput / base.Throughput
		dpa = append(dpa, full.Throughput)
		speedups = append(speedups, sp)
		if pts[i].preset.banded && (sp < ladderMinSpeedup || sp > ladderMaxSpeedup) {
			out.problems = append(out.problems, fmt.Sprintf("%s: full-stack speedup %.2fx outside [%g, %g]",
				pts[i].label(), sp, ladderMinSpeedup, ladderMaxSpeedup))
		}
	}
	out.tokens = int64(tokens)
	out.values["model.tok_s"] = geomean(dpa)
	out.values["model.speedup_x"] = geomean(speedups)
	out.values["cluster.iterations"] = float64(steps)
	out.values["memory.reserved_per_live"] = geomean(reservedPerLive)
}

// ---------------------------------------------------------------------------
// serving workloads
// ---------------------------------------------------------------------------

// servingSpec is one serving workload: a serve.Config and the arrival
// schedule it is fed.
type servingSpec struct {
	cfg      func() serve.Config
	arrivals func() ([]workload.Arrival, error)
}

// prepareServing generates the arrivals and wraps serve.Run.
func prepareServing(spec servingSpec, tr *tracer) (*prepared, error) {
	end := tr.begin("workload.gen")
	arrivals, err := spec.arrivals()
	end()
	if err != nil {
		return nil, err
	}
	cfg := spec.cfg()
	systems := []cluster.Config{cfg.System} // fleet mode ignores System
	if len(cfg.Fleet) > 0 {
		systems = systems[:0]
		for _, s := range cfg.Fleet {
			systems = append(systems, s.System)
		}
	}
	p := &prepared{ops: len(arrivals), inputs: fingerprint(nil, arrivals), devices: devicesOf(systems)}
	p.run = func(ctx context.Context) (*outcome, error) {
		end := tr.begin("serve.run")
		rep, err := serve.Run(ctx, cfg, arrivals)
		end()
		if err != nil {
			return nil, err
		}
		end = tr.begin("perfbench.validate")
		defer end()
		return foldServing(rep, arrivals), nil
	}
	p.rerun = func(ctx context.Context) (float64, error) {
		start := time.Now()
		_, err := serve.Run(ctx, spec.cfg(), arrivals)
		return time.Since(start).Seconds(), err
	}
	return p, nil
}

// foldServing checks a serving report against its arrivals and folds the
// modelled results and counters.
func foldServing(rep *serve.Report, arrivals []workload.Arrival) *outcome {
	out := &outcome{values: map[string]float64{}, tokens: int64(rep.Tokens)}
	bad := func(format string, args ...any) { out.problems = append(out.problems, fmt.Sprintf(format, args...)) }
	failed := 0
	if rep.Faults != nil {
		failed = rep.Faults.Failed
		out.values["serve.crashes"] = float64(rep.Faults.Crashes)
		out.values["serve.retries"] = float64(rep.Faults.Retries)
	}
	out.failed = failed
	if rep.Requests != len(arrivals) {
		bad("report covers %d requests, schedule has %d arrivals", rep.Requests, len(arrivals))
	}
	var perReq, perTok, steps int
	for _, st := range rep.PerReplica {
		perReq += st.Requests
		perTok += st.Tokens
		steps += st.Steps
	}
	if completed := rep.Requests - failed; perReq != completed {
		bad("per-replica requests sum to %d, %d completed", perReq, completed)
	}
	if perTok != rep.Tokens {
		bad("per-replica tokens sum to %d, report counts %d", perTok, rep.Tokens)
	}
	var maxTokens int
	for _, a := range arrivals {
		maxTokens += a.Req.Decode
	}
	if rep.Tokens > maxTokens {
		bad("generated %d tokens, arrivals ask for at most %d", rep.Tokens, maxTokens)
	}
	for _, q := range []struct {
		name string
		q    serve.Quantiles
	}{{"ttft", rep.TTFT}, {"tbt", rep.TBT}, {"e2e", rep.E2E}} {
		if !(0 <= q.q.P50 && q.q.P50 <= q.q.P95 && q.q.P95 <= q.q.P99) || math.IsInf(q.q.P99, 0) {
			bad("%s quantiles not ordered: p50 %g p95 %g p99 %g", q.name, q.q.P50, q.q.P95, q.q.P99)
		}
	}
	if !(0 <= rep.Goodput && rep.Goodput <= rep.Throughput) {
		bad("goodput %g outside [0, throughput %g]", rep.Goodput, rep.Throughput)
	}
	out.values["model.tok_s"] = rep.Throughput
	out.values["model.goodput_tok_s"] = rep.Goodput
	out.values["model.ttft_p99_s"] = rep.TTFT.P99
	out.values["model.tbt_p99_s"] = rep.TBT.P99
	out.values["cluster.iterations"] = float64(steps)
	out.values["memory.preemptions"] = float64(rep.Capacity.Preemptions)
	if rep.Capacity.PeakLiveBytes > 0 {
		out.values["memory.reserved_per_live"] = float64(rep.Capacity.PeakReservedBytes) / float64(rep.Capacity.PeakLiveBytes)
	}
	out.values["serve.requests"] = float64(rep.Requests)
	if f := rep.Fleet; f != nil {
		out.values["serve.handoffs"] = float64(f.Handoffs)
		out.values["serve.migrations"] = float64(f.Migrations)
		out.values["serve.steals"] = float64(f.Steals)
		out.values["serve.held"] = float64(f.Held)
		out.values["serve.scale_actions"] = float64(f.ScaleUps + f.Drains)
	}
	return out
}

// servingSLO is the latency target of the long-context workloads.
var servingSLO = serve.SLO{TTFT: 1.0, TBT: 0.025}

// prepareLongctx is the classic load-balanced path: four CENT+PIMphony
// replicas with a 32 GiB DPA budget each behind least-tokens routing,
// fed heavy-tailed 2K-30K prompts at 8 req/s per replica. The engine's
// Leap/Step, DPA growth and the stepper memo do the work. The rate sits
// below the preemption cliff with a margin: at 10 req/s per replica
// some seeds already tip into preemption thrash, which halves modelled
// throughput and changes what the run exercises.
func prepareLongctx(seed int64, short bool, tr *tracer) (*prepared, error) {
	replicas, n := 4, 20480
	if short {
		replicas, n = 2, 400
	}
	return prepareServing(servingSpec{
		cfg: func() serve.Config {
			sys := core.CENT(model.LLM7B32K(), core.PIMphony())
			sys.KVBudgetBytes = 32 << 30
			return serve.Config{System: sys, Replicas: replicas, Policy: serve.LeastOutstandingTokens(), SLO: servingSLO}
		},
		arrivals: func() ([]workload.Arrival, error) {
			gen, err := workload.HeavyTailed(2048, 30000, 1.1, subSeed(seed, 0))
			if err != nil {
				return nil, err
			}
			gen.DecodeLen = 256
			return workload.PoissonArrivals(gen, 8*float64(replicas), 8, n, subSeed(seed, 1))
		},
	}, tr)
}

// prepareDiurnal is the megafleet shape: 10k unified CENT replicas with
// 2 GiB each under the SLO autoscaler (5% online at start, 2 s warm-up)
// and round-robin-fit placement, serving one 40-minute diurnal day of
// short prompts.
func prepareDiurnal(seed int64, short bool, tr *tracer) (*prepared, error) {
	size, n, period := 10000, 36000, "diurnal:2400:0.9"
	if short {
		size, n, period = 50, 300, "diurnal:600:0.9"
	}
	return prepareServing(servingSpec{
		cfg: func() serve.Config {
			sys := core.CENT(model.LLM7B32K(), core.PIMphony())
			sys.KVBudgetBytes = 2 << 30
			auto, _ := serve.AutoscalerByName("slo")
			return serve.Config{
				Fleet: []serve.ReplicaSpec{{
					System: sys, Count: size, Role: serve.RoleUnified,
					Min: size / 20, WarmupSeconds: 2,
				}},
				Placement:  serve.RoundRobinFit(),
				Autoscaler: auto,
				SLO:        serve.SLO{TTFT: 2.5, TBT: 0.025},
			}
		},
		arrivals: func() ([]workload.Arrival, error) {
			gen, err := workload.HeavyTailed(256, 2048, 1.2, subSeed(seed, 0))
			if err != nil {
				return nil, err
			}
			gen.DecodeLen = 32
			return workload.ArrivalsByFlag(period, gen, 0.0015*float64(size), 4, n, subSeed(seed, 1))
		},
	}, tr)
}

// prepareFaults is the disaggregated fleet under crashes: two NeuPIMs
// prefill servers hand KV to eight CENT decode replicas (16 GiB each)
// over the default interconnect, with migration, stealing and
// kv-headroom placement, bursty MMPP arrivals, and seeded crash chains
// (MTBF 60 s, MTTR 3 s, 5 retries with 0.25 s backoff). At MTBF 30 s
// crash storms exhaust even a 5-retry budget on some seeds; the
// benchmark's workloads must not fail operations.
func prepareFaults(seed int64, short bool, tr *tracer) (*prepared, error) {
	n := 20000
	if short {
		n = 300
	}
	return prepareServing(servingSpec{
		cfg: func() serve.Config {
			m := model.LLM7B32K()
			dec := core.CENT(m, core.PIMphony())
			dec.KVBudgetBytes = 16 << 30
			return serve.Config{
				Fleet: []serve.ReplicaSpec{
					{System: core.NeuPIMs(m, core.PIMphony()), Count: 2, Role: serve.RolePrefill},
					{System: dec, Count: 8, Role: serve.RoleDecode},
				},
				Interconnect: timing.DefaultInterconnect(),
				Placement:    serve.KVHeadroom(),
				Migrate:      true,
				Steal:        true,
				SLO:          servingSLO,
				Faults: &serve.FaultPlan{
					Seed: uint64(seed),
					Groups: []serve.FaultGroup{{
						Spec: -1, Mode: serve.FaultCrash, MTBFSeconds: 60, MTTRSeconds: 3,
					}},
					MaxRetries:     5,
					BackoffSeconds: 0.25,
				},
			}
		},
		arrivals: func() ([]workload.Arrival, error) {
			gen, err := workload.HeavyTailed(1024, 24000, 1.1, subSeed(seed, 0))
			if err != nil {
				return nil, err
			}
			gen.DecodeLen = 128
			return workload.ArrivalsByFlag("mmpp:4:5", gen, 12, 4, n, subSeed(seed, 1))
		},
	}, tr)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
