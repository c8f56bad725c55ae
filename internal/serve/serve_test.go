package serve

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pimphony/internal/cluster"
	"pimphony/internal/model"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// testSystem is a small CENT-style replica template.
func testSystem() cluster.Config {
	return cluster.Config{
		Name:         "serve-test",
		Backend:      cluster.PIMOnly,
		Dev:          timing.AiM16().WithChannels(32).WithCapacity(16 << 30),
		Modules:      8,
		TP:           8,
		PP:           1,
		Model:        model.LLM7B32K(),
		Tech:         cluster.PIMphony(),
		DecodeWindow: 4,
	}
}

// testArrivals builds a deterministic Poisson schedule with short
// generations so tests stay fast.
func testArrivals(t *testing.T, n int, rate float64) []workload.Arrival {
	t.Helper()
	gen := workload.NewGenerator(workload.QMSum(), 42)
	gen.DecodeLen = 6
	arr, err := workload.PoissonArrivals(gen, rate, 4, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func run(t *testing.T, cfg Config, arr []workload.Arrival) *Report {
	t.Helper()
	rep, err := Run(context.Background(), cfg, arr)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestServeCompletesAndMeasures(t *testing.T) {
	arr := testArrivals(t, 16, 8)
	rep := run(t, Config{System: testSystem(), Replicas: 2, Policy: RoundRobin(),
		SLO: SLO{TTFT: 10, TBT: 1}}, arr)
	if rep.Requests != 16 {
		t.Fatalf("served %d of 16", rep.Requests)
	}
	if rep.Throughput <= 0 || rep.MakespanSeconds <= 0 {
		t.Fatalf("no throughput measured: %+v", rep)
	}
	if rep.Goodput > rep.Throughput {
		t.Errorf("goodput %g exceeds throughput %g", rep.Goodput, rep.Throughput)
	}
	if rep.SLOMet < 0 || rep.SLOMet > 1 {
		t.Errorf("SLO-met fraction %g out of [0,1]", rep.SLOMet)
	}
	for _, q := range []Quantiles{rep.TTFT, rep.TBT, rep.E2E} {
		if q.P50 > q.P95 || q.P95 > q.P99 {
			t.Errorf("quantiles not monotone: %+v", q)
		}
		if q.Mean <= 0 {
			t.Errorf("zero latency distribution: %+v", q)
		}
	}
	// E2E dominates TTFT for every request, so also in aggregate.
	if rep.E2E.P50 < rep.TTFT.P50 {
		t.Errorf("E2E p50 %g below TTFT p50 %g", rep.E2E.P50, rep.TTFT.P50)
	}
	var reqs, toks int
	for _, st := range rep.PerReplica {
		reqs += st.Requests
		toks += st.Tokens
	}
	if reqs != 16 || toks != 16*6 {
		t.Errorf("per-replica accounting off: %d requests, %d tokens", reqs, toks)
	}
}

// TestServeDeterminism: the same schedule and configuration must yield
// the identical report — the property that makes the latency tables
// reproducible in CI.
func TestServeDeterminism(t *testing.T) {
	arr := testArrivals(t, 12, 8)
	mk := func() *Report {
		return run(t, Config{System: testSystem(), Replicas: 2, Policy: LeastOutstandingTokens(),
			SLO: SLO{TTFT: 1, TBT: 0.2}}, arr)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports diverged:\n%+v\n%+v", a, b)
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	arr := testArrivals(t, 12, 8)
	rep := run(t, Config{System: testSystem(), Replicas: 3, Policy: RoundRobin()}, arr)
	for i, st := range rep.PerReplica {
		if st.Requests != 4 {
			t.Errorf("replica %d got %d requests, want 4", i, st.Requests)
		}
	}
}

func TestSessionAffinityPinsSessions(t *testing.T) {
	// Route a hand-built schedule where sessions repeat.
	gen := workload.NewGenerator(workload.QMSum(), 1)
	gen.DecodeLen = 4
	var arr []workload.Arrival
	for i := 0; i < 12; i++ {
		arr = append(arr, workload.Arrival{Req: gen.Next(), At: float64(i) * 0.05, Session: i % 3})
	}
	cfg := Config{System: testSystem(), Replicas: 4, Policy: SessionAffinity()}
	rep := run(t, cfg, arr)
	if rep.Requests != 12 {
		t.Fatal("not all served")
	}
	// Re-derive the routing: same session must always map to the same
	// replica index.
	pol := SessionAffinity()
	view := NoCandidates(4)
	bySession := map[int]int{}
	for _, a := range arr {
		idx := pol.Place(a, view)
		if prev, ok := bySession[a.Session]; ok && prev != idx {
			t.Fatalf("session %d routed to both %d and %d", a.Session, prev, idx)
		}
		bySession[a.Session] = idx
	}
}

// TestLeastTokensBalancesSkew: with one replica pre-loaded by a burst,
// the load-aware policy routes the follow-up arrivals away from it,
// improving tail TTFT over round-robin on the same schedule.
func TestLeastTokensBalancesSkew(t *testing.T) {
	gen := workload.NewGenerator(workload.QMSum(), 5)
	gen.DecodeLen = 8
	// A burst at t=0 (lands on replica 0 under both policies), then a
	// trickle that round-robin alternates but least-tokens steers away
	// from the loaded replica.
	var arr []workload.Arrival
	for i := 0; i < 6; i++ {
		arr = append(arr, workload.Arrival{Req: gen.Next(), At: 0, Session: 0})
	}
	for i := 0; i < 6; i++ {
		arr = append(arr, workload.Arrival{Req: gen.Next(), At: 0.001 * float64(i+1), Session: 0})
	}
	lt := run(t, Config{System: testSystem(), Replicas: 2, Policy: LeastOutstandingTokens()}, arr)
	// The burst must not all sit on one replica.
	if lt.PerReplica[0].Requests == 12 || lt.PerReplica[1].Requests == 12 {
		t.Errorf("least-tokens left one replica empty: %+v", lt.PerReplica)
	}
	diff := lt.PerReplica[0].Tokens - lt.PerReplica[1].Tokens
	if diff < 0 {
		diff = -diff
	}
	if diff > 8 {
		t.Errorf("least-tokens imbalance of %d tokens: %+v", diff, lt.PerReplica)
	}
}

func TestIncludePrefillRaisesTTFT(t *testing.T) {
	arr := testArrivals(t, 8, 8)
	base := run(t, Config{System: testSystem(), Replicas: 1, Policy: RoundRobin()}, arr)
	pre := run(t, Config{System: testSystem(), Replicas: 1, Policy: RoundRobin(), IncludePrefill: true}, arr)
	if pre.TTFT.Mean <= base.TTFT.Mean {
		t.Errorf("prefill did not raise TTFT: %g vs %g", pre.TTFT.Mean, base.TTFT.Mean)
	}
	if pre.E2E.Mean <= base.E2E.Mean {
		t.Errorf("prefill did not raise E2E: %g vs %g", pre.E2E.Mean, base.E2E.Mean)
	}
	// TBT is a decode-phase metric; prefill must not change it.
	if pre.TBT != base.TBT {
		t.Errorf("prefill changed TBT: %+v vs %+v", pre.TBT, base.TBT)
	}
}

func TestMoreReplicasImproveTail(t *testing.T) {
	arr := testArrivals(t, 24, 16)
	one := run(t, Config{System: testSystem(), Replicas: 1, Policy: RoundRobin()}, arr)
	four := run(t, Config{System: testSystem(), Replicas: 4, Policy: RoundRobin()}, arr)
	if four.TTFT.P99 >= one.TTFT.P99 {
		t.Errorf("4 replicas did not improve p99 TTFT: %g vs %g", four.TTFT.P99, one.TTFT.P99)
	}
}

func TestRunErrors(t *testing.T) {
	arr := testArrivals(t, 4, 8)
	if _, err := Run(context.Background(), Config{System: testSystem(), Replicas: 0, Policy: RoundRobin()}, arr); err == nil {
		t.Error("zero replicas should error")
	}
	if _, err := Run(context.Background(), Config{System: testSystem(), Replicas: 1}, arr); err == nil {
		t.Error("nil policy should error")
	}
	if _, err := Run(context.Background(), Config{System: testSystem(), Replicas: 1, Policy: RoundRobin()}, nil); err == nil {
		t.Error("empty schedule should error")
	}
	for _, cfg := range []Config{
		{System: testSystem(), Replicas: 2, Policy: RoundRobin(), Migrate: true},
		{System: testSystem(), Replicas: 2, Policy: RoundRobin(), Steal: true},
	} {
		if _, err := Run(context.Background(), cfg, arr); err == nil {
			t.Errorf("shorthand %+v should error (fleet-only knob)", cfg)
		}
	}
	unsorted := []workload.Arrival{{Req: workload.Request{ID: 0, Context: 1024, Decode: 2}, At: 1},
		{Req: workload.Request{ID: 1, Context: 1024, Decode: 2}, At: 0.5}}
	if _, err := Run(context.Background(), Config{System: testSystem(), Replicas: 1, Policy: RoundRobin()}, unsorted); err == nil {
		t.Error("unsorted schedule should error")
	}
	dup := []workload.Arrival{{Req: workload.Request{ID: 0, Context: 1024, Decode: 2}, At: 0},
		{Req: workload.Request{ID: 0, Context: 1024, Decode: 2}, At: 1}}
	if _, err := Run(context.Background(), Config{System: testSystem(), Replicas: 1, Policy: RoundRobin()}, dup); err == nil {
		t.Error("duplicate IDs should error")
	}
}

// TestRunRejectsNonFiniteArrivalTimes: a NaN time passes the schedule's
// sort check (every comparison with NaN is false), and an infinite one
// can never be reached, so both must be rejected before the run starts.
// So must a negative one, as input naming the arrival and its time, not
// as a DES invariant firing behind the scheduler clock. Each case runs
// against a deadline, so a regression fails instead of hanging the
// suite.
func TestRunRejectsNonFiniteArrivalTimes(t *testing.T) {
	for _, c := range []struct {
		name string
		at   [3]float64
		want string // a substring of the error, when set
	}{
		{"nan first", [3]float64{math.NaN(), 0.1, 0.2}, ""},
		{"nan mid", [3]float64{0, math.NaN(), 0.2}, ""},
		{"+inf last", [3]float64{0, 0.1, math.Inf(1)}, ""},
		{"-inf first", [3]float64{math.Inf(-1), 0.1, 0.2}, ""},
		{"negative", [3]float64{-100, -99.9, 0.2}, "arrival 0 at negative time -100"},
	} {
		arr := make([]workload.Arrival, len(c.at))
		for i, at := range c.at {
			arr[i] = workload.Arrival{At: at, Req: workload.Request{ID: i + 1, Context: 64, Decode: 2}}
		}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), Config{System: testSystem(), Replicas: 2, Policy: RoundRobin()}, arr)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: schedule accepted", c.name)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10 s", c.name)
		}
	}
}

// TestRunRejectsShortPrompts: a prompt needs at least one token. A
// negative context used to panic pricing its KV transfer, break a DES
// invariant or report negative throughput, and an empty one ran; each
// must fail as input, naming the request, on the shorthand, a unified
// fleet and a prefill/decode fleet. Each case runs against a deadline
// and turns a panic into a failure.
func TestRunRejectsShortPrompts(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"shorthand", Config{System: testSystem(), Replicas: 2, Policy: RoundRobin()}},
		{"unified", Config{Fleet: []ReplicaSpec{{System: testSystem(), Count: 2, Role: RoleUnified}}}},
		{"prefill/decode", Config{Fleet: []ReplicaSpec{
			{System: testSystem(), Count: 1, Role: RolePrefill},
			{System: testSystem(), Count: 1, Role: RoleDecode},
		}, Interconnect: timing.DefaultInterconnect()}},
	}
	for _, sh := range shapes {
		for _, prompt := range []int{0, -1, -100, -2000000} {
			arr := testArrivals(t, 4, 8)
			arr[2].Req.Context = prompt
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				_, err := Run(context.Background(), sh.cfg, arr)
				done <- err
			}()
			select {
			case err := <-done:
				want := fmt.Sprintf("request %d has context %d", arr[2].Req.ID, prompt)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s, context %d: error %v, want one containing %q", sh.name, prompt, err, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, context %d: still running after 10 s", sh.name, prompt)
			}
		}
	}
}

// TestRunRejectsBadInputs feeds Run the NaN, infinite and negative
// knobs that used to hang it (fault chains drawing NaN intervals),
// print nonsense (a NaN link latency), fail deep inside the spine, or
// pass silently (a NaN SLO switched goodput's SLO off). Each must be a
// Validate error; each case runs against a deadline, so a regression
// fails here instead of hanging the suite.
func TestRunRejectsBadInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	fleet := func(mutate func(*Config)) Config {
		cfg := Config{Fleet: []ReplicaSpec{{System: testSystem(), Count: 2, Role: RoleUnified}}}
		mutate(&cfg)
		return cfg
	}
	group := func(g FaultGroup) Config {
		g.Spec = -1
		return fleet(func(c *Config) { c.Faults = &FaultPlan{Seed: 1, Groups: []FaultGroup{g}} })
	}
	inject := func(at, dur float64) Config {
		return fleet(func(c *Config) {
			c.Faults = &FaultPlan{Injections: []Injection{{Mode: FaultCrash, At: at, DurationSeconds: dur}}}
		})
	}
	warmup := func(w float64) Config {
		return fleet(func(c *Config) {
			c.Fleet[0].Min, c.Fleet[0].WarmupSeconds = 1, w
			c.Autoscaler = MaxScaler{}
		})
	}
	latency := func(l float64) Config {
		return fleet(func(c *Config) {
			c.Fleet = append(c.Fleet, ReplicaSpec{System: testSystem(), Count: 1, Role: RolePrefill})
			c.Interconnect = timing.Interconnect{BytesPerSecond: 64 << 30, LatencySeconds: l}
		})
	}
	slo := func(s SLO) Config { return Config{System: testSystem(), Replicas: 1, Policy: RoundRobin(), SLO: s} }
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"mtbf nan", group(FaultGroup{MTBFSeconds: nan, MTTRSeconds: 1})},
		{"mttr nan", group(FaultGroup{MTBFSeconds: 0.5, MTTRSeconds: nan})},
		{"slowdown nan", group(FaultGroup{Mode: FaultSlowdown, MTBFSeconds: 0.5, MTTRSeconds: 0.1, Slowdown: nan})},
		{"slowdown inf", group(FaultGroup{Mode: FaultSlowdown, MTBFSeconds: 0.5, MTTRSeconds: 0.1, Slowdown: inf})},
		{"link factor nan", group(FaultGroup{Mode: FaultLink, MTBFSeconds: 0.5, MTTRSeconds: 0.1, LinkFactor: nan})},
		{"backoff nan", fleet(func(c *Config) {
			c.Faults = &FaultPlan{Groups: []FaultGroup{{Spec: -1, MTBFSeconds: 0.5}}, BackoffSeconds: nan}
		})},
		{"injection at nan", inject(nan, 0.1)},
		{"injection duration nan", inject(0.01, nan)},
		{"warmup nan", warmup(nan)},
		{"warmup inf", warmup(inf)},
		{"interconnect latency nan", latency(nan)},
		{"interconnect latency negative", latency(-5e-6)},
		{"slo ttft nan", slo(SLO{TTFT: nan})},
		{"slo ttft negative", slo(SLO{TTFT: -1})},
		{"slo tbt nan", slo(SLO{TBT: nan})},
		{"slo tbt negative", slo(SLO{TBT: -1})},
	} {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
		arr := testArrivals(t, 4, 8)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := Run(ctx, c.cfg, arr)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: Run accepted it", c.name)
			}
		case <-time.After(5 * time.Second):
			cancel()
			t.Fatalf("%s: still running after 5 s", c.name)
		}
		cancel()
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("PolicyByName(%s).Name() = %s", name, p.Name())
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestSLOMet(t *testing.T) {
	s := SLO{TTFT: 0.5, TBT: 0.1}
	cases := []struct {
		ttft, tbt float64
		want      bool
	}{
		{0.4, 0.05, true},
		{0.5, 0.1, true}, // boundaries are inclusive
		{0.6, 0.05, false},
		{0.4, 0.2, false},
	}
	for _, c := range cases {
		if got := s.Met(c.ttft, c.tbt); got != c.want {
			t.Errorf("Met(%g,%g) = %v", c.ttft, c.tbt, got)
		}
	}
	if !(SLO{}).Met(99, 99) {
		t.Error("zero SLO enforces nothing")
	}
	if !(SLO{TTFT: 1}).Met(0.5, 99) {
		t.Error("unset TBT must not be enforced")
	}
}

func TestQuantiles(t *testing.T) {
	if q := quantiles(nil, nil); q != (Quantiles{}) {
		t.Errorf("empty sample: %+v", q)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	q := quantiles(xs, nil)
	if q.P50 != 50 || q.P95 != 95 || q.P99 != 99 {
		t.Errorf("nearest-rank percentiles wrong: %+v", q)
	}
	if math.Abs(q.Mean-50.5) > 1e-12 {
		t.Errorf("mean = %g", q.Mean)
	}
	// quantiles sorts in place (the report fold owns its samples).
	if xs[0] != 1 || xs[99] != 100 {
		t.Error("quantiles did not sort the sample ascending")
	}
}

// TestCapacityStatsReported: a tightly budgeted DPA run must surface
// the capacity metrics — peaks, max concurrency — and aggregate them
// consistently with the per-replica breakdown.
func TestCapacityStatsReported(t *testing.T) {
	cfg := testSystem()
	cfg.KVBudgetBytes = 32 << 30
	arr := testArrivals(t, 16, 64)
	rep := run(t, Config{System: cfg, Replicas: 2, Policy: RoundRobin()}, arr)
	c := rep.Capacity
	if c.PoolBytes != 32<<30 {
		t.Errorf("pool %d, want the 32 GiB budget", c.PoolBytes)
	}
	if c.PeakLiveBytes <= 0 || c.PeakReservedBytes <= 0 {
		t.Errorf("peaks not sampled: %+v", c)
	}
	if c.PeakLiveBytes > c.PeakReservedBytes {
		t.Errorf("peak live %d > peak reserved %d", c.PeakLiveBytes, c.PeakReservedBytes)
	}
	if c.PeakReservedBytes > c.PoolBytes {
		t.Errorf("peak reserved %d past the pool %d", c.PeakReservedBytes, c.PoolBytes)
	}
	if c.MaxActive <= 0 {
		t.Error("max active not tracked")
	}
	var pre int
	maxAct := 0
	for _, st := range rep.PerReplica {
		pre += st.Preemptions
		if st.MaxActive > maxAct {
			maxAct = st.MaxActive
		}
		if st.PeakLiveBytes > c.PeakLiveBytes || st.PeakReservedBytes > c.PeakReservedBytes {
			t.Errorf("aggregate peaks below a replica's: %+v vs %+v", c, st)
		}
	}
	if pre != c.Preemptions || maxAct != c.MaxActive {
		t.Errorf("aggregate (%d preempt, %d max-act) disagrees with replicas (%d, %d)",
			c.Preemptions, c.MaxActive, pre, maxAct)
	}
	// Static on the same schedule reserves more than it fills.
	cfg.Tech.DPA = false
	srep := run(t, Config{System: cfg, Replicas: 2, Policy: RoundRobin()}, arr)
	if srep.Capacity.PeakReservedBytes <= srep.Capacity.PeakLiveBytes {
		t.Errorf("static should strand reservation: reserved %d vs live %d",
			srep.Capacity.PeakReservedBytes, srep.Capacity.PeakLiveBytes)
	}
	if srep.Capacity.MaxActive > rep.Capacity.MaxActive {
		t.Errorf("static admitted more (%d) than DPA (%d) at the same budget",
			srep.Capacity.MaxActive, rep.Capacity.MaxActive)
	}
}

// TestServeGPUAndDIMMBackends: the serving simulator now accepts every
// registered backend — the GPU baseline is admitted against its paged
// pool and the DIMM-PIM system against its all-KV DIMM pool — and both
// complete a schedule with positive SLO metrics.
func TestServeGPUAndDIMMBackends(t *testing.T) {
	arr := testArrivals(t, 12, 16)
	gpuCfg := cluster.Config{Name: "serve-gpu", Backend: cluster.GPUSystem,
		Model: model.LLM7B32K(), GPUs: 2, DecodeWindow: 4}
	dimmCfg := cluster.Config{Name: "serve-dimm", Backend: cluster.DIMMPIM,
		Dev: timing.DDR5DIMM(), Modules: 8, TP: 8, PP: 1,
		Model: model.LLM7B32K(), Tech: cluster.PIMphony(), DecodeWindow: 4}
	for _, sys := range []cluster.Config{gpuCfg, dimmCfg} {
		rep := run(t, Config{System: sys, Replicas: 1, Policy: RoundRobin(),
			SLO: SLO{TTFT: 10, TBT: 1}}, arr)
		if rep.Requests != 12 {
			t.Fatalf("%s: served %d of 12", sys.Name, rep.Requests)
		}
		if rep.Throughput <= 0 || rep.TTFT.P50 <= 0 || rep.TBT.P95 <= 0 {
			t.Errorf("%s: missing metrics %+v", sys.Name, rep)
		}
		if rep.Capacity.PoolBytes <= 0 || rep.Capacity.PeakLiveBytes <= 0 {
			t.Errorf("%s: missing capacity accounting %+v", sys.Name, rep.Capacity)
		}
	}
}

// TestFastForwardEquivalence is the end-to-end fast-forward contract:
// every backend x allocator combination — including a preemption-heavy
// DPA configuration and the GPU's paged pool — must produce an
// identical Report through the multi-step leap path and the naive
// one-iteration loop (leap horizon 1) at every leap horizon.
func TestFastForwardEquivalence(t *testing.T) {
	pim := testSystem()
	static := testSystem()
	static.Tech.DPA = false
	tight := testSystem()
	tight.KVBudgetBytes = 4106 << 20 // DPA over-admission preempts mid-decode
	xpu := testSystem()
	xpu.Backend = cluster.XPUPIM
	gpu := cluster.Config{Name: "ff-gpu", Backend: cluster.GPUSystem,
		Model: model.LLM7B32K(), GPUs: 2, DecodeWindow: 4}
	dimm := cluster.Config{Name: "ff-dimm", Backend: cluster.DIMMPIM,
		Dev: timing.DDR5DIMM(), Modules: 8, TP: 8, PP: 1,
		Model: model.LLM7B32K(), Tech: cluster.PIMphony(), DecodeWindow: 4}

	long := testArrivals(t, 16, 24)
	tightArr := func() []workload.Arrival {
		gen := workload.Uniform(4096, 5)
		gen.DecodeLen = 16
		arr, err := workload.PoissonArrivals(gen, 1000, 2, 8, 7)
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}()
	cases := []struct {
		name       string
		sys        cluster.Config
		replicas   int
		arr        []workload.Arrival
		wantEvents bool // the scenario must actually preempt
	}{
		{"pim-dpa", pim, 2, long, false},
		{"pim-static", static, 2, long, false},
		{"pim-dpa-preempting", tight, 1, tightArr, true},
		{"xpu-pim", xpu, 1, long, false},
		{"gpu-paged", gpu, 1, long, false},
		{"dimm-pim", dimm, 1, long, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mk := func(horizon int) *Report {
				return run(t, Config{System: c.sys, Replicas: c.replicas,
					Policy: LeastOutstandingTokens(), SLO: SLO{TTFT: 0.1, TBT: 0.025},
					leapHorizon: horizon}, c.arr)
			}
			fast := mk(0)
			for _, horizon := range []int{1, 5, 64} {
				if clamped := mk(horizon); !reflect.DeepEqual(clamped, fast) {
					t.Errorf("reports diverged:\nhorizon %d %+v\nunclamped %+v", horizon, clamped, fast)
				}
			}
			if c.wantEvents && fast.Capacity.Preemptions == 0 {
				t.Error("scenario did not exercise preemption")
			}
		})
	}
}

// TestApplyStampsFirstTokenByCount is the regression test for the
// first-token sentinel: a first iteration ending at simulated time
// exactly zero must still stamp the request's first-token time — the
// token count, not the zero-value of record.first, decides.
func TestApplyStampsFirstTokenByCount(t *testing.T) {
	tk := &tracker{recs: map[int]*record{7: {}}}
	// A zero-duration iteration generates token 1 at t=0.
	tk.apply(cluster.StepResult{Iterations: 1, FirstEnd: 0, Batch: 1, Generated: []int{7}}, 0)
	// A later iteration generates token 2 at t=5 — it must NOT re-stamp
	// the first-token time.
	tk.apply(cluster.StepResult{Iterations: 1, FirstEnd: 5, Batch: 1, Generated: []int{7}}, 5)
	rec := tk.recs[7]
	if rec.tokens != 2 {
		t.Fatalf("counted %d tokens, want 2", rec.tokens)
	}
	if rec.first != 0 {
		t.Errorf("first-token time re-stamped to %g, want 0 (the end of the iteration that produced token 1)", rec.first)
	}
	// A three-iteration leap from t=1 stamps the first token at the end
	// of its first iteration, not the leap's end, and its completion at
	// the leap's end.
	tk2 := &tracker{recs: map[int]*record{1: {}}}
	tk2.apply(cluster.StepResult{Iterations: 3, FirstEnd: 2, Batch: 1, Generated: []int{1},
		Completed: []workload.Request{{ID: 1}}}, 4)
	rec = tk2.recs[1]
	if rec.tokens != 3 {
		t.Fatalf("leap counted %d tokens, want 3", rec.tokens)
	}
	if rec.first != 2 {
		t.Errorf("leap first-token time %g, want 2 (end of iteration 1)", rec.first)
	}
	if rec.done != 4 {
		t.Errorf("leap completion %g, want 4 (the leap's end)", rec.done)
	}
}
