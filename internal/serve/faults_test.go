// Fault-injection oracles: a zero plan must reproduce the fault-free
// tables byte-for-byte, an instant-recover crash must price exactly one
// KV recompute, an unlimited retry budget must lose nothing, an
// exhausted budget must surface in the Faults block without corrupting
// the fold, and fault timing must be a pure function of the plan across
// leap granularity and sweep parallelism (equiv_test.go pins that
// axis).
package serve_test

import (
	"math"
	"testing"

	"pimphony/internal/serve"
	"pimphony/internal/simtest"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// faultFleets builds the fleet shapes the fault oracles sweep: unified
// fixed, disaggregated fixed with migration and stealing, and an
// SLO-autoscaled unified pool.
func faultFleets() map[string]func() serve.Config {
	return map[string]func() serve.Config{
		"unified": func() serve.Config {
			return serve.Config{
				Fleet: []serve.ReplicaSpec{
					{System: simtest.System("pim-dpa"), Count: 3, Role: serve.RoleUnified},
				},
				SLO: serve.SLO{TTFT: 1, TBT: 0.2},
			}
		},
		"disaggregated": func() serve.Config {
			return serve.Config{
				Fleet: []serve.ReplicaSpec{
					{System: simtest.System("pim-dpa"), Count: 1, Role: serve.RolePrefill},
					{System: simtest.System("pim-tight"), Count: 2, Role: serve.RoleDecode},
				},
				Interconnect: timing.DefaultInterconnect(),
				Migrate:      true,
				Steal:        true,
				SLO:          serve.SLO{TTFT: 1, TBT: 0.2},
			}
		},
		"autoscaled": func() serve.Config {
			return serve.Config{
				Fleet: []serve.ReplicaSpec{
					{System: simtest.System("pim-dpa"), Count: 3, Role: serve.RoleUnified, Min: 1, WarmupSeconds: 0.05},
				},
				Autoscaler: serve.NewSLOScaler(),
				SLO:        serve.SLO{TTFT: 1, TBT: 0.2},
			}
		},
	}
}

// TestZeroFaultPlanIsIdentity pins the gating guarantee: a nil plan and
// an empty FaultPlan{} compile to nothing, so every fleet table —
// fixed, disaggregated, autoscaled — is byte-identical with and without
// the fault layer in the configuration. (The benchgate pins the same
// identity for the full pinned experiment tables: the serve, capacity,
// fleet and systems hashes in bench/baseline.json predate the fault
// layer and must not move.)
func TestZeroFaultPlanIsIdentity(t *testing.T) {
	poisson, err := simtest.PoissonSchedule(16, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := simtest.TightSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range faultFleets() {
		t.Run(name, func(t *testing.T) {
			arr := poisson
			if name == "disaggregated" {
				// The pim-tight decode tier cannot admit the Poisson
				// schedule's long contexts; use the preemption schedule
				// sized for its KV budget.
				arr = tight
			}
			base := fp(t, mk(), arr)
			withNil := mk()
			withNil.Faults = nil
			empty := mk()
			// MaxRetries/Backoff without Groups or Injections is still an
			// inactive plan: nothing can fail, so nothing may change.
			empty.Faults = &serve.FaultPlan{Seed: 99, MaxRetries: 3, BackoffSeconds: 0.5}
			if got := fp(t, withNil, arr); got != base {
				t.Errorf("nil FaultPlan changed the report")
			}
			if got := fp(t, empty, arr); got != base {
				t.Errorf("empty FaultPlan changed the report")
			}
		})
	}
}

// TestInstantRecoverCrashEqualsRecompute is the pricing oracle for the
// crash path: one replica, one request, one zero-duration crash
// mid-decode. The request loses its KV, retries immediately (zero
// backoff, unlimited budget) onto the same — instantly recovered —
// replica, and re-admits through the recompute path. The completion
// must shift by exactly the recompute charge: crash-and-retry equals
// preempt-and-recompute.
func TestInstantRecoverCrashEqualsRecompute(t *testing.T) {
	arr := []workload.Arrival{{Req: workload.Request{ID: 1, Context: 64, Decode: 200}, At: 0}}
	mk := func() serve.Config {
		return serve.Config{
			Fleet: []serve.ReplicaSpec{
				{System: simtest.System("pim-dpa"), Count: 1, Role: serve.RoleUnified},
			},
			SLO: serve.SLO{TTFT: 1, TBT: 0.2},
		}
	}
	clean := mustRun(t, mk(), arr)
	first, done := clean.TTFT.Mean, clean.E2E.Mean
	if done <= first {
		t.Fatalf("degenerate clean run: first %g, done %g", first, done)
	}
	cfg := mk()
	cfg.Faults = &serve.FaultPlan{
		Injections: []serve.Injection{
			{Replica: 0, Mode: serve.FaultCrash, At: (first + done) / 2},
		},
		MaxRetries:     -1,
		BackoffSeconds: 0,
	}
	faulted := mustRun(t, cfg, arr)
	simtest.CheckInvariants(t, faulted, arr)
	f := faulted.Faults
	if f == nil {
		t.Fatal("faulted run reported no Faults block")
	}
	if f.Crashes != 1 || f.Retries != 1 || f.Failed != 0 {
		t.Fatalf("crashes/retries/failed = %d/%d/%d, want 1/1/0", f.Crashes, f.Retries, f.Failed)
	}
	if f.LostKVBytes <= 0 {
		t.Errorf("crash mid-decode lost %d KV bytes, want positive", f.LostKVBytes)
	}
	rc := faulted.Capacity.RecomputeSeconds
	if rc <= 0 {
		t.Fatalf("recompute charge %g, want positive", rc)
	}
	if shift := faulted.E2E.Mean - clean.E2E.Mean; math.Abs(shift-rc) > 1e-9 {
		t.Errorf("completion shifted by %g, want the recompute charge %g", shift, rc)
	}
	if faulted.TTFT.Mean != clean.TTFT.Mean {
		t.Errorf("first token moved from %g to %g; the crash happened after it", clean.TTFT.Mean, faulted.TTFT.Mean)
	}
}

// TestUnlimitedRetryBudgetLosesNothing: recurring crashes across the
// whole fleet with an unlimited retry budget must complete every
// request — failures cost latency and recompute, never requests.
func TestUnlimitedRetryBudgetLosesNothing(t *testing.T) {
	arr, err := simtest.PoissonSchedule(24, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultFleets()["unified"]()
	cfg.Faults = &serve.FaultPlan{
		Seed: 3,
		Groups: []serve.FaultGroup{
			{Spec: -1, Mode: serve.FaultCrash, MTBFSeconds: 0.05, MTTRSeconds: 0.02},
		},
		MaxRetries:     -1,
		BackoffSeconds: 0.005,
	}
	rep := mustRun(t, cfg, arr)
	simtest.CheckInvariants(t, rep, arr)
	f := rep.Faults
	if f == nil || f.Crashes == 0 {
		t.Fatalf("fault schedule never fired (Faults=%+v); the oracle is vacuous", f)
	}
	if f.Failed != 0 {
		t.Errorf("unlimited retry budget lost %d requests", f.Failed)
	}
	if f.Retries == 0 {
		t.Errorf("crashes fired but nothing retried; in-flight work was not withdrawn")
	}
	if f.DowntimeSeconds <= 0 {
		t.Errorf("downtime %g, want positive", f.DowntimeSeconds)
	}
}

// TestExhaustedRetryBudgetFailsLoudly: a zero retry budget under a
// guaranteed mid-run crash must surface permanently failed requests in
// the Faults block while the rest of the report still folds (the
// fault-aware invariants accept served = arrivals - failed).
func TestExhaustedRetryBudgetFailsLoudly(t *testing.T) {
	arr, err := simtest.PoissonSchedule(24, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultFleets()["unified"]()
	cfg.Faults = &serve.FaultPlan{
		Seed: 3,
		Groups: []serve.FaultGroup{
			{Spec: -1, Mode: serve.FaultCrash, MTBFSeconds: 0.05, MTTRSeconds: 0.02},
		},
		MaxRetries:     0,
		BackoffSeconds: 0,
	}
	rep := mustRun(t, cfg, arr)
	simtest.CheckInvariants(t, rep, arr)
	f := rep.Faults
	if f == nil || f.Crashes == 0 {
		t.Fatalf("fault schedule never fired (Faults=%+v); the oracle is vacuous", f)
	}
	if f.Failed == 0 {
		t.Errorf("zero retry budget under recurring crashes failed no requests")
	}
	if f.Retries != 0 {
		t.Errorf("zero budget retried %d times", f.Retries)
	}
}

// holdUntilSeen is a test placement that holds every request until the
// request with ID open has been offered, then places on the first
// fitting replica: capacity that only a later arrival unlocks.
type holdUntilSeen struct {
	open int
	seen bool
}

func (*holdUntilSeen) Name() string { return "hold-until-seen" }
func (p *holdUntilSeen) Place(a workload.Arrival, loads []serve.FleetLoad) int {
	if a.Req.ID == p.open {
		p.seen = true
	}
	if p.seen {
		for i, l := range loads {
			if l.Fits {
				return i
			}
		}
	}
	return -1
}

// TestFaultQuiescenceCountsScheduledArrivals is the stall-guard
// regression for arrivals that are not heap events: a crash recovers
// while request 1 is held and nothing but request 2's arrival is still
// to come. That arrival is pending work, so the recovery must not
// declare the fleet quiescent and fail the run as a permanent stall;
// request 2 releases the hold and both complete.
func TestFaultQuiescenceCountsScheduledArrivals(t *testing.T) {
	arr := []workload.Arrival{
		{At: 0, Req: workload.Request{ID: 1, Context: 64, Decode: 8}},
		{At: 1, Req: workload.Request{ID: 2, Context: 64, Decode: 8}},
	}
	rep := mustRun(t, serve.Config{
		Fleet:     []serve.ReplicaSpec{{System: simtest.System("pim-dpa"), Count: 1, Role: serve.RoleUnified}},
		Placement: &holdUntilSeen{open: 2},
		Faults: &serve.FaultPlan{
			Injections: []serve.Injection{{Replica: 0, Mode: serve.FaultCrash, At: 0.1, DurationSeconds: 0.05}},
			MaxRetries: -1,
		},
		SLO: serve.SLO{TTFT: 10, TBT: 1},
	}, arr)
	simtest.CheckInvariants(t, rep, arr)
	if rep.Faults.Crashes != 1 || rep.Fleet.Held != 1 {
		t.Errorf("crashes %d, held %d; want the crash and its recovery while request 1 is held",
			rep.Faults.Crashes, rep.Fleet.Held)
	}
}

// TestDegradationModesBite: slowdown and link faults must change the
// tables they claim to price — a slowed replica stretches latency, a
// degraded fabric stretches transfer seconds — while crash accounting
// stays zero.
func TestDegradationModesBite(t *testing.T) {
	arr, err := simtest.TightSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	mk := faultFleets()["disaggregated"]
	clean := mustRun(t, mk(), arr)

	slow := mk()
	slow.Faults = &serve.FaultPlan{
		Injections: []serve.Injection{
			{Replica: 0, Mode: serve.FaultSlowdown, At: 0, DurationSeconds: 1e6, Slowdown: 4},
			{Replica: 1, Mode: serve.FaultSlowdown, At: 0, DurationSeconds: 1e6, Slowdown: 4},
		},
	}
	srep := mustRun(t, slow, arr)
	simtest.CheckInvariants(t, srep, arr)
	if srep.Faults.Slowdowns != 2 || srep.Faults.Crashes != 0 {
		t.Fatalf("slowdowns/crashes = %d/%d, want 2/0", srep.Faults.Slowdowns, srep.Faults.Crashes)
	}
	if srep.E2E.Mean <= clean.E2E.Mean {
		t.Errorf("4x slowdown on every decoder left E2E at %g (clean %g)", srep.E2E.Mean, clean.E2E.Mean)
	}

	link := mk()
	link.Faults = &serve.FaultPlan{
		Injections: []serve.Injection{
			{Replica: 0, Mode: serve.FaultLink, At: 0, DurationSeconds: 1e6, LinkFactor: 8},
		},
	}
	lrep := mustRun(t, link, arr)
	simtest.CheckInvariants(t, lrep, arr)
	if lrep.Faults.LinkDegradations != 1 {
		t.Fatalf("link degradations = %d, want 1", lrep.Faults.LinkDegradations)
	}
	if lrep.Fleet.TransferSeconds <= clean.Fleet.TransferSeconds {
		t.Errorf("8x link degradation left transfer seconds at %g (clean %g)",
			lrep.Fleet.TransferSeconds, clean.Fleet.TransferSeconds)
	}
}
