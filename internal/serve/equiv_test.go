// The simulation-equivalence suite: the serving spine (des.go) must
// produce byte-identical reports across every axis that is supposed to
// change only how fast the simulation runs, never what it computes —
// the leap bound the spine derives from the scheduler, leap
// granularity (LeapHorizon), sweep parallelism, and the push order of
// commuting equal-timestamp events. Single stepping (SingleStep) is the
// reference every leaping run must match. The suite runs black-box
// through internal/simtest so the same oracles serve the fuzz target
// and any future simulator front end.
package serve_test

import (
	"context"
	"fmt"
	"testing"

	"pimphony/internal/serve"
	"pimphony/internal/simtest"
	"pimphony/internal/sweep"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

func mustRun(t *testing.T, cfg serve.Config, arr []workload.Arrival) *serve.Report {
	t.Helper()
	rep, err := serve.Run(context.Background(), cfg, arr)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// fp runs a configuration, checks the report invariants, and returns
// the equivalence fingerprint.
func fp(t *testing.T, cfg serve.Config, arr []workload.Arrival) string {
	t.Helper()
	rep := mustRun(t, cfg, arr)
	simtest.CheckInvariants(t, rep, arr)
	return simtest.Fingerprint(rep)
}

// classicPolicies builds fresh instances of every load-balancing policy
// of the shorthand (policies may keep state, so each run needs its own).
func classicPolicies() map[string]func() serve.Placement {
	return map[string]func() serve.Placement{
		"round-robin":  serve.RoundRobin,
		"least-tokens": serve.LeastOutstandingTokens,
		"session":      serve.SessionAffinity,
	}
}

// TestClassicSpineEquivalence sweeps the backend × allocator grid with
// every load-balancing policy of the Config{System, Replicas, Policy}
// shorthand and pins, per cell, leaps straight to the next global event
// (the decoupled bound) against single-step advancement and against
// tight leap horizons.
func TestClassicSpineEquivalence(t *testing.T) {
	long, err := simtest.PoissonSchedule(16, 24, 42)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := simtest.TightSchedule(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, sysName := range simtest.SystemNames() {
		arr := long
		if sysName == "pim-tight" {
			arr = tight // exercise the preemption/recompute path
		}
		for polName, mkPol := range classicPolicies() {
			t.Run(sysName+"/"+polName, func(t *testing.T) {
				mk := func(single bool, horizon int) string {
					return fp(t, serve.Config{
						System:      simtest.System(sysName),
						Replicas:    2,
						Policy:      mkPol(),
						SLO:         serve.SLO{TTFT: 1, TBT: 0.2},
						SingleStep:  single,
						LeapHorizon: horizon,
					}, arr)
				}
				leap := mk(false, 0)
				if single := mk(true, 0); single != leap {
					t.Errorf("single-step diverged from leap advancement")
				}
				for _, horizon := range []int{1, 5} {
					if clamped := mk(false, horizon); clamped != leap {
						t.Errorf("LeapHorizon %d changed the report", horizon)
					}
				}
			})
		}
	}
}

// TestFleetSpineEquivalence pins the fleet half of the spine across
// every placement policy: horizon-clamped leaps, one-iteration
// stepping, and tighter leap horizons must agree byte-for-byte while
// migration and stealing fire.
func TestFleetSpineEquivalence(t *testing.T) {
	arr, err := simtest.TightSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, plName := range serve.PlacementNames() {
		t.Run(plName, func(t *testing.T) {
			mk := func(single bool, horizon int) string {
				pl, err := serve.PlacementByName(plName)
				if err != nil {
					t.Fatal(err)
				}
				return fp(t, serve.Config{
					Fleet: []serve.ReplicaSpec{
						{System: simtest.System("pim-dpa"), Count: 1, Role: serve.RolePrefill},
						{System: simtest.System("pim-tight"), Count: 2, Role: serve.RoleDecode},
					},
					Interconnect: timing.DefaultInterconnect(),
					Placement:    pl,
					Migrate:      true,
					Steal:        true,
					SingleStep:   single,
					LeapHorizon:  horizon,
					SLO:          serve.SLO{TTFT: 1, TBT: 0.2},
				}, arr)
			}
			leap := mk(false, 0)
			if single := mk(true, 0); single != leap {
				t.Errorf("single-step fleet diverged from leap advancement")
			}
			for _, horizon := range []int{1, 5} {
				if clamped := mk(false, horizon); clamped != leap {
					t.Errorf("LeapHorizon %d changed the fleet report", horizon)
				}
			}
		})
	}
}

// TestFaultedSpineEquivalence pins the fault layer to the same
// determinism contract as the rest of the spine: a fault plan compiles
// to explicit heap events, so crash, slowdown and link schedules — and
// every retry, recompute and re-placement they trigger — must be
// byte-identical across single stepping, leap horizon and sweep
// parallelism. The autoscaled variant doubles as the regression pin for
// timer-driven scale evaluation: autoscaled runs are now leap-invariant
// too, faults or no faults.
func TestFaultedSpineEquivalence(t *testing.T) {
	arr, err := simtest.TightSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	plan := func() *serve.FaultPlan {
		return &serve.FaultPlan{
			Seed: 17,
			Groups: []serve.FaultGroup{
				{Spec: 1, Mode: serve.FaultCrash, MTBFSeconds: 0.05, MTTRSeconds: 0.01},
				{Spec: 1, Mode: serve.FaultSlowdown, MTBFSeconds: 0.04, MTTRSeconds: 0.03, Slowdown: 3},
				{Spec: 1, Mode: serve.FaultLink, MTBFSeconds: 0.06, MTTRSeconds: 0.02, LinkFactor: 4},
			},
			MaxRetries:     -1,
			BackoffSeconds: 0.002,
		}
	}
	t.Run("disaggregated", func(t *testing.T) {
		mk := func(single bool, horizon int) string {
			rep := mustRun(t, serve.Config{
				Fleet: []serve.ReplicaSpec{
					{System: simtest.System("pim-dpa"), Count: 1, Role: serve.RolePrefill},
					{System: simtest.System("pim-tight"), Count: 2, Role: serve.RoleDecode},
				},
				Interconnect: timing.DefaultInterconnect(),
				Migrate:      true,
				Steal:        true,
				Faults:       plan(),
				SingleStep:   single,
				LeapHorizon:  horizon,
				SLO:          serve.SLO{TTFT: 1, TBT: 0.2},
			}, arr)
			simtest.CheckInvariants(t, rep, arr)
			if rep.Faults == nil || rep.Faults.Crashes == 0 {
				t.Fatal("fault schedule never fired; the equivalence check is vacuous")
			}
			return simtest.Fingerprint(rep)
		}
		leap := mk(false, 0)
		if single := mk(true, 0); single != leap {
			t.Errorf("single-step faulted fleet diverged from leap advancement")
		}
		for _, horizon := range []int{1, 5} {
			if clamped := mk(false, horizon); clamped != leap {
				t.Errorf("LeapHorizon %d changed the faulted fleet report", horizon)
			}
		}
		prev := sweep.SetDefault(8)
		par := mk(false, 0)
		sweep.SetDefault(prev)
		if par != leap {
			t.Errorf("parallel sweep changed the faulted fleet report")
		}
	})
	t.Run("autoscaled", func(t *testing.T) {
		mk := func(single bool, horizon int) string {
			rep := mustRun(t, serve.Config{
				Fleet: []serve.ReplicaSpec{
					{System: simtest.System("pim-dpa"), Count: 3, Role: serve.RoleUnified, Min: 1, WarmupSeconds: 0.02},
				},
				Autoscaler: serve.NewSLOScaler(),
				Faults: &serve.FaultPlan{
					Seed: 5,
					Groups: []serve.FaultGroup{
						{Spec: -1, Mode: serve.FaultCrash, MTBFSeconds: 0.05, MTTRSeconds: 0.02},
					},
					MaxRetries:     -1,
					BackoffSeconds: 0.005,
				},
				SingleStep:  single,
				LeapHorizon: horizon,
				SLO:         serve.SLO{TTFT: 1, TBT: 0.2},
			}, arr)
			simtest.CheckInvariants(t, rep, arr)
			return simtest.Fingerprint(rep)
		}
		leap := mk(false, 0)
		if single := mk(true, 0); single != leap {
			t.Errorf("single-step autoscaled faulted fleet diverged from leap advancement")
		}
		for _, horizon := range []int{1, 5} {
			if clamped := mk(false, horizon); clamped != leap {
				t.Errorf("LeapHorizon %d changed the autoscaled faulted report", horizon)
			}
		}
		prev := sweep.SetDefault(8)
		par := mk(false, 0)
		sweep.SetDefault(prev)
		if par != leap {
			t.Errorf("parallel sweep changed the autoscaled faulted report")
		}
	})
}

// TestEqualTimestampPermutationInvariance is the metamorphic
// event-order oracle: two arrivals at the same timestamp that route to
// different replicas commute — swapping their order in the schedule
// permutes the cursor's dispatch order but may not change a single
// timestamp. Session affinity routes independently of arrival order, so
// the invariance is checkable end to end.
func TestEqualTimestampPermutationInvariance(t *testing.T) {
	const replicas = 4
	// Pick three session keys that hash to pairwise-distinct replicas,
	// so the requests in each equal-time group never share a queue.
	pol := serve.SessionAffinity()
	probe := serve.NoCandidates(replicas)
	var sessions []int
	seen := map[int]bool{}
	for s := 0; len(sessions) < 3 && s < 256; s++ {
		idx := pol.Place(workload.Arrival{Session: s}, probe)
		if !seen[idx] {
			seen[idx] = true
			sessions = append(sessions, s)
		}
	}
	if len(sessions) < 3 {
		t.Fatal("could not find three sessions with distinct replicas")
	}
	gen := workload.NewGenerator(workload.QMSum(), 11)
	gen.DecodeLen = 6
	var arr []workload.Arrival
	for g := 0; g < 5; g++ {
		at := 0.01 * float64(g)
		for _, s := range sessions {
			arr = append(arr, workload.Arrival{Req: gen.Next(), At: at, Session: s})
		}
	}
	// Rotate each equal-time group: (a b c) -> (b c a).
	perm := append([]workload.Arrival(nil), arr...)
	for g := 0; g < len(perm); g += 3 {
		perm[g], perm[g+1], perm[g+2] = perm[g+1], perm[g+2], perm[g]
	}
	cfg := func() serve.Config {
		return serve.Config{System: simtest.System("pim-dpa"), Replicas: replicas,
			Policy: serve.SessionAffinity(), SLO: serve.SLO{TTFT: 1, TBT: 0.2}}
	}
	if a, b := fp(t, cfg(), arr), fp(t, cfg(), perm); a != b {
		t.Error("permuting commuting equal-timestamp arrivals changed the report")
	}
}

// TestDecodeOnlyFleet pins the meaning of a fleet of RoleDecode replicas
// without prefill servers: its prompts are prefilled outside the fleet,
// so an arrival joins its replica's queue at once. Under kv-headroom,
// which holds what fits nowhere, such a fleet runs to completion with
// the report oracles intact and leaping equal to single stepping. Under
// a load-balancing policy it is the Config{System, Replicas, Policy}
// shorthand, byte for byte, with and without IncludePrefill; only the
// explicit fleet reports its FleetStats.
func TestDecodeOnlyFleet(t *testing.T) {
	t.Run("kv-headroom", func(t *testing.T) {
		arr, err := simtest.TightSchedule(10)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(single bool, horizon int) *serve.Report {
			rep := mustRun(t, serve.Config{
				Fleet:       []serve.ReplicaSpec{{System: simtest.System("pim-tight"), Count: 2, Role: serve.RoleDecode}},
				SLO:         serve.SLO{TTFT: 1, TBT: 0.2},
				SingleStep:  single,
				LeapHorizon: horizon,
			}, arr)
			simtest.CheckInvariants(t, rep, arr)
			return rep
		}
		leap := mk(false, 0)
		if leap.Fleet == nil || leap.Fleet.DecodeReplicas != 2 || leap.Fleet.PrefillSeconds != 0 {
			t.Fatalf("fleet stats %+v, want two decode replicas and no prefill in the fleet", leap.Fleet)
		}
		if leap.Fleet.Held == 0 {
			t.Error("kv-headroom held nothing; the held-queue path went unexercised")
		}
		for _, v := range []struct {
			single  bool
			horizon int
		}{{true, 0}, {false, 1}, {false, 5}} {
			if got := mk(v.single, v.horizon); simtest.Fingerprint(got) != simtest.Fingerprint(leap) {
				t.Errorf("single=%v horizon=%d diverged from leap advancement", v.single, v.horizon)
			}
		}
	})
	arr, err := simtest.PoissonSchedule(16, 24, 42)
	if err != nil {
		t.Fatal(err)
	}
	for name, mkPol := range classicPolicies() {
		for _, prefill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prefill=%v", name, prefill), func(t *testing.T) {
				short := mustRun(t, serve.Config{System: simtest.System("pim-dpa"), Replicas: 3, Policy: mkPol(),
					IncludePrefill: prefill, SLO: serve.SLO{TTFT: 1, TBT: 0.2}}, arr)
				fleet := mustRun(t, serve.Config{
					Fleet:          []serve.ReplicaSpec{{System: simtest.System("pim-dpa"), Count: 3, Role: serve.RoleDecode}},
					Placement:      mkPol(),
					IncludePrefill: prefill,
					SLO:            serve.SLO{TTFT: 1, TBT: 0.2},
				}, arr)
				if short.Fleet != nil || fleet.Fleet == nil {
					t.Fatalf("FleetStats: shorthand %v, explicit fleet %v; want nil and set", short.Fleet, fleet.Fleet)
				}
				fleet.Fleet = nil
				if simtest.Fingerprint(short) != simtest.Fingerprint(fleet) {
					t.Errorf("explicit decode-only fleet diverged from the shorthand:\n%+v\n%+v", short, fleet)
				}
			})
		}
	}
}
