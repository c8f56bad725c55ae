// Autoscaling oracles: a zero-warm-up always-scale policy must
// reproduce the fixed fleet byte-for-byte (the anchor pinning the
// autoscaler to the spine's equivalence guarantees), warm-up must
// delay capacity by exactly the configured seconds, the SLO policy
// must drain idle replicas and re-provision under pressure, and
// autoscaled runs must stay byte-identical across leap granularity.
package serve_test

import (
	"testing"

	"pimphony/internal/serve"
	"pimphony/internal/simtest"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// autoFleet is the shared autoscaling test fleet: three unified
// replicas of one spec.
func autoFleet(min int, warmup float64) []serve.ReplicaSpec {
	return []serve.ReplicaSpec{
		{System: simtest.System("pim-dpa"), Count: 3, Role: serve.RoleUnified, Min: min, WarmupSeconds: warmup},
	}
}

// normalizeScale clears the scale bookkeeping that legitimately
// differs between a fixed fleet and an autoscaled one that converged
// to the same serving behaviour.
func normalizeScale(rep *serve.Report) {
	if rep.Fleet != nil {
		rep.Fleet.ScaleUps = 0
		rep.Fleet.ScaleEvents = nil
	}
}

// TestAutoscaleMaxZeroWarmupEqualsFixed pins the regression the rest
// of the autoscaler hangs off: MaxScaler with zero warm-up and Min 0
// provisions the whole fleet at the first arrival's decision boundary,
// before placement, and from then on every timestamp — and therefore
// the whole report — is byte-identical to the fixed fleet. Covered for
// both the unified fleet (placement at arrival) and the disaggregated
// one (placement at handoff landing, stealing and migration live).
func TestAutoscaleMaxZeroWarmupEqualsFixed(t *testing.T) {
	poisson, err := simtest.PoissonSchedule(16, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := simtest.TightSchedule(10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		arr  []workload.Arrival
		cfg  func() serve.Config
	}{
		{"unified", poisson, func() serve.Config {
			return serve.Config{
				Fleet: autoFleet(0, 0),
				SLO:   serve.SLO{TTFT: 1, TBT: 0.2},
			}
		}},
		{"disaggregated", tight, func() serve.Config {
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
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fixed := mustRun(t, tc.cfg(), tc.arr)
			auto := tc.cfg()
			auto.Autoscaler = serve.MaxScaler{}
			scaled := mustRun(t, auto, tc.arr)
			simtest.CheckInvariants(t, scaled, tc.arr)
			if got, want := scaled.Fleet.ScaleUps, scaled.Fleet.DecodeReplicas-minOnline(auto.Fleet); got != want {
				t.Errorf("ScaleUps = %d, want %d (everything above Min)", got, want)
			}
			normalizeScale(fixed)
			normalizeScale(scaled)
			if a, b := simtest.Fingerprint(fixed), simtest.Fingerprint(scaled); a != b {
				t.Errorf("zero-warm-up MaxScaler diverged from the fixed fleet")
			}
		})
	}
}

// minOnline sums the decode-capable Min counts of a fleet.
func minOnline(fleet []serve.ReplicaSpec) int {
	n := 0
	for _, s := range fleet {
		if s.Role != serve.RolePrefill {
			n += s.Min
		}
	}
	return n
}

// TestAutoscaleWarmupDelaysCapacity: with a warm-up, MaxScaler's
// provisions land exactly WarmupSeconds after the first arrival's
// decision boundary, and the fleet is charged for strictly less
// replica time than the fixed pool.
func TestAutoscaleWarmupDelaysCapacity(t *testing.T) {
	arr, err := simtest.PoissonSchedule(16, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	const warmup = 2.5
	cfg := serve.Config{
		Fleet:      autoFleet(1, warmup),
		SLO:        serve.SLO{TTFT: 1, TBT: 0.2},
		Autoscaler: serve.MaxScaler{},
	}
	rep := mustRun(t, cfg, arr)
	simtest.CheckInvariants(t, rep, arr)
	st := rep.Fleet
	if st.ScaleUps != 2 || len(st.ScaleEvents) != 2 {
		t.Fatalf("ScaleUps %d, %d events; want both standbys provisioned", st.ScaleUps, len(st.ScaleEvents))
	}
	for i, ev := range st.ScaleEvents {
		if want := arr[0].At + warmup; ev.At != want {
			t.Errorf("provision %d landed at t=%g, want first-arrival decision + warm-up = %g", i, ev.At, want)
		}
		if ev.Delta != 1 || ev.Online != 2+i {
			t.Errorf("provision %d: delta %d online %d, want +1 reaching %d", i, ev.Delta, ev.Online, 2+i)
		}
	}
	if fixedSecs := float64(st.DecodeReplicas) * rep.MakespanSeconds; rep.Energy.ReplicaSeconds >= fixedSecs {
		t.Errorf("ReplicaSeconds %g not below the fixed pool's %g despite warming starts", rep.Energy.ReplicaSeconds, fixedSecs)
	}
	if st.AvgOnlineReplicas >= float64(st.DecodeReplicas) {
		t.Errorf("AvgOnlineReplicas %g, want below %d", st.AvgOnlineReplicas, st.DecodeReplicas)
	}
}

// TestAutoscaleSLODrainLifecycle drives the full lifecycle: a burst
// provisions under TTFT pressure, the quiet valley drains idle
// replicas (down to zero included), and late arrivals re-provision
// rather than stalling. The scale timeline must be self-consistent.
func TestAutoscaleSLODrainLifecycle(t *testing.T) {
	arr, err := simtest.PoissonSchedule(12, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Three lone arrivals deep in the valley: each dispatch is a quiet
	// decision boundary (drains fire), and placement afterwards may
	// find nothing online (the re-provision path).
	last := arr[len(arr)-1].At
	for i := 0; i < 3; i++ {
		req := arr[0].Req
		req.ID = 10000 + i
		arr = append(arr, workload.Arrival{Req: req, At: last + 30 + 20*float64(i)})
	}
	sc := serve.NewSLOScaler()
	sc.CooldownSeconds = 1
	cfg := serve.Config{
		Fleet:      autoFleet(1, 0.5),
		SLO:        serve.SLO{TTFT: 1, TBT: 0.2},
		Autoscaler: sc,
	}
	rep := mustRun(t, cfg, arr)
	simtest.CheckInvariants(t, rep, arr)
	st := rep.Fleet
	if st.ScaleUps == 0 {
		t.Error("burst at 30 req/s on one online replica never provisioned")
	}
	if st.Drains == 0 {
		t.Error("quiet valley never drained an idle replica")
	}
	online := minOnline(cfg.Fleet)
	for i, ev := range st.ScaleEvents {
		if i > 0 && ev.At < st.ScaleEvents[i-1].At {
			t.Fatalf("scale timeline out of order at %d: %g after %g", i, ev.At, st.ScaleEvents[i-1].At)
		}
		online += ev.Delta
		if online != ev.Online {
			t.Fatalf("event %d: running online count %d, event says %d", i, online, ev.Online)
		}
		if online < 0 || online > st.DecodeReplicas {
			t.Fatalf("event %d: online count %d outside [0, %d]", i, online, st.DecodeReplicas)
		}
	}
	if st.AvgOnlineReplicas >= float64(st.DecodeReplicas) {
		t.Errorf("AvgOnlineReplicas %g, want below the fixed %d", st.AvgOnlineReplicas, st.DecodeReplicas)
	}
	if rep.Energy.ReplicaSeconds >= float64(st.DecodeReplicas)*rep.MakespanSeconds {
		t.Errorf("autoscaled ReplicaSeconds %g not below the fixed pool's", rep.Energy.ReplicaSeconds)
	}
}

// TestAutoscaleSpineEquivalence: autoscaled runs ride the same
// exactness guarantees as everything else on the spine — one iteration
// per call (leap horizon 1) and other leap horizons may not change a
// byte.
func TestAutoscaleSpineEquivalence(t *testing.T) {
	arr, err := simtest.PoissonSchedule(12, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(horizon int) string {
		sc := serve.NewSLOScaler()
		sc.CooldownSeconds = 1
		return fp(t, serve.WithLeapHorizon(serve.Config{
			Fleet:      autoFleet(1, 0.5),
			SLO:        serve.SLO{TTFT: 1, TBT: 0.2},
			Autoscaler: sc,
		}, horizon), arr)
	}
	leap := mk(0)
	for _, horizon := range []int{1, 5, 64} {
		if clamped := mk(horizon); clamped != leap {
			t.Errorf("leap horizon %d changed the autoscaled report", horizon)
		}
	}
}

// TestAutoscaleConfigErrors pins the validation surface.
func TestAutoscaleConfigErrors(t *testing.T) {
	bad := []serve.Config{
		// Autoscaler without a fleet.
		{System: simtest.System("pim-dpa"), Replicas: 2, Policy: serve.RoundRobin(), Autoscaler: serve.MaxScaler{}},
		// Min out of range.
		{Fleet: []serve.ReplicaSpec{{System: simtest.System("pim-dpa"), Count: 2, Min: 3}}},
		{Fleet: []serve.ReplicaSpec{{System: simtest.System("pim-dpa"), Count: 2, Min: -1}}},
		// Negative warm-up.
		{Fleet: []serve.ReplicaSpec{{System: simtest.System("pim-dpa"), Count: 2, WarmupSeconds: -1}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated; want error", i)
		}
	}
}

// TestAutoscalerByName builds the right policy type for every listed
// name and rejects unknown names.
func TestAutoscalerByName(t *testing.T) {
	for _, name := range serve.AutoscalerNames() {
		a, err := serve.AutoscalerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		switch name {
		case "slo":
			_, ok = a.(*serve.SLOScaler)
		case "max":
			_, ok = a.(serve.MaxScaler)
		}
		if !ok {
			t.Errorf("AutoscalerByName(%q) built a %T", name, a)
		}
	}
	if _, err := serve.AutoscalerByName("nope"); err == nil {
		t.Error("unknown autoscaler name accepted")
	}
}
