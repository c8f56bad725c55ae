package serve

import (
	"context"
	"testing"

	"pimphony/internal/workload"
)

// BenchmarkServeRun measures one full online serving simulation — 48
// QMSum-sized requests at 100 req/s over two replicas — through the
// multi-step fast-forward path and the naive single-step loop, so the
// speedup the event-horizon work buys stays visible in bench output.
func BenchmarkServeRun(b *testing.B) {
	gen := workload.NewGenerator(workload.QMSum(), 42)
	gen.DecodeLen = 32
	arr, err := workload.PoissonArrivals(gen, 100, 8, 48, 43)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		single bool
	}{
		{"fast-forward", false},
		{"single-step", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var tokens int
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), Config{
					System:     testSystem(),
					Replicas:   2,
					Policy:     RoundRobin(),
					SLO:        SLO{TTFT: 0.1, TBT: 0.025},
					SingleStep: mode.single,
				}, arr)
				if err != nil {
					b.Fatal(err)
				}
				tokens += rep.Requests * 32
			}
			b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tokens/s")
		})
	}
}

// BenchmarkFleetPlacement measures one placement decision on a
// few-hundred-replica fleet and pins the allocation contract the
// indexed scheduler exists for: zero allocations per decision, for
// every built-in placement and load-balancing policy and for the
// custom-policy fallback once its []FleetLoad scratch is warm.
func BenchmarkFleetPlacement(b *testing.B) {
	const replicas = 256
	fs, err := newFleetSim(Config{
		Fleet: []ReplicaSpec{{System: testSystem(), Count: replicas, Role: RoleUnified}},
		SLO:   SLO{TTFT: 1, TBT: 0.2},
	}, 64)
	if err != nil {
		b.Fatal(err)
	}
	// Load a third of the fleet so the indexes are non-trivial.
	for i := 0; i < replicas; i += 3 {
		rec := &record{req: workload.Request{ID: i + 1, Context: 64, Decode: 32}}
		if err := fs.enqueueOn(i, rec); err != nil {
			b.Fatal(err)
		}
	}
	probe := &record{req: workload.Request{ID: 1 << 20, Context: 64, Decode: 32}, session: 3}
	cases := []struct {
		name string
		p    Placement
	}{
		{"kv-headroom", KVHeadroom()},
		{"least-tokens-fit", LeastTokensFit()},
		{"round-robin-fit", RoundRobinFit()},
		{"round-robin", RoundRobin()},
		{"least-tokens", LeastOutstandingTokens()},
		{"session", SessionAffinity()},
		{"custom-fallback", linearOnly{KVHeadroom()}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			fs.placement = c.p
			fs.indexed, _ = c.p.(indexedPlacement)
			fs.place(probe) // warm the fallback's scratch buffer
			if allocs := testing.AllocsPerRun(100, func() { fs.place(probe) }); allocs != 0 {
				b.Fatalf("%s: %v allocs per placement, want 0", c.name, allocs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.place(probe)
			}
		})
	}
}
