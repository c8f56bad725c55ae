// FuzzDESSchedule drives the discrete-event spine with randomized
// (seed, arrival-mix, fleet-shape, fault-schedule) tuples and asserts
// the DES invariant set on every input:
//
//   - the spine's own always-on checks (des.go): no event fires behind
//     the scheduler clock, a ready entry fires exactly at its replica's
//     clock, and a ready replica is never starved (a drained heap with
//     busy replicas, or a stalled replica, is a loud error);
//   - the report oracles (simtest.CheckInvariants): conservation of
//     requests and tokens, latency clock order, capacity bounds;
//   - simulation equivalence: leaping runs — under whichever bound the
//     spine derives — and clamped leap horizons must agree byte-for-byte
//     with one iteration per call (leap horizon 1), the reference; and if
//     one variant rejects an input, all must.
package serve_test

import (
	"context"
	"testing"

	"pimphony/internal/serve"
	"pimphony/internal/simtest"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// fuzzSchedule expands a seed and mix byte into a bounded arrival
// schedule: up to 12 requests, contexts up to 2 Ki tokens, short
// generations, bursty timestamps with deliberate equal-time collisions.
func fuzzSchedule(seed uint64, nn, mix uint8) []workload.Arrival {
	n := 1 + int(nn)%12
	s := seed | 1
	next := func(m int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(m))
	}
	maxCtx := 4 << (int(mix) % 10) // 4 .. 2048
	arr := make([]workload.Arrival, n)
	at := 0.0
	for i := range arr {
		// Half the deltas are zero, so equal-timestamp events are the
		// common case, not the rare one.
		if d := next(100); d >= 50 {
			at += float64(d-50) * 0.002
		}
		arr[i] = workload.Arrival{
			At:      at,
			Session: next(4),
			Req: workload.Request{
				ID:      i + 1,
				Context: 1 + next(maxCtx),
				Decode:  1 + next(32),
			},
		}
	}
	return arr
}

// runVariant runs one configuration, tolerating a rejected input: the
// fuzzer may assemble configurations the validator refuses, which is
// fine as long as every equivalent variant refuses them identically.
func runVariant(t *testing.T, cfg serve.Config, arr []workload.Arrival) (string, bool) {
	t.Helper()
	rep, err := serve.Run(context.Background(), cfg, arr)
	if err != nil {
		return err.Error(), false
	}
	simtest.CheckInvariants(t, rep, arr)
	return simtest.Fingerprint(rep), true
}

// fuzzFaultPlan expands the fault word into a bounded recurring fault
// schedule over every decode replica: zero means fault-free, anything
// else picks a mode, an MTBF floor high enough that retries outrun the
// next crash, and a short repair/backoff scale. Fleet variants all
// share the plan, so fault timing joins the axes the equivalence
// assertions must hold across.
func fuzzFaultPlan(fault uint16) *serve.FaultPlan {
	if fault == 0 {
		return nil
	}
	return &serve.FaultPlan{
		Seed: uint64(fault)*2654435761 + 1,
		Groups: []serve.FaultGroup{{
			Spec:        -1,
			Mode:        serve.FaultMode(int(fault) % 3),
			MTBFSeconds: 0.2 + float64((fault>>8)&63)/128,
			MTTRSeconds: float64((fault>>2)&63) / 1024,
			Slowdown:    2,
			LinkFactor:  4,
		}},
		MaxRetries:     int(fault>>14) - 1, // -1 (unlimited) .. 2
		BackoffSeconds: float64(fault&3) / 512,
	}
}

func FuzzDESSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), uint8(0), uint16(0))
	f.Add(uint64(42), uint8(8), uint8(3), uint8(5), uint16(0))
	f.Add(uint64(7), uint8(11), uint8(9), uint8(255), uint16(0))
	f.Add(uint64(0xdeadbeef), uint8(12), uint8(7), uint8(42), uint16(0))
	f.Add(uint64(9), uint8(10), uint8(6), uint8(255), uint16(768)) // crash storm, autoscaled branch on
	f.Add(uint64(3), uint8(6), uint8(4), uint8(112), uint16(277))  // slowdown on a disaggregated fleet
	f.Fuzz(func(t *testing.T, seed uint64, nn, mix, shape uint8, fault uint16) {
		arr := fuzzSchedule(seed, nn, mix)

		// The Config{System, Replicas, Policy} shorthand: replicas 1..3,
		// load-oblivious and load-aware policies, leaping to the next
		// global event against clamped horizons, one iteration included.
		replicas := 1 + int(shape)%3
		shorthand := func(horizon int) serve.Config {
			var pol serve.Placement
			switch {
			case shape&4 != 0:
				pol = serve.SessionAffinity()
			case shape&2 != 0:
				pol = serve.LeastOutstandingTokens()
			default:
				pol = serve.RoundRobin()
			}
			return serve.WithLeapHorizon(serve.Config{
				System:   simtest.System("pim-dpa"),
				Replicas: replicas,
				Policy:   pol,
				SLO:      serve.SLO{TTFT: 1, TBT: 0.2},
			}, horizon)
		}
		leap, okLeap := runVariant(t, shorthand(0), arr)
		for _, horizon := range []int{1, 5, 64} {
			if got, ok := runVariant(t, shorthand(horizon), arr); ok != okLeap || got != leap {
				t.Errorf("shorthand variants diverged:\n leap       (%v) %s\n horizon %d (%v) %s",
					okLeap, leap, horizon, ok, got)
			}
		}

		// Fleet path: 1..2 decoders, optionally a dedicated prefill
		// tier, with migration and stealing on, across leap horizons.
		fleet := func(horizon int) serve.Config {
			specs := []serve.ReplicaSpec{
				{System: simtest.System("pim-dpa"), Count: 1 + (int(shape)>>3)%2, Role: serve.RoleUnified},
			}
			if shape&64 != 0 {
				specs = []serve.ReplicaSpec{
					{System: simtest.System("pim-dpa"), Count: 1, Role: serve.RolePrefill},
					{System: simtest.System("pim-dpa"), Count: 1 + (int(shape)>>3)%2, Role: serve.RoleDecode},
				}
			}
			return serve.WithLeapHorizon(serve.Config{
				Fleet:        specs,
				Interconnect: timing.DefaultInterconnect(),
				Migrate:      shape&16 != 0,
				Steal:        shape&32 != 0,
				Faults:       fuzzFaultPlan(fault),
				SLO:          serve.SLO{TTFT: 1, TBT: 0.2},
			}, horizon)
		}
		fLeap, okF := runVariant(t, fleet(0), arr)
		for _, horizon := range []int{1, 5, 64} {
			if got, ok := runVariant(t, fleet(horizon), arr); ok != okF || got != fLeap {
				t.Errorf("fleet variants diverged:\n leap       (%v) %s\n horizon %d (%v) %s",
					okF, fLeap, horizon, ok, got)
			}
		}

		// Autoscaled fleet: provisions, warmups and drains churn the
		// scheduler's index membership mid-run. Scale decisions fire
		// only at heap events (arrivals, completions, faults, retries
		// and explicit evScaleEval timers), so autoscaled runs are
		// leap-invariant like every other configuration — one iteration
		// per call must match leap, and at every granularity the same
		// built-in policy must produce the same bytes over the indexed
		// view and over the linear oracle view (serve.LinearOnly).
		if shape&128 != 0 {
			auto := func(horizon int, linear bool) serve.Config {
				cfg := fleet(horizon)
				cfg.Fleet = []serve.ReplicaSpec{
					{System: simtest.System("pim-dpa"), Count: 3, Min: 1, Role: serve.RoleUnified,
						WarmupSeconds: float64(int(shape)>>3%2) * 0.05},
				}
				cfg.Autoscaler = serve.NewSLOScaler()
				cfg.Placement = serve.KVHeadroom()
				if linear {
					cfg.Placement = serve.LinearOnly(cfg.Placement)
				}
				return cfg
			}
			ref, okRef := runVariant(t, auto(0, false), arr)
			for _, v := range []struct {
				horizon int
				linear  bool
			}{{0, true}, {1, false}, {1, true}} {
				got, ok := runVariant(t, auto(v.horizon, v.linear), arr)
				if ok != okRef || got != ref {
					t.Errorf("autoscaled variant diverged (horizon=%d linear-view=%v):\n ref (%v) %s\n got (%v) %s",
						v.horizon, v.linear, okRef, ref, ok, got)
				}
			}
		}
	})
}
