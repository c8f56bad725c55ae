package experiments

import (
	"context"
	"fmt"

	"pimphony/internal/cluster"
	"pimphony/internal/core"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/tablefmt"
	"pimphony/internal/workload"
)

// capacityBudgetBytes is the per-replica KV budget the Static-vs-DPA
// comparison runs at. It is deliberately tight: static T_max
// reservation (16 GiB per request at the 32K window of LLM-7B) can hold
// only two concurrent requests in it, while DPA packs requests by their
// actual KV footprint.
const capacityBudgetBytes = 32 << 30

// capacityGrid returns the (rate, replica) grid of the capacity study.
func capacityGrid() (rates []float64, replicas []int) {
	if Short() {
		return []float64{96}, []int{1}
	}
	return []float64{8, 32, 96}, []int{1}
}

// capacityArrivals builds the heavy-tailed single-turn schedule: most
// prompts are a few thousand tokens with a fat Pareto tail reaching
// the context window — the mix where static reservation strands the
// most capacity — while every request decodes for the same long
// window (see the DecodeLen comment below).
func capacityArrivals(n int) func(rate float64) ([]workload.Arrival, error) {
	return func(rate float64) ([]workload.Arrival, error) {
		gen, err := workload.HeavyTailed(2048, 30000, 1.1, 42)
		if err != nil {
			return nil, err
		}
		// A long uniform decode phase: every admitted request keeps
		// growing its KV for 256 steps, so under a tight pool DPA's
		// over-admission actually runs out of chunks mid-decode (short
		// heavy-tailed decodes complete early and refill the free list
		// before growth can exhaust it).
		gen.DecodeLen = 256
		return workload.PoissonArrivals(gen, rate, 8, n, 43)
	}
}

// CapacityLayout is the Static-vs-DPA table the capacity experiment and
// cmd/pimphony-serve -capacity render: how admission, preemption and
// the live/reserved pool high-water marks translate into latency and
// goodput per (allocator, replicas, rate) row.
var CapacityLayout = serve.Study{
	Labels: []string{"alloc", "repl", "req/s"},
	Columns: []string{"max-act", "preempt", "blocked-s", "recomp-s",
		"peak-live-gib", "peak-resv-gib", "tok/s", "goodput", "slo-met%", "ttft-p95", "tbt-p95"},
}

// capacityStudy sweeps both allocators across replicas x rates on sys
// under one policy, every row serving mk(rate) at the same budget.
func capacityStudy(title string, sys cluster.Config, policy string, replicas []int, rates []float64,
	slo serve.SLO, mk func(rate float64) ([]workload.Arrival, error)) serve.Study {
	st := CapacityLayout
	st.Title = title
	for _, alloc := range []string{"static", "dpa"} {
		cfg := sys
		cfg.Tech.DPA = alloc == "dpa"
		for _, r := range replicas {
			for _, rate := range rates {
				st.Scenarios = append(st.Scenarios, serve.Scenario{
					Labels:   []any{alloc, r, rate},
					Config:   Balanced(serve.Config{System: cfg, Replicas: r, SLO: slo}, policy),
					Arrivals: func() ([]workload.Arrival, error) { return mk(rate) },
				})
			}
		}
	}
	return st
}

// CapacityGap is the online Static-vs-DPA capacity study — the serving
// counterpart of Fig. 19. Both schemes serve identical heavy-tailed
// long-context schedules at the same per-replica KV budget; the table
// shows the admission gap (max concurrent requests), the preemption and
// admission-blocked costs DPA pays for lazy growth, and how the gap
// translates into the latency–goodput margin LoL-PIM-style serving
// systems optimise for. A second table replays multi-turn conversations
// whose contexts re-extend every turn.
func CapacityGap() (*Result, error) {
	m := model.LLM7B32K()
	sysCfg := core.CENT(m, core.PIMphony())
	sysCfg.KVBudgetBytes = capacityBudgetBytes
	rates, replicas := capacityGrid()
	slo := serve.SLO{TTFT: 0.05, TBT: 0.025}
	nReqs := pool(64)
	single, err := capacityStudy(
		fmt.Sprintf("Capacity — Static vs DPA at a %d GiB/replica KV budget (CENT, %s, heavy-tailed ctx 2K-30K, decode 256, %d reqs, SLO ttft<=50ms tbt<=25ms; latencies in ms)",
			capacityBudgetBytes>>30, m.Name, nReqs),
		sysCfg, "round-robin", replicas, rates, slo, capacityArrivals(nReqs)).Table(context.Background())
	if err != nil {
		return nil, err
	}

	// Multi-turn conversations: each follow-up turn re-sends the grown
	// context, so a session's KV re-extends turn over turn.
	sessions := pool(16)
	mkMulti := func(rate float64) ([]workload.Arrival, error) {
		gen, err := workload.HeavyTailed(2048, 16000, 1.1, 44)
		if err != nil {
			return nil, err
		}
		gen.DecodeLen = 64
		return workload.MultiTurnArrivals(gen, workload.MultiTurnSpec{
			Sessions:  sessions,
			Turns:     3,
			Rate:      rate,
			ThinkMean: 0.2,
			PromptMin: 64,
			PromptMax: 512,
			// Leave decode headroom below the 32K window.
			MaxContext: m.ContextWindow - 128,
		}, 45)
	}
	top := rates[len(rates)-1:]
	multi, err := capacityStudy(
		fmt.Sprintf("Capacity — multi-turn sessions (%d sessions x 3 turns, contexts re-extend per turn, same %d GiB budget)",
			sessions, capacityBudgetBytes>>30),
		sysCfg, "session", []int{1}, top, slo, mkMulti).Table(context.Background())
	if err != nil {
		return nil, err
	}
	// DIMM-PIM replica at the same budget and schedule: the backend's
	// all-KV DIMM pool changes the pricing (host-GPU FC, DIMM-rank
	// attention) but not the allocator physics, so the static-vs-DPA
	// gap must reproduce on it — the registry seam exercised end to end.
	dimmCfg := core.DIMMPIM(m, core.PIMphony())
	dimmCfg.KVBudgetBytes = capacityBudgetBytes
	dimm, err := capacityStudy(
		fmt.Sprintf("Capacity — DIMM-PIM backend at the same %d GiB/replica budget (host-GPU FC, DIMM-rank attention, %s)",
			capacityBudgetBytes>>30, m.Name),
		dimmCfg, "round-robin", []int{1}, top, slo, capacityArrivals(nReqs)).Table(context.Background())
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "capacity",
		Title:  "Online Static-vs-DPA capacity gap",
		Tables: []*tablefmt.Table{single, multi, dimm},
		Notes: []string{
			"same KV budget, same schedule: static admits at most pool/T_max concurrent requests (max-act), DPA packs by live KV and admits strictly more — the paper's Fig. 19 inefficiency, online",
			"preempt counts DPA evictions when lazy growth exhausts the pool mid-decode; the evicted request re-queues and its KV is recomputed on re-admission (recomp-s), the over-admission cost static never pays",
		},
	}, nil
}
