package experiments

import (
	"context"
	"fmt"
	"strings"

	"pimphony/internal/core"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/tablefmt"
	"pimphony/internal/workload"
)

// megafleetBudgetBytes is the per-replica decode KV budget: small on
// purpose. The study stresses the global scheduler — placement, held
// retries, provision/drain churn across thousands of replicas — so each
// replica holds only a couple of requests and fleet-level decisions
// dominate.
const megafleetBudgetBytes int64 = 2 << 30

// megafleetPerRate is the offered load per replica (req/s). Total rate
// scales linearly with fleet size, so every row serves the same ~3.6
// requests per replica and the rows differ only in scale.
func megafleetPerRate() float64 {
	if Short() {
		return 0.006
	}
	return 0.0005
}

// megafleetSizes is the fleet-size grid: two decades of scale-up in
// full mode (the 10k row is the scheduler's stress ceiling), two small
// sizes in the short CI lane.
func megafleetSizes() []int {
	if Short() {
		return []int{50, 200}
	}
	return []int{100, 1000, 10000}
}

// megafleetArrivals thins each row's arrival stream along a diurnal day
// curve — a two-hour day in full mode (one full period over the run),
// a ten-minute day in short mode — with the same short-prompt mix as
// the autoscale study.
func megafleetArrivals(rate float64, n int) func() ([]workload.Arrival, error) {
	flag := "diurnal:7200:0.9"
	if Short() {
		flag = "diurnal:600:0.9"
	}
	return func() ([]workload.Arrival, error) {
		gen, err := workload.HeavyTailed(256, 2048, 1.2, 61)
		if err != nil {
			return nil, err
		}
		gen.DecodeLen = fleetDecodeLen
		return workload.ArrivalsByFlag(flag, gen, rate, 4, n, 62)
	}
}

// MegafleetScale is the fleet-size scaling study: SLO-autoscaled
// CENT+PIMphony fleets from one hundred to ten thousand unified
// replicas, each serving a diurnal trace whose offered load scales with
// the fleet, so per-replica work is constant and the only variable is
// how many replicas the global scheduler manages. Every scheduler
// decision — placement, held retries, steal/drain/provision picks, the
// autoscaler's fleet view — answers from incrementally maintained
// indexes in O(log n) or O(1), so simulated-event cost is flat across
// the two decades of scale; the megafleet benchmark floor (bench/
// baseline.json) pins that property.
func MegafleetScale() (*Result, error) {
	m := model.LLM7B32K()
	slo := serve.SLO{TTFT: 2.5, TBT: 0.025}
	st := AutoscaleLayout
	var sizes []string
	for _, size := range megafleetSizes() {
		rate := megafleetPerRate() * float64(size)
		n := int(3.6 * float64(size))
		min := size / 20
		if min < 1 {
			min = 1
		}
		cfg := core.CENT(m, core.PIMphony())
		cfg.KVBudgetBytes = megafleetBudgetBytes
		specs := []serve.ReplicaSpec{{
			System: cfg, Count: size, Role: serve.RoleUnified,
			Min: min, WarmupSeconds: autoscaleWarmup,
		}}
		st.Scenarios = append(st.Scenarios, serve.Scenario{
			Labels: []any{fmt.Sprintf("n=%d", size), "slo", serve.RoleSummary(specs)},
			// Round-robin spreads the diurnal peak across the fleet
			// instead of serializing on the lowest-index replicas.
			Config:   FleetConfig(serve.Config{Fleet: specs, SLO: slo}, "round-robin-fit", "slo"),
			Arrivals: megafleetArrivals(rate, n),
		})
		sizes = append(sizes, fmt.Sprintf("%d", size))
	}
	st.Title = fmt.Sprintf("Megafleet — scheduler scaling across fleet sizes {%s} (%s, %d GiB CENT+PIMphony per replica, diurnal trace, %g req/s per replica, ~3.6 reqs/replica, 5%% initially online, warm-up %gs, SLO ttft<=2.5s tbt<=25ms)",
		strings.Join(sizes, ", "), m.Name, megafleetBudgetBytes>>30, megafleetPerRate(), autoscaleWarmup)
	t, err := st.Table(context.Background())
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "megafleet",
		Title:  "scheduler scaling from 100 to 10k replicas under a diurnal trace",
		Tables: []*tablefmt.Table{t},
		Notes: []string{
			"per-replica offered load is constant across rows, so goodput and avg-onl scale ~linearly with fleet size; slo-met% and ttft-p95 improve with scale — statistical multiplexing smooths the diurnal peak as relative burst variance shrinks",
			"the fleet scheduler answers every per-event decision from incrementally maintained ordered indexes (O(log n) placement and migration/steal/drain/provision picks, O(1) autoscale views); the wall-clock floor for this table is pinned in bench/baseline.json, so an accidental O(n) reintroduction fails the bench gate",
			"5% of each fleet starts online and the SLO scaler owns the rest of the timeline (Min does not floor later drains): the diurnal valley drains toward zero and the peak provisions upward, so the 10k row churns ~1.5k provision/drain index transitions",
		},
	}, nil
}
