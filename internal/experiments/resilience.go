package experiments

import (
	"context"
	"fmt"

	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/tablefmt"
)

// resilienceRetries is the per-request retry budget of the study:
// enough to survive isolated crashes, small enough that a crash storm
// on a drained fleet can still exhaust it and surface failed requests.
const resilienceRetries = 3

// resilienceBackoff is the base of the deterministic exponential
// backoff a withdrawn request waits before re-admission.
const resilienceBackoff = 0.25

// ResilienceStudy is the fault-tolerance study: the autoscale study's
// four-replica CENT+PIMphony fleet under the compressed diurnal day
// curve, fixed versus SLO-autoscaled, swept across a crash MTBF × MTTR
// grid. Each mode's zero-fault row is its baseline; the faulted rows
// report how much goodput survives replica crashes (lost KV, retries,
// recompute on re-admission), what the tail TTFT pays, and how the
// economics move — a fixed fleet is only billed for replica uptime, so
// crashes cut its bill along with its capacity, while the autoscaled
// fleet re-provisions around failures at warm-up latency.
func ResilienceStudy() (*Result, error) {
	m := model.LLM7B32K()
	n := pool(64)
	specs := autoscaleSpecs(m)
	type schedule struct {
		name       string
		mtbf, mttr float64
	}
	grid := []schedule{{"none", 0, 0}}
	for _, mtbf := range []float64{20, 60} {
		for _, mttr := range []float64{1, 5} {
			grid = append(grid, schedule{
				fmt.Sprintf("crash mtbf=%gs mttr=%gs", mtbf, mttr), mtbf, mttr,
			})
		}
	}
	slo := serve.SLO{TTFT: 2.5, TBT: 0.025}
	st := serve.Study{
		Title: fmt.Sprintf("Resilience — fixed vs SLO-autoscaled fleet under replica crashes (%s, 4x%d GiB CENT+PIMphony, diurnal @ %g req/s avg, %d reqs, retries %d, backoff %gs, SLO ttft<=2.5s tbt<=25ms; ttft-p99 in ms)",
			m.Name, (fleetBudgetBytes/4)>>30, autoscaleRate, n, resilienceRetries, resilienceBackoff),
		Labels: []string{"mode", "faults"},
		Columns: []string{"crashes", "retries", "failed", "lost-kv(MiB)", "down(s)",
			"goodput", "retained%", "ttft-p99", "goodtok/$"},
	}
	for _, mode := range []string{"fixed", "slo"} {
		// Each mode's zero-fault row is the baseline of its faulted rows.
		baseline := len(st.Scenarios)
		for _, g := range grid {
			cfg := serve.Config{Fleet: specs, SLO: slo}
			if g.mtbf > 0 {
				cfg.Faults = &serve.FaultPlan{
					Seed: 41,
					Groups: []serve.FaultGroup{{
						Spec: -1, Mode: serve.FaultCrash,
						MTBFSeconds: g.mtbf, MTTRSeconds: g.mttr,
					}},
					MaxRetries:     resilienceRetries,
					BackoffSeconds: resilienceBackoff,
				}
			}
			st.Scenarios = append(st.Scenarios, serve.Scenario{
				Labels:   []any{mode, g.name},
				Config:   FleetConfig(cfg, "round-robin-fit", mode),
				Arrivals: autoscaleArrivals("diurnal:60:0.9", n),
				Baseline: baseline,
			})
		}
	}
	t, err := st.Table(context.Background())
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "resilience",
		Title:  "Fault injection: goodput retained and retry economics under replica crashes",
		Tables: []*tablefmt.Table{t},
		Notes: []string{
			"each crash loses the replica's KV and withdraws its in-flight requests; retries re-admit through the recompute path after deterministic exponential backoff, and requests exhausting the budget count in failed (they keep no latency sample but stay in the SLO denominator)",
			"retained% is goodput relative to the same mode's zero-fault baseline row, so the fixed and autoscaled columns isolate fault damage from provisioning policy",
			"down(s) integrates crash-to-recovery time across replicas; fixed fleets are billed only for online intervals, so downtime cuts the provisioning bill along with capacity — goodtok/$ can move either way",
			"fault schedules are seeded MTBF/MTTR renewal chains compiled to explicit heap events, so every cell is byte-identical at any leap horizon, sync discipline and sweep parallelism (the des-equivalence CI lane diffs this table at -parallel 1 vs 8)",
		},
	}, nil
}
