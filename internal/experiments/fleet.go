package experiments

import (
	"context"
	"fmt"

	"pimphony/internal/core"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/tablefmt"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// fleetBudgetBytes is the aggregate decode-side KV budget every fleet
// composition is given, split evenly across its decode-capable
// replicas. Holding the aggregate fixed is what makes the comparison a
// placement question rather than a provisioning one: the homogeneous
// and disaggregated fleets hold exactly as much live KV in total.
const fleetBudgetBytes int64 = 96 << 30

// fleetDecodeLen matches the serving study's generation length: long
// enough for TBT percentiles to mean something, short enough that the
// many fleet simulations stay cheap.
const fleetDecodeLen = 32

// fleetRates returns the offered-load grid of the fleet study.
func fleetRates() []float64 {
	if Short() {
		return []float64{4}
	}
	return []float64{2, 4, 8}
}

// fleetArrivals builds the long-context schedule of the fleet study: a
// heavy-tailed prompt mix from 1K to 24K tokens. The tail is what
// separates the fleets — a 16K prompt prefills in ~15 s on a CENT
// module stack but in ~0.4 s on NeuPIMs' xPU, so a PIM-only fleet burns
// its TTFT budget on prefill while the disaggregated fleet pays only an
// explicit KV-transfer hop.
func fleetArrivals(n int) func(rate float64) ([]workload.Arrival, error) {
	return func(rate float64) ([]workload.Arrival, error) {
		gen, err := workload.HeavyTailed(1024, 24000, 1.1, 46)
		if err != nil {
			return nil, err
		}
		gen.DecodeLen = fleetDecodeLen
		return workload.PoissonArrivals(gen, rate, 4, n, 47)
	}
}

// fleetSpecs builds the three compositions of the study at an equal
// aggregate decode KV budget:
//
//   - "pim": four CENT+PIMphony unified replicas — the throughput-dense
//     decode fabric, but every prompt prefills on the PIM stack.
//   - "gpu": two A100-class unified replicas — fast prefill, but decode
//     is memory-bound and the energy per token is the GPU's.
//   - "disagg": one NeuPIMs xPU-heavy prefill replica feeding three
//     CENT decode replicas over the fleet interconnect — prefill where
//     compute is, decode where memory bandwidth is, KV moved once.
func fleetSpecs(m model.Config) map[string][]serve.ReplicaSpec {
	perBudget := func(cfg core.Config, n int64) core.Config {
		cfg.KVBudgetBytes = fleetBudgetBytes / n
		return cfg
	}
	return map[string][]serve.ReplicaSpec{
		"pim": {
			{System: perBudget(core.CENT(m, core.PIMphony()), 4), Count: 4, Role: serve.RoleUnified},
		},
		"gpu": {
			{System: perBudget(core.GPU(m), 2), Count: 2, Role: serve.RoleUnified},
		},
		"disagg": {
			{System: core.NeuPIMs(m, core.PIMphony()), Count: 1, Role: serve.RolePrefill},
			{System: perBudget(core.CENT(m, core.PIMphony()), 3), Count: 3, Role: serve.RoleDecode},
		},
	}
}

// FleetLayout is the disaggregation table the fleet experiment and
// cmd/pimphony-serve -fleet render: goodput and SLO attainment next to
// the TTFT/TBT tails, the explicitly priced transfer seconds against
// the recompute seconds they displaced, the scheduler's migration and
// steal counts, and joules per generated token, per (fleet, shape,
// rate) row.
var FleetLayout = serve.Study{
	Labels: []string{"fleet", "repl", "req/s"},
	Columns: []string{"tok/s", "goodput", "slo-met%", "ttft-p50", "ttft-p95", "tbt-p95",
		"xfer-s", "recomp-s", "migr", "steal", "j/tok"},
}

// FleetConfig returns a Scenario.Config builder over base that builds
// the named placement ("" keeps the kv-headroom default) and autoscaler
// ("fixed" keeps every replica online) afresh per render.
func FleetConfig(base serve.Config, placement, autoscaler string) func() (serve.Config, error) {
	return func() (serve.Config, error) {
		cfg := base
		var err error
		if placement != "" {
			if cfg.Placement, err = serve.PlacementByName(placement); err != nil {
				return cfg, err
			}
		}
		if autoscaler != "fixed" {
			cfg.Autoscaler, err = serve.AutoscalerByName(autoscaler)
		}
		return cfg, err
	}
}

// FleetCompare is the disaggregated-serving study: homogeneous PIM-only
// and GPU fleets against an xPU-prefill/PIM-decode split, all at the
// same aggregate KV budget and SLO, under the global scheduler
// (KV-headroom placement, migration and stealing enabled). The table
// reports goodput under the SLO next to the TTFT/TBT tails that produce
// it, the explicit transfer seconds the disaggregated fleet pays, the
// recompute seconds preemptions cost, and joules per generated token
// from the decode replicas' energy counters.
func FleetCompare() (*Result, error) {
	m := model.LLM7B32K()
	specs := fleetSpecs(m)
	nReqs := pool(32)
	slo := serve.SLO{TTFT: 1.0, TBT: 0.025}
	mk := fleetArrivals(nReqs)
	st := FleetLayout
	st.Title = fmt.Sprintf("Fleet — homogeneous vs disaggregated prefill/decode at a %d GiB aggregate KV budget (%s, heavy-tailed ctx 1K-24K, decode %d, %d reqs, SLO ttft<=1s tbt<=25ms; latencies in ms)",
		fleetBudgetBytes>>30, m.Name, fleetDecodeLen, nReqs)
	for _, name := range []string{"pim", "gpu", "disagg"} {
		cfg := serve.Config{
			Fleet:        specs[name],
			SLO:          slo,
			Interconnect: timing.DefaultInterconnect(),
			Migrate:      true,
			Steal:        true,
		}
		for _, rate := range fleetRates() {
			st.Scenarios = append(st.Scenarios, serve.Scenario{
				Labels:   []any{name, serve.RoleSummary(cfg.Fleet), rate},
				Config:   func() (serve.Config, error) { return cfg, nil },
				Arrivals: func() ([]workload.Arrival, error) { return mk(rate) },
			})
		}
	}
	t, err := st.Table(context.Background())
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fleet",
		Title:  "Disaggregated prefill/decode fleets under a global scheduler",
		Tables: []*tablefmt.Table{t},
		Notes: []string{
			"equal aggregate decode KV budget per fleet: 4x24 GiB CENT, 2x48 GiB GPU, 1 NeuPIMs prefill + 3x32 GiB CENT decode",
			"PIM-only prefill serializes 1K-24K prompts at seconds each, so its TTFT blows the SLO the moment load arrives; the disaggregated fleet prefills on xPU and ships the KV once (xfer-s), keeping PIM replicas on the decode they are dense at",
			"j/tok counts the decode replicas' modeled energy; the GPU backend prices no energy (see internal/backend/gpu.go), so its column is zero by construction",
		},
	}, nil
}
