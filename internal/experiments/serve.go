package experiments

import (
	"context"
	"fmt"

	"pimphony/internal/core"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/tablefmt"
	"pimphony/internal/workload"
)

// serveDecodeLen is the generation length of the serving study. It is
// deliberately shorter than the Generator default (256) so the curve's
// many online simulations stay cheap; the latency shape is set by the
// arrival process and batch dynamics, not the absolute trace length.
const serveDecodeLen = 32

// serveGrid returns the (rate, replica) grid for the latency–throughput
// curve. A single replica saturates near 100 req/s at this decode
// length (the probe behind README's serving section), so the full grid
// spans under-load to 2x over-load while the short grid keeps one
// under- and one over-loaded point per replica count.
func serveGrid() (rates []float64, replicas []int) {
	if Short() {
		return []float64{100}, []int{1, 2}
	}
	return []float64{50, 100, 200}, []int{1, 2, 4}
}

// CurveLayout is the latency–throughput table the serve experiment and
// cmd/pimphony-serve's default mode render: goodput and SLO attainment
// next to p50/p95/p99 TTFT and TBT (milliseconds) per (policy,
// replicas, rate) row.
var CurveLayout = serve.Study{
	Labels: []string{"policy", "repl", "req/s"},
	Columns: []string{"tok/s", "goodput", "slo-met%",
		"ttft-p50", "ttft-p95", "ttft-p99", "tbt-p50", "tbt-p95", "tbt-p99"},
}

// Balanced returns a Scenario.Config builder over base, a
// Config{System, Replicas, Policy} shorthand, that builds the named
// load-balancing policy afresh per render.
func Balanced(base serve.Config, policy string) func() (serve.Config, error) {
	return func() (serve.Config, error) {
		cfg := base
		var err error
		cfg.Policy, err = serve.PolicyByName(policy)
		return cfg, err
	}
}

// ServeCurve is the online serving study (beyond the paper's batch
// evaluation, toward the ROADMAP's serving regime): a Poisson stream of
// QMSum-sized requests is balanced across CENT+PIMphony decode replicas
// under round-robin and least-outstanding-tokens routing, and the SLO
// metrics are reported per (policy, replicas, rate) point — the
// latency–throughput curve serving systems like LoL-PIM evaluate.
func ServeCurve() (*Result, error) {
	m := model.LLM7B32K()
	sysCfg := core.CENT(m, core.PIMphony())
	rates, replicas := serveGrid()
	nReqs := pool(48)
	slo := serve.SLO{TTFT: 0.1, TBT: 0.025}
	st := CurveLayout
	st.Title = fmt.Sprintf("Serving — latency–throughput curve (CENT+PIMphony, %s, QMSum, %d reqs, decode %d, SLO ttft<=100ms tbt<=25ms; latencies in ms)",
		m.Name, nReqs, serveDecodeLen)
	for _, pol := range []string{"round-robin", "least-tokens"} {
		for _, r := range replicas {
			for _, rate := range rates {
				st.Scenarios = append(st.Scenarios, serve.Scenario{
					Labels: []any{pol, r, rate},
					Config: Balanced(serve.Config{System: sysCfg, Replicas: r, SLO: slo}, pol),
					// Distinct seeds keep the size and arrival-timing RNG
					// streams independent (the same source would correlate
					// them draw for draw).
					Arrivals: func() ([]workload.Arrival, error) {
						gen := workload.NewGenerator(workload.QMSum(), 42)
						gen.DecodeLen = serveDecodeLen
						return workload.PoissonArrivals(gen, rate, 8, nReqs, 43)
					},
				})
			}
		}
	}
	t, err := st.Table(context.Background())
	if err != nil {
		return nil, err
	}
	return &Result{ID: "serve", Title: "Online serving under SLOs", Tables: []*tablefmt.Table{t},
		Notes: []string{"goodput = decode tokens/s from requests meeting the SLO; a replica saturates near 100 req/s, where queueing delay moves TTFT past the SLO while TBT stays flat"}}, nil
}
