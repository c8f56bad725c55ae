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

// autoscaleWarmup is the provisioning delay a scaled-up replica pays
// (weight loading and pool initialisation for a CENT module stack): a
// compressed stand-in for the minutes real fleets pay, matching the
// compressed day curve below.
const autoscaleWarmup = 2.0

// autoscaleRate is the time-averaged offered load of both traffic
// patterns — high enough that one replica saturates at the peaks, low
// enough that the fixed four-replica fleet idles through the valleys,
// which is exactly the gap an autoscaler monetises.
const autoscaleRate = 3.0

// autoscaleArrivals builds one of the study's bursty schedules via the
// -arrivals flag grammar: a compressed diurnal day curve (one 60 s
// "day", 90% amplitude) and a two-state MMPP burst process (6x rate
// bursts dwelling ~8 s). Both time-average to autoscaleRate, so the
// fixed/autoscaled comparison is at equal offered work.
func autoscaleArrivals(flag string, n int) func() ([]workload.Arrival, error) {
	return func() ([]workload.Arrival, error) {
		// Short prompts (256-2K) keep the colocated CENT prefill under
		// ~2 s each, so the TTFT budget is attainable and the study
		// isolates provisioning economics rather than prefill latency
		// (the fleet study covers that axis).
		gen, err := workload.HeavyTailed(256, 2048, 1.2, 52)
		if err != nil {
			return nil, err
		}
		gen.DecodeLen = fleetDecodeLen
		return workload.ArrivalsByFlag(flag, gen, autoscaleRate, 4, n, 53)
	}
}

// autoscaleSpecs is the autoscale and resilience studies' fleet: four
// CENT+PIMphony replicas at a quarter of the fleet budget each, one
// always online and the rest standby behind a warm-up.
func autoscaleSpecs(m model.Config) []serve.ReplicaSpec {
	cfg := core.CENT(m, core.PIMphony())
	cfg.KVBudgetBytes = fleetBudgetBytes / 4
	return []serve.ReplicaSpec{{
		System: cfg, Count: 4, Role: serve.RoleUnified,
		Min: 1, WarmupSeconds: autoscaleWarmup,
	}}
}

// AutoscaleLayout is the provisioning-economics table the autoscale
// and megafleet experiments, cmd/pimphony-serve -autoscale and
// examples/daycurve render: the time-weighted online replica count and
// the scale-up/drain activity next to goodput and SLO attainment, then
// the cost axis those decisions move — joules per token, dollars per
// million tokens, and SLO-compliant tokens per dollar — per (arrivals,
// mode, shape) row.
var AutoscaleLayout = serve.Study{
	Labels: []string{"arrivals", "mode", "repl"},
	Columns: []string{"avg-onl", "ups", "drains", "goodput", "slo-met%", "ttft-p95",
		"j/tok", "$/Mtok", "goodtok/$"},
}

// AutoscaleStudy is the provisioning-economics study: a four-replica
// CENT+PIMphony fleet serving bursty diurnal and MMPP traffic, fixed
// (all replicas online for the whole run) versus SLO-driven autoscaled
// (one replica always on, the rest provisioned against TTFT pressure
// with a warm-up and drained when idle). Goodput per dollar is the
// headline: the autoscaled fleet gives up a little SLO attainment at
// burst fronts (capacity arrives a warm-up late) and buys back the
// valley hours the fixed fleet pays for idle replicas.
func AutoscaleStudy() (*Result, error) {
	m := model.LLM7B32K()
	n := pool(64)
	specs := autoscaleSpecs(m)
	patterns := []struct{ name, flag string }{
		{"diurnal", "diurnal:60:0.9"},
		{"mmpp", "mmpp:6:8"},
	}
	slo := serve.SLO{TTFT: 2.5, TBT: 0.025}
	st := AutoscaleLayout
	st.Title = fmt.Sprintf("Autoscale — fixed vs SLO-driven fleet under bursty traffic (%s, 4x%d GiB CENT+PIMphony, ctx 256-2K, decode %d, %d reqs @ %g req/s avg, warm-up %gs, SLO ttft<=2.5s tbt<=25ms; ttft-p95 in ms)",
		m.Name, (fleetBudgetBytes/4)>>30, fleetDecodeLen, n, autoscaleRate, autoscaleWarmup)
	for _, p := range patterns {
		for _, mode := range []string{"fixed", "slo"} {
			st.Scenarios = append(st.Scenarios, serve.Scenario{
				Labels: []any{p.name, mode, serve.RoleSummary(specs)},
				// Round-robin spreads burst fronts across the colocated
				// prefill servers; kv-headroom ties to the lowest index
				// until KV diverges and serializes them on one replica.
				Config:   FleetConfig(serve.Config{Fleet: specs, SLO: slo}, "round-robin-fit", mode),
				Arrivals: autoscaleArrivals(p.flag, n),
			})
		}
	}
	t, err := st.Table(context.Background())
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "autoscale",
		Title:  "SLO-driven fleet autoscaling under bursty diurnal traffic",
		Tables: []*tablefmt.Table{t},
		Notes: []string{
			"avg-onl is the time-weighted online replica count; the fixed fleet pays for 4 replicas across the whole makespan, the autoscaled one for the provision-to-drain integral (Report.Energy.ReplicaSeconds)",
			"goodtok/$ divides SLO-compliant tokens by provisioning + grid-energy dollars — the axis where draining idle valley capacity beats holding peak capacity online",
			"scale-ups pay a warm-up before capacity lands, so the autoscaled rows trade ttft-p95 and slo-met% at burst fronts for the dollars saved in the valleys: the trade wins on the predictable diurnal curve and loses on memoryless MMPP bursts, where reactive provisioning is always a warm-up behind the burst front",
			"arrival grammars: diurnal:<period-s>[:<amp>] thins a peak-rate Poisson stream along a sinusoidal day curve; mmpp:<burst>[:<dwell-s>] switches between burst and lull rates with exponential dwells (internal/workload, -arrivals flag)",
		},
	}, nil
}
