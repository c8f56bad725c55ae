// Daycurve: serve one compressed diurnal "day" of bursty traffic on an
// autoscaled PIM fleet and watch the provisioning economics — the
// replica-count-over-time timeline, then the fixed-vs-autoscaled
// goodput-per-dollar comparison the autoscale experiment sweeps.
package main

import (
	"context"
	"fmt"
	"log"

	"pimphony/internal/core"
	"pimphony/internal/experiments"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/workload"
)

func main() {
	// 1. A four-replica CENT+PIMphony fleet. Min keeps one replica
	//    always online; the other three are standby and pay a 2 s
	//    warm-up when the autoscaler provisions them.
	m := model.LLM7B32K()
	specs := func() []serve.ReplicaSpec {
		cfg := core.CENT(m, core.PIMphony())
		cfg.KVBudgetBytes = 24 << 30
		return []serve.ReplicaSpec{{
			System: cfg, Count: 4, Role: serve.RoleUnified,
			Min: 1, WarmupSeconds: 2,
		}}
	}

	// 2. One compressed day of traffic: a 60 s sinusoidal day curve at
	//    90% amplitude, time-averaged to 3 req/s, short prompts so the
	//    study isolates provisioning rather than prefill latency.
	arrivals := func() ([]workload.Arrival, error) {
		gen, err := workload.HeavyTailed(256, 2048, 1.2, 52)
		if err != nil {
			return nil, err
		}
		gen.DecodeLen = 32
		return workload.ArrivalsByFlag("diurnal:60:0.9", gen, 3, 4, 64, 53)
	}

	// 3. Run the day under the SLO-driven policy and render the scale
	//    timeline: replicas come online against TTFT pressure on the
	//    morning ramp and drain through the overnight valley.
	slo := serve.SLO{TTFT: 2.5, TBT: 0.025}
	arr, err := arrivals()
	if err != nil {
		log.Fatal(err)
	}
	pl, err := serve.PlacementByName("round-robin-fit")
	if err != nil {
		log.Fatal(err)
	}
	auto, err := serve.AutoscalerByName("slo")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := serve.Run(context.Background(), serve.Config{
		Fleet: specs(), SLO: slo, Placement: pl, Autoscaler: auto,
	}, arr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(serve.ScaleTimeline(rep, "replica count over the day").String())
	fmt.Printf("\ntime-weighted online replicas: %.2f of %d\n",
		rep.Fleet.AvgOnlineReplicas, rep.Fleet.DecodeReplicas)
	fmt.Printf("replica-seconds paid: %.0f (fixed fleet would pay %.0f)\n\n",
		rep.Energy.ReplicaSeconds, float64(rep.Fleet.DecodeReplicas)*rep.MakespanSeconds)

	// 4. The economics table: the same day served fixed (every replica
	//    online throughout) vs autoscaled, at equal offered work —
	//    goodput per dollar is the axis the autoscaler moves.
	st := experiments.AutoscaleLayout
	st.Title = "fixed vs SLO-autoscaled over one compressed day (ttft-p95 in ms)"
	for _, mode := range []string{"fixed", "slo"} {
		st.Scenarios = append(st.Scenarios, serve.Scenario{
			Labels:   []any{"daycurve", mode, serve.RoleSummary(specs())},
			Config:   experiments.FleetConfig(serve.Config{Fleet: specs(), SLO: slo}, "round-robin-fit", mode),
			Arrivals: arrivals,
		})
	}
	t, err := st.Table(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(t.String())
}
