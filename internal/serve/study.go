package serve

import (
	"context"
	"fmt"
	"strings"

	"pimphony/internal/sweep"
	"pimphony/internal/tablefmt"
	"pimphony/internal/workload"
)

// Study is a serving table. Every Scenario is one independent
// simulation and renders as one row: its label cells under Labels,
// then one cell per Columns header, each a projection of the run's
// Report looked up in the column registry. The cmd/pimphony-serve
// table modes, the serving experiments and examples/daycurve all
// render through Study.
type Study struct {
	// Title heads the rendered table.
	Title string
	// Labels are the headers of the scenarios' label cells.
	Labels []string
	// Columns are registered column headers, rendered after the labels.
	// Each is defined once in the registry (see columns) and documented
	// in docs/EXPERIMENTS.md's metrics glossary.
	Columns []string
	// Scenarios are the table's rows, rendered in order.
	Scenarios []Scenario
}

// Scenario is one row of a Study.
type Scenario struct {
	// Labels are the row's leading cells, one per Study.Labels header,
	// kept at their Go types: tablefmt formats by type, so a float64
	// rate renders as 50.0 where an int replica count renders as 1.
	Labels []any
	// Config builds the run's configuration. Table calls it once per
	// render, so it must return fresh Placement, Policy and Autoscaler
	// instances: they keep state (round-robin cursors, scale
	// cooldowns).
	Config func() (Config, error)
	// Arrivals builds the run's schedule. It must be deterministic, so
	// the table is byte-identical at any sweep parallelism.
	Arrivals func() ([]workload.Arrival, error)
	// Baseline indexes the row whose goodput the retained% column
	// divides by; a baseline row names itself.
	Baseline int
}

// column projects one cell from a run's report and the report of its
// scenario's baseline row.
type column func(rep, base *Report) any

// columns is the registry of Study column headers. Cells keep the Go
// type of the Report field they read (counts stay int), latencies
// render in milliseconds, and a nil Report.Fleet or Report.Faults
// reads as zeros.
var columns = map[string]column{
	"tok/s":    func(r, _ *Report) any { return r.Throughput },
	"goodput":  func(r, _ *Report) any { return r.Goodput },
	"slo-met%": func(r, _ *Report) any { return 100 * r.SLOMet },
	"ttft-p50": func(r, _ *Report) any { return 1e3 * r.TTFT.P50 },
	"ttft-p95": func(r, _ *Report) any { return 1e3 * r.TTFT.P95 },
	"ttft-p99": func(r, _ *Report) any { return 1e3 * r.TTFT.P99 },
	"tbt-p50":  func(r, _ *Report) any { return 1e3 * r.TBT.P50 },
	"tbt-p95":  func(r, _ *Report) any { return 1e3 * r.TBT.P95 },
	"tbt-p99":  func(r, _ *Report) any { return 1e3 * r.TBT.P99 },
	"retained%": func(r, base *Report) any {
		if base.Goodput > 0 {
			return 100 * r.Goodput / base.Goodput
		}
		return 100.0
	},

	"max-act":       func(r, _ *Report) any { return r.Capacity.MaxActive },
	"preempt":       func(r, _ *Report) any { return r.Capacity.Preemptions },
	"blocked-s":     func(r, _ *Report) any { return r.Capacity.BlockedSeconds },
	"recomp-s":      func(r, _ *Report) any { return r.Capacity.RecomputeSeconds },
	"peak-live-gib": func(r, _ *Report) any { return float64(r.Capacity.PeakLiveBytes) / (1 << 30) },
	"peak-resv-gib": func(r, _ *Report) any { return float64(r.Capacity.PeakReservedBytes) / (1 << 30) },

	"xfer-s":  func(r, _ *Report) any { return fleetOf(r).TransferSeconds },
	"migr":    func(r, _ *Report) any { return fleetOf(r).Migrations },
	"steal":   func(r, _ *Report) any { return fleetOf(r).Steals },
	"avg-onl": func(r, _ *Report) any { return fleetOf(r).AvgOnlineReplicas },
	"ups":     func(r, _ *Report) any { return fleetOf(r).ScaleUps },
	"drains":  func(r, _ *Report) any { return fleetOf(r).Drains },

	"crashes":      func(r, _ *Report) any { return faultsOf(r).Crashes },
	"retries":      func(r, _ *Report) any { return faultsOf(r).Retries },
	"failed":       func(r, _ *Report) any { return faultsOf(r).Failed },
	"lost-kv(MiB)": func(r, _ *Report) any { return float64(faultsOf(r).LostKVBytes) / (1 << 20) },
	"down(s)":      func(r, _ *Report) any { return faultsOf(r).DowntimeSeconds },

	"j/tok":     func(r, _ *Report) any { return r.Energy.JoulesPerToken },
	"$/Mtok":    func(r, _ *Report) any { return r.Energy.CostPerMTok },
	"goodtok/$": func(r, _ *Report) any { return r.Energy.GoodTokensPerDollar },
}

// fleetOf reads a nil Report.Fleet as zeros.
func fleetOf(r *Report) *FleetStats {
	if r.Fleet == nil {
		return &FleetStats{}
	}
	return r.Fleet
}

// faultsOf reads a nil Report.Faults as zeros.
func faultsOf(r *Report) *FaultStats {
	if r.Faults == nil {
		return &FaultStats{}
	}
	return r.Faults
}

// Table runs every scenario through the parallel sweep engine and
// renders the study. Rows keep scenario order, so the table is
// byte-identical at any sweep parallelism. An unknown column, a
// scenario whose label cells do not match Labels, or a baseline
// outside the scenario list is an error before anything runs; a failed
// run's error names its row by the label cells.
func (s Study) Table(ctx context.Context, opts ...sweep.Option) (*tablefmt.Table, error) {
	cols := make([]column, len(s.Columns))
	for i, h := range s.Columns {
		if cols[i] = columns[h]; cols[i] == nil {
			return nil, fmt.Errorf("serve: study %q: unknown column %q", s.Title, h)
		}
	}
	for i, sc := range s.Scenarios {
		if len(sc.Labels) != len(s.Labels) {
			return nil, fmt.Errorf("serve: study %q: scenario %d has %d label cells for %d label headers",
				s.Title, i, len(sc.Labels), len(s.Labels))
		}
		if sc.Baseline < 0 || sc.Baseline >= len(s.Scenarios) {
			return nil, fmt.Errorf("serve: study %q: scenario %d: baseline row %d outside [0, %d)",
				s.Title, i, sc.Baseline, len(s.Scenarios))
		}
	}
	reps, err := sweep.Run(ctx, s.Scenarios, func(ctx context.Context, sc Scenario) (*Report, error) {
		cfg, err := sc.Config()
		if err != nil {
			return nil, err
		}
		arr, err := sc.Arrivals()
		if err != nil {
			return nil, err
		}
		rep, err := Run(ctx, cfg, arr)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", sc.Labels, err)
		}
		return rep, nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	t := tablefmt.New(s.Title, append(append([]string{}, s.Labels...), s.Columns...)...)
	for i, sc := range s.Scenarios {
		row := append([]any{}, sc.Labels...)
		for _, col := range cols {
			row = append(row, col(reps[i], reps[sc.Baseline]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// RoleSummary compresses a fleet's shape into a label like "1pre+3dec"
// or "4uni" for table rows and logs.
func RoleSummary(specs []ReplicaSpec) string {
	counts := map[Role]int{}
	for _, s := range specs {
		counts[s.Role] += s.Count
	}
	abbrev := map[Role]string{RoleUnified: "uni", RolePrefill: "pre", RoleDecode: "dec"}
	var parts []string
	for _, r := range []Role{RolePrefill, RoleDecode, RoleUnified} {
		if counts[r] > 0 {
			parts = append(parts, fmt.Sprintf("%d%s", counts[r], abbrev[r]))
		}
	}
	return strings.Join(parts, "+")
}

// ScaleTimeline renders a fleet run's replica-count-over-time: one row
// per provision/drain event, timestamped relative to the first event.
// Empty (headers only) for fixed fleets.
func ScaleTimeline(rep *Report, title string) *tablefmt.Table {
	t := tablefmt.New(title, "t(s)", "event", "online")
	if rep.Fleet == nil {
		return t
	}
	for _, ev := range rep.Fleet.ScaleEvents {
		kind := "provision"
		if ev.Delta < 0 {
			kind = "drain"
		}
		t.AddRow(ev.At, kind, ev.Online)
	}
	return t
}
