// Package simtest is the simulation-equivalence toolkit behind the
// serving spine's correctness suite. The simulator's core guarantee is
// that every report is a pure, deterministic function of (configuration,
// arrival schedule) — independent of leap bound and granularity, sweep
// parallelism and event-push order among commuting events. Single
// stepping is the reference: it prices one iteration per engine call in
// global clock order, whatever bound the spine derives. This package
// provides the pieces tests and fuzz targets need to pin that
// guarantee:
//
//   - Fingerprint: a stable content hash of a serve.Report, so
//     equivalence checks compare one string instead of walking structs.
//   - Scenario builders: deterministic systems and arrival schedules
//     spanning the backend × allocator grid, including a
//     preemption-heavy configuration.
//   - CheckInvariants: metamorphic oracles every valid report satisfies
//     regardless of configuration — conservation of requests and
//     tokens, latency-order sanity (a request completes no earlier than
//     its first token, which is no earlier than its arrival), and
//     capacity accounting bounds.
package simtest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"pimphony/internal/cluster"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// Fingerprint returns a stable hex content hash of a report. Two runs
// are equivalent iff their fingerprints match: the report carries every
// latency quantile at full float precision, so any timestamp
// divergence — even one ULP on one request — changes the hash.
func Fingerprint(rep *serve.Report) string {
	b, err := json.Marshal(rep)
	if err != nil {
		panic(fmt.Sprintf("simtest: report not marshalable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// System returns the named deterministic replica template. The names
// span the backend × allocator grid the equivalence suite sweeps:
//
//	pim-dpa     CENT-style PIM decode cluster, DPA chunked allocator
//	pim-static  the same cluster with static T_max reservations
//	pim-tight   pim-dpa with a KV budget sized to preempt mid-decode
//	xpu-pim     the XPU+PIM hybrid
//	gpu-paged   the GPU baseline with its paged KV pool
//	dimm-pim    the DIMM-PIM system
func System(name string) cluster.Config {
	pim := cluster.Config{
		Name:         "equiv-" + name,
		Backend:      cluster.PIMOnly,
		Dev:          timing.AiM16().WithChannels(32).WithCapacity(16 << 30),
		Modules:      8,
		TP:           8,
		PP:           1,
		Model:        model.LLM7B32K(),
		Tech:         cluster.PIMphony(),
		DecodeWindow: 4,
	}
	switch name {
	case "pim-dpa":
		return pim
	case "pim-static":
		pim.Tech.DPA = false
		return pim
	case "pim-tight":
		pim.KVBudgetBytes = 4106 << 20
		return pim
	case "xpu-pim":
		pim.Backend = cluster.XPUPIM
		return pim
	case "gpu-paged":
		return cluster.Config{Name: "equiv-" + name, Backend: cluster.GPUSystem,
			Model: model.LLM7B32K(), GPUs: 2, DecodeWindow: 4}
	case "dimm-pim":
		return cluster.Config{Name: "equiv-" + name, Backend: cluster.DIMMPIM,
			Dev: timing.DDR5DIMM(), Modules: 8, TP: 8, PP: 1,
			Model: model.LLM7B32K(), Tech: cluster.PIMphony(), DecodeWindow: 4}
	default:
		panic(fmt.Sprintf("simtest: unknown system %q", name))
	}
}

// SystemNames lists the System templates in grid order.
func SystemNames() []string {
	return []string{"pim-dpa", "pim-static", "pim-tight", "xpu-pim", "gpu-paged", "dimm-pim"}
}

// PoissonSchedule builds a deterministic Poisson arrival schedule with
// short generations, the workhorse load for equivalence runs.
func PoissonSchedule(n int, rate float64, seed int64) ([]workload.Arrival, error) {
	gen := workload.NewGenerator(workload.QMSum(), seed)
	gen.DecodeLen = 6
	return workload.PoissonArrivals(gen, rate, 4, n, seed+5)
}

// TightSchedule builds a burst of small-prompt requests whose lockstep
// KV growth exhausts the pim-tight budget mid-decode, so equivalence
// runs cover the preemption/recompute path.
func TightSchedule(n int) ([]workload.Arrival, error) {
	gen := workload.Uniform(4096, 5)
	gen.DecodeLen = 16
	return workload.PoissonArrivals(gen, 1000, 2, n, 7)
}

// CheckInvariants asserts the oracles every valid report satisfies, no
// matter the configuration, leap bound or schedule that produced it.
func CheckInvariants(tb testing.TB, rep *serve.Report, arrivals []workload.Arrival) {
	tb.Helper()
	// Conservation: every arrival is served exactly once — except
	// requests fault injection permanently failed (retry budget
	// exhausted), which own no replica and no latency sample — and each
	// completed request is owned by exactly one replica.
	served := len(arrivals)
	if rep.Faults != nil {
		if rep.Faults.Failed < 0 || rep.Faults.Failed > len(arrivals) {
			tb.Errorf("faults: %d failed requests for %d arrivals", rep.Faults.Failed, len(arrivals))
		}
		served -= rep.Faults.Failed
	}
	if rep.Requests != len(arrivals) {
		tb.Errorf("conservation: %d requests reported for %d arrivals", rep.Requests, len(arrivals))
	}
	var reqs, toks, maxToks int
	for _, st := range rep.PerReplica {
		reqs += st.Requests
		toks += st.Tokens
	}
	for _, a := range arrivals {
		maxToks += a.Req.Decode
	}
	if reqs != served {
		tb.Errorf("conservation: per-replica requests sum to %d, want %d", reqs, served)
	}
	// Tokens: at least one per completed request (admission implies a
	// first token), at most the requested generation length (T_max may
	// truncate below it, never above).
	if toks < served || toks > maxToks {
		tb.Errorf("conservation: %d tokens generated for %d completed requests asking %d", toks, served, maxToks)
	}
	// Clock order: arrival <= first token <= completion holds per
	// request, so the aggregates obey TTFT >= 0, TBT >= 0 and
	// E2E >= TTFT at every rank, and nothing is negative.
	for name, q := range map[string]serve.Quantiles{"TTFT": rep.TTFT, "TBT": rep.TBT, "E2E": rep.E2E} {
		if q.Mean < 0 || q.P50 < 0 || q.P95 < 0 || q.P99 < 0 {
			tb.Errorf("clock order: negative %s latency %+v", name, q)
		}
		if q.P50 > q.P95 || q.P95 > q.P99 {
			tb.Errorf("quantiles: %s not monotone %+v", name, q)
		}
	}
	for _, rank := range []struct {
		name      string
		ttft, e2e float64
	}{{"mean", rep.TTFT.Mean, rep.E2E.Mean}, {"p50", rep.TTFT.P50, rep.E2E.P50}, {"p99", rep.TTFT.P99, rep.E2E.P99}} {
		if rank.e2e < rank.ttft {
			tb.Errorf("clock order: E2E %s %g below TTFT %s %g", rank.name, rank.e2e, rank.name, rank.ttft)
		}
	}
	if served > 0 && rep.MakespanSeconds <= 0 {
		tb.Errorf("makespan %g, want positive", rep.MakespanSeconds)
	}
	if rep.Goodput > rep.Throughput {
		tb.Errorf("goodput %g exceeds throughput %g", rep.Goodput, rep.Throughput)
	}
	if rep.SLOMet < 0 || rep.SLOMet > 1 {
		tb.Errorf("SLO-met fraction %g outside [0,1]", rep.SLOMet)
	}
	// Capacity accounting: peaks fit the pool, and reserving less than
	// is live would mean the allocator lost track of real data.
	c := rep.Capacity
	if c.PoolBytes > 0 {
		if c.PeakLiveBytes > c.PoolBytes || c.PeakReservedBytes > c.PoolBytes {
			tb.Errorf("capacity: peaks %d/%d exceed pool %d", c.PeakLiveBytes, c.PeakReservedBytes, c.PoolBytes)
		}
		if c.PeakLiveBytes > c.PeakReservedBytes {
			tb.Errorf("capacity: live peak %d above reserved peak %d", c.PeakLiveBytes, c.PeakReservedBytes)
		}
	}
}
