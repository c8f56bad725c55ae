// Package serve is the online serving simulator: it feeds a timed
// arrival stream (internal/workload's Poisson, bursty or trace-replay
// schedules) into continuous-batching decode replicas (cluster.Engine)
// and reports the SLO metrics a serving system is judged on — TTFT, TBT
// and end-to-end latency at p50/p95/p99, plus goodput (decode tokens per
// second from requests that met the SLO).
//
// There is one simulator. A run is a fleet of replicas under a global
// scheduler (fleet.go): placement, the held queue, migration, stealing,
// autoscaling and faults. The Config{System, Replicas, Policy}
// shorthand is the decode-only fleet of Replicas copies of System, with
// Policy as its placement and prompts prefilled outside the fleet — the
// classic load balancer in front of N identical decode engines.
//
// The simulation is a discrete-event simulation on the spine (des.go):
// each replica advances its own clock by the duration of its decode
// iterations, and a global event (an arrival, a KV landing, a timer) is
// dispatched only once every busy replica has simulated up to it.
// Between events a replica does not step one iteration at a time —
// cluster.Engine.Leap fast-forwards a stable batch through its
// analytically computed event horizon in one call, as far as the
// scheduler lets replicas run independently — but every optimization is
// exact: every per-token timestamp, and therefore every report, is
// bit-identical to the naive single-stepped loop (Config.SingleStep pins
// this in tests). Everything is deterministic — same arrival schedule,
// same configuration, same report — which is what lets the
// latency–throughput tables in CI be byte-identical at any sweep
// parallelism.
//
// Metric definitions (all per request, in seconds):
//
//   - TTFT (time to first token): from arrival to the end of the first
//     decode iteration that includes the request, i.e. queueing delay
//     (and any modelled prefill) + one iteration; with
//     Config.IncludePrefill it also adds the prompt prefill time of
//     prompts prefilled outside the fleet.
//   - TBT (time between tokens): the request's mean gap between
//     subsequent tokens, (completion - first token) / (tokens - 1),
//     over the tokens actually generated (a request whose KV cache hits
//     the context window is truncated, like a real serving system).
//   - E2E: from arrival to completion of the last token.
//   - Goodput: decode tokens of SLO-compliant requests / makespan,
//     where makespan runs from the first arrival to the last completion.
package serve

import (
	"context"
	"fmt"
	"math"

	"pimphony/internal/cluster"
	"pimphony/internal/energy"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// SLO is the latency target a request must meet to count toward
// goodput. Zero fields are not enforced.
type SLO struct {
	TTFT float64 // seconds from arrival to first token
	TBT  float64 // seconds between subsequent tokens (per-request mean)
}

// Met reports whether a request's latencies satisfy the SLO.
func (s SLO) Met(ttft, tbt float64) bool {
	if s.TTFT > 0 && ttft > s.TTFT {
		return false
	}
	if s.TBT > 0 && tbt > s.TBT {
		return false
	}
	return true
}

// Config describes one serving simulation: either an explicit Fleet, or
// the Config{System, Replicas, Policy} shorthand for a decode-only
// fleet. The shorthand runs as that fleet, LeapHorizon included, but
// reports as a load balancer: Migrate, Steal, Autoscaler and Faults
// need explicit Fleet specs, and Report.Fleet stays nil.
type Config struct {
	// System is the shorthand's replica template: every replica is an
	// independent cluster.System built from it, serving as RoleDecode.
	// Every registered backend is servable — PIM systems admit against
	// their static/DPA allocator, the GPU baseline against its paged
	// pool (see cluster.System.NewEngine). Ignored when Fleet is set.
	System cluster.Config
	// Replicas is the shorthand's number of identical decode engines
	// (>= 1). Ignored when Fleet is set.
	Replicas int
	// Policy is the shorthand's placement, normally a PolicyByName
	// load-balancing policy: those never hold a request, so every arrival
	// joins its replica's queue at once. Each Run needs a fresh instance
	// (policies may keep state). Ignored when Fleet is set; Placement
	// places an explicit fleet.
	Policy Placement
	// SLO classifies completed requests for the goodput metric.
	SLO SLO
	// IncludePrefill adds each prompt's processing time on its decode
	// replica's dense engine (cluster.System.PrefillSeconds) to the
	// request's TTFT and E2E when the prompt is prefilled outside the
	// fleet: on a RoleDecode replica of a fleet without prefill servers,
	// the shorthand among them. The prefill delays the request's tokens
	// but does not occupy the decode engine, the disaggregation NeuPIMs
	// and Hybe argue for. Prefill and unified replicas price their
	// prefills themselves, so the flag does not touch them.
	IncludePrefill bool
	// SingleStep forces the one-iteration-per-call engine path instead
	// of multi-step fast-forward (cluster.Engine.Leap). Reports are
	// identical either way — the fast-forward equivalence tests pin that
	// — so the knob exists for those tests and for debugging; production
	// runs leave it off and simulate the same traffic many times faster.
	SingleStep bool

	// Fleet, when non-empty, describes the replicas explicitly: each
	// spec with its own backend, allocator technique, KV budget and role,
	// so prefill and decode can run on different replicas with an
	// explicitly priced KV-transfer hop (see fleet.go). A RoleDecode
	// replica in a fleet without RolePrefill specs takes its requests
	// prefilled outside the fleet, as the shorthand's replicas do.
	Fleet []ReplicaSpec
	// Interconnect prices every inter-replica KV movement (prefill→decode
	// handoffs, migrations, steals). The zero value is an unusable
	// fabric: fine for fleets without prefill servers (KV stays local and
	// migration/stealing simply never win), an error for disaggregated
	// ones (handoffs need a link).
	Interconnect timing.Interconnect
	// Placement places decode work on the replicas of an explicit Fleet
	// against fleet-wide KV headroom (nil = KVHeadroom()). Like Policy,
	// each Run needs a fresh instance.
	Placement Placement
	// Migrate lets the fleet scheduler move a preempted request's KV to
	// another replica when the transfer is cheaper than the recompute
	// its re-admission would charge. It needs an explicit Fleet.
	Migrate bool
	// Steal lets idle decode replicas take queued zero-progress
	// requests from the most backlogged replica (prompt KV moves over
	// the interconnect). It needs an explicit Fleet.
	Steal bool
	// Autoscaler, when non-nil, lets the fleet's global scheduler grow
	// and shrink the online decode-replica set while the run plays out:
	// each spec starts with Min replicas online, the rest standby, and
	// scale-ups pay the spec's WarmupSeconds (see autoscale.go). It needs
	// an explicit Fleet; nil keeps every replica online for the whole
	// run. Like Policy, each Run needs a fresh instance.
	Autoscaler Autoscaler
	// LeapHorizon caps iterations per engine leap, so a draining replica
	// cannot run arbitrarily far past the next global event (0 = the
	// fleetLeapHorizon default). Reports are identical at any value; only
	// simulation granularity changes.
	LeapHorizon int
	// Faults injects deterministic replica failures — crashes, transient
	// slowdowns, interconnect degradation — compiled into explicit heap
	// events (see faults.go). It needs an explicit Fleet; nil or an
	// empty plan reproduces the fault-free run byte-for-byte.
	Faults *FaultPlan
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	// NaN and negative targets would switch the SLO off without a word
	// (SLO.Met enforces only positive ones).
	if !(c.SLO.TTFT >= 0) || !(c.SLO.TBT >= 0) {
		return fmt.Errorf("serve: SLO targets must be non-negative seconds (0 disables), got TTFT %g, TBT %g", c.SLO.TTFT, c.SLO.TBT)
	}
	if len(c.Fleet) == 0 {
		switch {
		case c.Replicas <= 0:
			return fmt.Errorf("serve: Replicas must be positive, got %d", c.Replicas)
		case c.Policy == nil:
			return fmt.Errorf("serve: Policy is required")
		case c.Autoscaler != nil:
			return fmt.Errorf("serve: Autoscaler requires fleet mode (set Fleet specs)")
		case c.Faults.active():
			return fmt.Errorf("serve: Faults require fleet mode (set Fleet specs)")
		case c.Migrate || c.Steal:
			return fmt.Errorf("serve: Migrate and Steal require fleet mode (set Fleet specs)")
		}
	}
	f := c.fleetForm()
	return f.validateFleet()
}

// fleetForm returns the configuration with the shorthand spelled out:
// Replicas RoleDecode copies of System, placed by Policy. A Config with
// Fleet specs comes back unchanged.
func (c Config) fleetForm() Config {
	if len(c.Fleet) == 0 {
		c.Fleet = []ReplicaSpec{{System: c.System, Count: c.Replicas, Role: RoleDecode}}
		c.Placement = c.Policy
	}
	return c
}

// finiteNonNeg reports whether x is a usable duration or count: not
// NaN, not negative, not infinite.
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Quantiles summarises one latency distribution.
type Quantiles struct {
	Mean, P50, P95, P99 float64
}

// quantiles computes nearest-rank percentiles over a sample, sorting xs
// in place (radix, O(len(xs))). tmp is optional scratch for the sort,
// reusable across calls; the mean accumulates in ascending order,
// exactly as the sort-then-sum fold it replaces.
func quantiles(xs, tmp []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	radixSortFloat64(xs, tmp)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(xs)))) - 1
		if i < 0 {
			i = 0
		}
		return xs[i]
	}
	return Quantiles{Mean: sum / float64(len(xs)), P50: rank(0.50), P95: rank(0.95), P99: rank(0.99)}
}

// ReplicaStats is one replica's share of the work.
type ReplicaStats struct {
	Requests    int
	Tokens      int
	Steps       int
	BusySeconds float64
	// Utilization is the replica's PIM MAC utilization over its
	// attention phases.
	Utilization float64
	// MaxActive is the replica's largest concurrent admitted batch.
	MaxActive int
	// Preemptions counts requests evicted back to the queue when DPA
	// lazy growth exhausted the replica's pool mid-decode.
	Preemptions int
	// BlockedSeconds is decode time spent with at least one request
	// waiting in the queue (admission-blocked on KV capacity).
	BlockedSeconds float64
	// RecomputeSeconds is KV-rebuild time charged for re-admitting
	// preempted requests.
	RecomputeSeconds float64
	// PeakLiveBytes / PeakReservedBytes are the replica allocator's
	// high-water marks: bytes holding actual KV data vs bytes
	// unavailable to other requests (T_max reservations or DPA chunks).
	PeakLiveBytes     int64
	PeakReservedBytes int64
}

// CapacityStats aggregates the KV-capacity behaviour of one serving run
// — the online counterpart of the paper's Fig. 19 pool-utilization
// study, comparing what an allocation scheme reserved against what it
// actually used while admission and preemption played out.
type CapacityStats struct {
	// Alloc is the KV allocation scheme ("static" or "dpa").
	Alloc string
	// PoolBytes is the per-replica KV capacity budget.
	PoolBytes int64
	// PeakLiveBytes / PeakReservedBytes are the maxima across replicas.
	PeakLiveBytes     int64
	PeakReservedBytes int64
	// MaxActive is the largest concurrent admitted batch on any replica
	// — static T_max reservations cap this well below DPA at an equal
	// budget.
	MaxActive int
	// Preemptions and BlockedSeconds / RecomputeSeconds are summed
	// across replicas.
	Preemptions      int
	BlockedSeconds   float64
	RecomputeSeconds float64
}

// EnergyStats prices one serving run: the modeled device energy of the
// decode replicas and the provisioning cost of everything that was kept
// online, folded into the per-token production metrics (joules/token,
// cost/Mtok, goodput per dollar). Energy comes from the backends'
// module model (internal/energy; the GPU baseline prices no module
// energy, so its joules are zero by construction) and is charged at the
// grid electricity rate; provisioning comes from each replica's
// System.CostPerHour times the seconds it was online — which is where
// an autoscaled fleet earns its keep against a fixed one.
type EnergyStats struct {
	// DecodeJoules is the modeled decode energy across replicas, in
	// joules.
	DecodeJoules float64
	// JoulesPerToken is DecodeJoules per generated token (zero for
	// backends without an energy model).
	JoulesPerToken float64
	// ReplicaSeconds is the total decode-replica online time: replicas x
	// makespan for a fixed fleet, the provision-to-drain integral for an
	// autoscaled one.
	ReplicaSeconds float64
	// ProvisionDollars charges ReplicaSeconds (plus any dedicated
	// prefill servers, kept online for the whole run) at each replica's
	// CostPerHour; EnergyDollars charges DecodeJoules at the grid rate;
	// Dollars is their sum.
	ProvisionDollars float64
	EnergyDollars    float64
	Dollars          float64
	// CostPerMTok is Dollars per million generated tokens.
	CostPerMTok float64
	// GoodTokensPerDollar is the run's production metric: SLO-compliant
	// tokens per dollar spent.
	GoodTokensPerDollar float64
}

// Report is the outcome of one serving simulation.
type Report struct {
	Policy   string
	Replicas int
	// Requests is the number of requests served to completion (every
	// arrival, unless the simulation errored).
	Requests int
	// OfferedRate is the arrival schedule's empirical requests/second.
	OfferedRate float64
	// MakespanSeconds runs from the first arrival to the last
	// completion.
	MakespanSeconds float64
	// Throughput is decode tokens per second of makespan.
	Throughput float64
	// Goodput is decode tokens per second of makespan produced by
	// SLO-compliant requests (the LoL-PIM-style serving metric).
	Goodput float64
	// SLOMet is the fraction of requests that met the SLO.
	SLOMet float64
	// Tokens / GoodTokens are the generated decode tokens in total and
	// from SLO-compliant requests (the numerators of Throughput and
	// Goodput).
	Tokens, GoodTokens int
	// Latency distributions across completed requests.
	TTFT, TBT, E2E Quantiles
	// Capacity aggregates the KV-allocator behaviour across replicas.
	Capacity CapacityStats
	// Energy prices the run: modeled joules/token plus provisioning and
	// electricity dollars (see EnergyStats).
	Energy EnergyStats
	// PerReplica breaks the work down by replica.
	PerReplica []ReplicaStats
	// Fleet carries the fleet extras — roles, transfer accounting,
	// scheduler actions — for a run with explicit Fleet specs. It is nil
	// for the shorthand, whose fleet shape the Config already states and
	// whose scheduler hands off, migrates, steals and scales nothing
	// (and, under a PolicyByName policy, holds nothing).
	Fleet *FleetStats
	// Faults carries the failure-and-recovery accounting — crashes,
	// retries, permanently failed requests, lost KV, downtime — and is
	// nil unless the run injected faults (see faults.go).
	Faults *FaultStats
}

// Run serves a timed arrival schedule to completion and reports the SLO
// metrics. Arrivals must be sorted by At, at finite times, with unique
// request IDs; every request needs a positive Decode length.
func Run(ctx context.Context, cfg Config, arrivals []workload.Arrival) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("serve: empty arrival schedule")
	}
	fs, err := newFleetSim(cfg, len(arrivals))
	if err != nil {
		return nil, err
	}
	if err := fs.start(arrivals); err != nil {
		return nil, err
	}
	if err := fs.spine.run(ctx); err != nil {
		return nil, err
	}
	return fs.report(arrivals)
}

// foldReport turns per-request records and replica counters into a
// Report: how work reached a replica never changes how its latencies
// are scored.
func foldReport(recs map[int]*record, arrivals []workload.Arrival, slo SLO, policyName string,
	replicas []*replica) (*Report, error) {
	rep := &Report{
		Policy:      policyName,
		Replicas:    len(replicas),
		Requests:    len(recs),
		OfferedRate: workload.OfferedRate(arrivals),
		PerReplica:  make([]ReplicaStats, len(replicas)),
	}
	firstArrival := arrivals[0].At
	var lastDone float64
	// One latency sample per request: size the sample buffers (and the
	// sort scratch shared by the three quantile folds) exactly once.
	ttfts := make([]float64, 0, len(arrivals))
	tbts := make([]float64, 0, len(arrivals))
	e2es := make([]float64, 0, len(arrivals))
	var goodTokens, allTokens int
	met := 0
	// Iterate in arrival order for deterministic accumulation.
	for _, a := range arrivals {
		rec := recs[a.Req.ID]
		if rec.failed {
			// Retry budget exhausted (faults.go): no latency sample, no
			// tokens, counts against SLO attainment via the denominator.
			continue
		}
		if rec.done == 0 {
			return nil, fmt.Errorf("serve: request %d never completed", a.Req.ID)
		}
		ttft := rec.first - rec.arrival + rec.prefill
		var tbt float64
		if rec.tokens > 1 {
			tbt = (rec.done - rec.first) / float64(rec.tokens-1)
		}
		e2e := rec.done - rec.arrival + rec.prefill
		ttfts = append(ttfts, ttft)
		tbts = append(tbts, tbt)
		e2es = append(e2es, e2e)
		allTokens += rec.tokens
		if slo.Met(ttft, tbt) {
			met++
			goodTokens += rec.tokens
		}
		if rec.done+rec.prefill > lastDone {
			lastDone = rec.done + rec.prefill
		}
		st := &rep.PerReplica[rec.replica]
		st.Requests++
		st.Tokens += rec.tokens
	}
	for i, r := range replicas {
		st := &rep.PerReplica[i]
		st.Steps = r.eng.Steps()
		st.BusySeconds = r.eng.BusySeconds()
		st.Utilization = r.eng.Utilization()
		st.MaxActive = r.eng.MaxActive()
		st.Preemptions = r.eng.Preemptions()
		st.BlockedSeconds = r.eng.BlockedSeconds()
		st.RecomputeSeconds = r.eng.RecomputeSeconds()
		st.PeakLiveBytes = r.eng.PeakLiveBytes()
		st.PeakReservedBytes = r.eng.PeakReservedBytes()

		c := &rep.Capacity
		c.Alloc = r.eng.AllocName()
		c.PoolBytes = r.eng.KVPoolBytes()
		if st.PeakLiveBytes > c.PeakLiveBytes {
			c.PeakLiveBytes = st.PeakLiveBytes
		}
		if st.PeakReservedBytes > c.PeakReservedBytes {
			c.PeakReservedBytes = st.PeakReservedBytes
		}
		if st.MaxActive > c.MaxActive {
			c.MaxActive = st.MaxActive
		}
		c.Preemptions += st.Preemptions
		c.BlockedSeconds += st.BlockedSeconds
		c.RecomputeSeconds += st.RecomputeSeconds
	}
	if lastDone < firstArrival {
		lastDone = firstArrival // every request failed; an empty makespan
	}
	rep.MakespanSeconds = lastDone - firstArrival
	if rep.MakespanSeconds > 0 {
		rep.Throughput = float64(allTokens) / rep.MakespanSeconds
		rep.Goodput = float64(goodTokens) / rep.MakespanSeconds
	}
	rep.Tokens = allTokens
	rep.GoodTokens = goodTokens
	rep.SLOMet = float64(met) / float64(len(recs))
	tmp := make([]float64, len(ttfts))
	rep.TTFT = quantiles(ttfts, tmp)
	rep.TBT = quantiles(tbts, tmp)
	rep.E2E = quantiles(e2es, tmp)
	// Decode energy, accumulated in replica index order (the float
	// addition order is pinned — the fleet tables hash it).
	var picoJoules float64
	for _, r := range replicas {
		ae, fe := r.eng.Energy()
		picoJoules += ae.Total() + fe.Total()
	}
	rep.Energy.DecodeJoules = picoJoules * 1e-12
	if allTokens > 0 {
		rep.Energy.JoulesPerToken = picoJoules * 1e-12 / float64(allTokens)
	}
	return rep, nil
}

// priceReport fills the dollar half of Report.Energy: decode replicas
// charged for their online seconds at their CostPerHour, plus any
// always-on extras (dedicated prefill servers), plus the modeled energy
// at the grid electricity rate.
func priceReport(rep *Report, onlineSeconds, dollarsPerHour []float64, extraDollars float64) {
	e := &rep.Energy
	for i, secs := range onlineSeconds {
		e.ReplicaSeconds += secs
		e.ProvisionDollars += secs / 3600 * dollarsPerHour[i]
	}
	e.ProvisionDollars += extraDollars
	e.EnergyDollars = energy.GridDollars(e.DecodeJoules)
	e.Dollars = e.ProvisionDollars + e.EnergyDollars
	if e.Dollars > 0 {
		if rep.Tokens > 0 {
			e.CostPerMTok = e.Dollars / float64(rep.Tokens) * 1e6
		}
		e.GoodTokensPerDollar = float64(rep.GoodTokens) / e.Dollars
	}
}
