// Fleet autoscaling: a policy seam on the discrete-event spine that
// lets the global scheduler change the online decode-replica set while
// a simulation runs. A fleet built with Config.Autoscaler starts with
// each spec's Min replicas online and the rest offline (standby); at
// every scheduler decision boundary — arrival routing, engine-call
// reactions, idle retries — the Autoscaler inspects an AutoscaleView
// and asks for replicas to be provisioned or drained:
//
//   - Provisioning marks the lowest-index standby replica warming and
//     schedules an evProvision at now + WarmupSeconds (a zero warm-up
//     applies synchronously, which is what pins the fixed-fleet
//     regression: MaxScaler with zero warm-up reproduces the fixed
//     fleet byte-for-byte). When the event dispatches, the replica
//     joins the online pool and is immediately placeable.
//   - Draining retires the highest-index idle online replica (no
//     active batch, no queued work, nothing in flight toward it) via
//     an evDrain at the decision time. Draining replicas are excluded
//     from placement, stealing and migration, so nothing can land on
//     one between the decision and its event. Draining to zero is
//     allowed; held arrivals then re-provision (the spine's idleWork
//     backstop guarantees a standby is brought up rather than
//     stalling).
//
// Online seconds are integrated per replica from provision to drain
// (clamped to the makespan window), so Report.Energy prices an
// autoscaled fleet for the capacity it actually kept online — the
// goodput-per-dollar axis the autoscale experiment sweeps.
package serve

import (
	"fmt"
	"math"
)

// replState is one fleet replica's autoscaling lifecycle state.
type replState int

const (
	// stateOnline: the replica takes placements, steals and migrations.
	stateOnline replState = iota
	// stateWarming: provisioning was decided; the replica joins the
	// online pool when its evProvision dispatches.
	stateWarming
	// stateDraining: retirement was decided; the replica is already
	// excluded from placement and leaves the pool when its evDrain
	// dispatches (same timestamp — the state exists so nothing can be
	// routed to it in between).
	stateDraining
	// stateOffline: standby — provisioned capacity not currently online
	// (not charged for provisioning while offline).
	stateOffline
	// stateFailed: the replica crashed (faults.go). Its KV is lost, its
	// in-flight requests were withdrawn to the global retry path, and it
	// takes no placements, steals or migrations until its evRecover
	// brings it back online. Downtime is not billed as online seconds.
	stateFailed
)

func (s replState) String() string {
	switch s {
	case stateOnline:
		return "online"
	case stateWarming:
		return "warming"
	case stateDraining:
		return "draining"
	case stateOffline:
		return "offline"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ScaleEvent is one autoscaler action in a fleet run's timeline.
type ScaleEvent struct {
	// At is the simulation time the replica set changed (seconds; for a
	// provision, the warm-up end, not the decision time).
	At float64
	// Delta is +1 for a replica coming online, -1 for a drain.
	Delta int
	// Online is the online decode-replica count after the event.
	Online int
}

// AutoscaleView is the fleet state an Autoscaler decides on: the
// replica pool by lifecycle state, the work visible to the global
// scheduler, and how long the oldest un-served request has waited.
// Everything in it is deterministic, so autoscaled runs stay
// byte-identical across leap granularity and sweep parallelism.
type AutoscaleView struct {
	// Now is the decision boundary's simulation time (seconds).
	Now float64
	// SLO is the run's latency target (the scale-up trigger is usually
	// relative to SLO.TTFT).
	SLO SLO
	// Online / Warming / Standby count decode replicas by state
	// (draining replicas have already left Online).
	Online, Warming, Standby int
	// Failed counts crashed replicas currently waiting out their
	// recovery — capacity the fleet owns but cannot use right now. The
	// autoscaler sees a crash as capacity loss (Online drops, Failed
	// rises) and may provision standby replacements.
	Failed int
	// IdleOnline counts online replicas with no work at all — no active
	// batch, no queue, nothing in flight toward them — i.e. the ones a
	// drain decision could retire right now.
	IdleOnline int
	// Held is the global queue: requests no online replica could admit
	// at their decision point.
	Held int
	// Queued / Active sum the online replicas' pending and admitted
	// request counts.
	Queued, Active int
	// FreeKVFrac is the online replicas' pooled free KV fraction (zero
	// when nothing is online).
	FreeKVFrac float64
	// OldestWaitSeconds is the longest time any arrived request has
	// waited without producing its first token (zero when none wait).
	OldestWaitSeconds float64
	// Waiting is how many arrived requests have not yet produced their
	// first token; OldestArrival is the earliest such request's arrival
	// time (+Inf when Waiting is zero). Together they let a policy
	// compute its future wait-threshold crossings for NextEval.
	Waiting       int
	OldestArrival float64
}

// Autoscaler decides, at each scheduler decision boundary, whether the
// fleet's online decode-replica set should change. Implementations may
// keep state (cooldowns), so each Run needs a fresh instance.
type Autoscaler interface {
	// Scale returns how many replicas to provision (positive), drain
	// (negative), or zero to hold. The scheduler clamps the request to
	// what exists: provisioning stops at the standby pool, draining at
	// the idle online replicas.
	Scale(v AutoscaleView) int
}

// evalScheduler is the timer half of a time-sensitive autoscaler:
// after each Scale call the fleet asks when the policy next needs to be
// re-evaluated absent any other event — a cooldown expiring, the oldest
// wait crossing a threshold — and pushes an evScaleEval at that time
// through the DES heap. Scale decisions therefore fire only at
// heap-event boundaries (arrivals, completions, landings, timers),
// never at engine-call density, which is what makes autoscaled runs
// leap-invariant. Policies without time-dependent triggers (MaxScaler)
// simply do not implement it.
type evalScheduler interface {
	// NextEval returns the next absolute time (> v.Now) the policy
	// wants a re-evaluation, or +Inf when no timer is needed.
	NextEval(v AutoscaleView) float64
}

// SLOScaler is the default autoscaling policy: scale up when TTFT
// attainment is threatened — a request is held with nowhere to go, the
// oldest un-served wait crosses TTFTFraction of the TTFT SLO, or KV
// headroom is nearly gone with work still queued — and drain one idle
// replica at a time when the fleet is quiet. Both directions are
// cooldown-limited so one burst does not thrash the pool.
type SLOScaler struct {
	// TTFTFraction triggers scale-up when the oldest un-served request
	// has waited longer than this fraction of SLO.TTFT (ignored when
	// the SLO has no TTFT target).
	TTFTFraction float64
	// HeadroomLow triggers scale-up when the pooled free-KV fraction
	// falls below it while requests are queued.
	HeadroomLow float64
	// CooldownSeconds is the minimum gap between two scale-ups and
	// between two drains.
	CooldownSeconds float64

	lastUp, lastDown float64
}

// NewSLOScaler builds the default SLO-driven policy: scale up at half
// the TTFT budget or under 10% pooled KV headroom, drain when quiet,
// 4s cooldown each way.
func NewSLOScaler() *SLOScaler {
	return &SLOScaler{
		TTFTFraction:    0.5,
		HeadroomLow:     0.1,
		CooldownSeconds: 4,
		lastUp:          math.Inf(-1),
		lastDown:        math.Inf(-1),
	}
}

// Scale implements Autoscaler: +1 under SLO pressure, -1 when idle
// capacity sits in a quiet fleet, 0 otherwise.
func (s *SLOScaler) Scale(v AutoscaleView) int {
	if s.pressed(v) {
		// The cooldown paces ordinary ramping; once the oldest wait has
		// blown the whole TTFT budget the burst is outrunning that pace
		// and every decision boundary may bring a replica up.
		urgent := v.SLO.TTFT > 0 && v.OldestWaitSeconds > v.SLO.TTFT
		if v.Standby > 0 && (urgent || v.Now >= s.lastUp+s.CooldownSeconds) {
			s.lastUp = v.Now
			return 1
		}
		return 0
	}
	if quiet(v) && v.IdleOnline > 0 && v.Now >= s.lastDown+s.CooldownSeconds {
		s.lastDown = v.Now
		return -1
	}
	return 0
}

// pressed reports whether TTFT attainment is threatened: a request is
// held, the oldest un-served wait crossed TTFTFraction of the TTFT SLO,
// or KV headroom is nearly gone with work queued.
func (s *SLOScaler) pressed(v AutoscaleView) bool {
	return v.Held > 0 ||
		(v.SLO.TTFT > 0 && v.OldestWaitSeconds > s.TTFTFraction*v.SLO.TTFT) ||
		(v.FreeKVFrac < s.HeadroomLow && v.Queued > 0)
}

// quiet reports whether the fleet has nothing held, queued, warming or
// waiting.
func quiet(v AutoscaleView) bool {
	return v.Held == 0 && v.Queued == 0 && v.Warming == 0 && v.OldestWaitSeconds == 0
}

// NextEval implements evalScheduler: the earliest future time one of
// Scale's time-driven triggers can change its answer — the oldest
// waiting request crossing the TTFT-fraction (or full-TTFT urgency)
// threshold, a pressed fleet's scale-up cooldown expiring, or a quiet
// fleet's drain cooldown expiring. +Inf when none applies; every other
// trigger (held work, KV headroom, queue changes) moves only at heap
// events, which evaluate on their own.
func (s *SLOScaler) NextEval(v AutoscaleView) float64 {
	next := math.Inf(1)
	add := func(t float64) {
		if t > v.Now && t < next {
			next = t
		}
	}
	if v.Waiting > 0 && v.SLO.TTFT > 0 {
		add(v.OldestArrival + s.TTFTFraction*v.SLO.TTFT)
		add(v.OldestArrival + v.SLO.TTFT)
	}
	if s.pressed(v) && v.Standby > 0 {
		add(s.lastUp + s.CooldownSeconds)
	}
	if quiet(v) && v.IdleOnline > 0 {
		add(s.lastDown + s.CooldownSeconds)
	}
	return next
}

// MaxScaler provisions every standby replica at the first decision
// boundary and never drains — the all-capacity upper bound. With zero
// warm-up it reproduces the fixed fleet exactly (the regression suite
// pins that byte-identity), which is what anchors autoscaled runs to
// the fixed-fleet tables.
type MaxScaler struct{}

// Scale implements Autoscaler: bring everything online, keep it there.
func (MaxScaler) Scale(v AutoscaleView) int { return v.Standby }

// AutoscalerByName builds a fresh autoscaler instance from its CLI
// name.
func AutoscalerByName(name string) (Autoscaler, error) {
	switch name {
	case "slo":
		return NewSLOScaler(), nil
	case "max":
		return MaxScaler{}, nil
	default:
		return nil, fmt.Errorf("serve: unknown autoscaler %q (known: %v)", name, AutoscalerNames())
	}
}

// AutoscalerNames lists the selectable autoscaling policies in CLI
// order.
func AutoscalerNames() []string {
	return []string{"max", "slo"}
}
