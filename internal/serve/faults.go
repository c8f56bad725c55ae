// Fault injection on the DES spine: replica crashes, transient
// slowdowns and interconnect degradation, with deterministic timing and
// recovery (fleet mode only).
//
// A FaultPlan compiles into explicit evFail/evRecover events on the
// shared event heap before the first arrival dispatches: every fault
// chain owns a splitmix64 stream seeded from (plan seed, group,
// replica), draws exponential time-between-failure and time-to-repair
// intervals from it, and schedules each failure and recovery as a heap
// event. Failure timing is therefore a pure function of the plan — the
// same instants at any leap horizon, leap bound or sweep
// parallelism — and a zero plan compiles to nothing, leaving every
// fault-free table byte-identical.
//
// The three modes degrade different layers:
//
//   - FaultCrash: the replica leaves the online pool (stateFailed), its
//     KV is dropped, and every in-flight request is withdrawn to the
//     global retry path (Engine.FailAll). Each lost request gets a
//     per-request retry budget and deterministic exponential backoff;
//     retries re-admit through the recompute-charging path (the KV is
//     rebuilt where the request lands), and an exhausted budget marks
//     the request Failed in the report.
//   - FaultSlowdown: the replica's engine prices every iteration (and
//     recompute charge) Slowdown-times longer (Engine.SetTimeScale),
//     and its colocated prefill server slows by the same factor.
//     Degraded replicas are excluded from placement, stealing-into and
//     migration destinations — but stay stealable-from and drainable —
//     so work routes around slow machines while their admitted batch
//     limps on.
//   - FaultLink: every interconnect transfer (handoffs, migrations,
//     steals) prices LinkFactor-times longer fleet-wide, which re-prices
//     migration-vs-recompute decisions live.
//
// Concurrent faults compose: slowdown factors multiply per replica,
// link factors multiply fleet-wide, and a crash chain firing on an
// already-failed replica is a no-op (its recovery stream still
// advances, keeping the chain's draws stable).
package serve

import (
	"fmt"
	"math"
)

// FaultMode selects what a fault group or injection degrades.
type FaultMode int

const (
	// FaultCrash takes the replica offline, losing its KV and
	// withdrawing its in-flight requests to the retry path.
	FaultCrash FaultMode = iota
	// FaultSlowdown multiplies the replica's iteration and recompute
	// pricing by Slowdown while active.
	FaultSlowdown
	// FaultLink multiplies every interconnect transfer time by
	// LinkFactor while active (fabric-wide).
	FaultLink
)

// String names the mode as the -fault-mode CLI grammar spells it.
func (m FaultMode) String() string {
	switch m {
	case FaultCrash:
		return "crash"
	case FaultSlowdown:
		return "slow"
	case FaultLink:
		return "link"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// FaultModeByName parses a -fault-mode flag value.
func FaultModeByName(name string) (FaultMode, error) {
	switch name {
	case "crash":
		return FaultCrash, nil
	case "slow", "slowdown":
		return FaultSlowdown, nil
	case "link":
		return FaultLink, nil
	default:
		return 0, fmt.Errorf("serve: unknown fault mode %q (crash, slow, link)", name)
	}
}

// FaultGroup is one recurring failure process: every matching decode
// replica gets an independent fault chain alternating exponential
// up-intervals (mean MTBFSeconds) and down-intervals (mean
// MTTRSeconds), both drawn from the chain's own seeded stream.
type FaultGroup struct {
	// Spec selects which fleet spec's replicas the group covers (-1 =
	// every decode-capable replica). Prefill specs cannot fault.
	Spec int
	Mode FaultMode
	// MTBFSeconds is the mean up-time between failures (positive,
	// finite).
	MTBFSeconds float64
	// MTTRSeconds is the mean down-time per failure (finite, >= 0; zero
	// means instant recovery — for crashes, a pure KV-loss event).
	MTTRSeconds float64
	// Slowdown (finite, > 1) is the iteration-pricing factor while a
	// FaultSlowdown chain is down; ignored for other modes.
	Slowdown float64
	// LinkFactor (finite, > 1) is the interconnect transfer-time factor
	// while a FaultLink chain is down; ignored for other modes.
	LinkFactor float64
}

// Injection is one scripted fault: replica Replica degrades at At for
// exactly DurationSeconds. Oracle tests script single faults with it;
// experiments use Groups.
type Injection struct {
	// Replica indexes the decode-capable replicas in fleet construction
	// order (prefill servers are not in the index space).
	Replica         int
	Mode            FaultMode
	At              float64
	DurationSeconds float64
	Slowdown        float64
	LinkFactor      float64
}

// FaultPlan seeds a fleet run's fault injection. The zero value (and a
// nil plan) injects nothing and reproduces the fault-free run
// byte-for-byte.
type FaultPlan struct {
	// Seed roots every fault chain's splitmix64 stream.
	Seed uint64
	// Groups are recurring MTBF/MTTR failure processes.
	Groups []FaultGroup
	// Injections are scripted one-shot faults.
	Injections []Injection
	// MaxRetries is the per-request retry budget for requests lost to
	// crashes: negative = unlimited, 0 = a first loss is permanent.
	MaxRetries int
	// BackoffSeconds is the base of the deterministic exponential
	// backoff: a request's k-th retry re-enters routing
	// BackoffSeconds*2^(k-1) after the loss (zero = immediate).
	BackoffSeconds float64
}

// active reports whether the plan injects anything at all.
func (p *FaultPlan) active() bool {
	return p != nil && (len(p.Groups) > 0 || len(p.Injections) > 0)
}

// validate checks the plan against the fleet shape: specs is the
// Config.Fleet slice, decoders the decode-capable replica count.
func (p *FaultPlan) validate(specs []ReplicaSpec, decoders int) error {
	if p == nil {
		return nil
	}
	if !finiteNonNeg(p.BackoffSeconds) {
		return fmt.Errorf("serve: fault plan: BackoffSeconds must be non-negative and finite, got %g", p.BackoffSeconds)
	}
	checkMode := func(what string, i int, mode FaultMode, slowdown, link float64) error {
		switch mode {
		case FaultCrash:
		case FaultSlowdown:
			if !(slowdown > 1) || math.IsInf(slowdown, 1) {
				return fmt.Errorf("serve: fault %s %d: Slowdown must be finite and > 1, got %g", what, i, slowdown)
			}
		case FaultLink:
			if !(link > 1) || math.IsInf(link, 1) {
				return fmt.Errorf("serve: fault %s %d: LinkFactor must be finite and > 1, got %g", what, i, link)
			}
		default:
			return fmt.Errorf("serve: fault %s %d: unknown mode %d", what, i, int(mode))
		}
		return nil
	}
	for i, g := range p.Groups {
		if g.Spec < -1 || g.Spec >= len(specs) {
			return fmt.Errorf("serve: fault group %d: Spec %d outside [-1, %d)", i, g.Spec, len(specs))
		}
		if g.Spec >= 0 && specs[g.Spec].Role == RolePrefill {
			return fmt.Errorf("serve: fault group %d: spec %d is a prefill spec; faults cover decode-capable replicas only", i, g.Spec)
		}
		if !(g.MTBFSeconds > 0) || math.IsInf(g.MTBFSeconds, 1) {
			return fmt.Errorf("serve: fault group %d: MTBFSeconds must be positive and finite, got %g", i, g.MTBFSeconds)
		}
		if !finiteNonNeg(g.MTTRSeconds) {
			return fmt.Errorf("serve: fault group %d: MTTRSeconds must be non-negative and finite, got %g", i, g.MTTRSeconds)
		}
		if err := checkMode("group", i, g.Mode, g.Slowdown, g.LinkFactor); err != nil {
			return err
		}
	}
	for i, inj := range p.Injections {
		if inj.Replica < 0 || inj.Replica >= decoders {
			return fmt.Errorf("serve: fault injection %d: Replica %d outside [0, %d)", i, inj.Replica, decoders)
		}
		if !finiteNonNeg(inj.At) || !finiteNonNeg(inj.DurationSeconds) {
			return fmt.Errorf("serve: fault injection %d: At and DurationSeconds must be non-negative and finite, got %g and %g",
				i, inj.At, inj.DurationSeconds)
		}
		if err := checkMode("injection", i, inj.Mode, inj.Slowdown, inj.LinkFactor); err != nil {
			return err
		}
	}
	return nil
}

// FaultStats is the failure-and-recovery block of a Report (nil when
// the run injected no faults).
type FaultStats struct {
	// Crashes / Slowdowns / LinkDegradations count applied fault events
	// by mode (a crash chain firing on an already-down replica applies
	// nothing and counts nothing).
	Crashes          int
	Slowdowns        int
	LinkDegradations int
	// Retries counts re-admissions of crash-lost requests; Failed
	// counts requests whose retry budget ran out (they are excluded
	// from latency samples and token counts but still count against
	// SLO attainment).
	Retries int
	Failed  int
	// LostKVBytes totals the live KV dropped by crashes.
	LostKVBytes int64
	// DowntimeSeconds integrates every applied fault's down interval
	// (crash outages plus degraded intervals).
	DowntimeSeconds float64
}

// faultChain is one compiled failure process: a replica, a mode, and
// the private RNG stream its intervals are drawn from.
type faultChain struct {
	replica int
	mode    FaultMode
	// factor is the slowdown or link multiplier while down.
	factor float64
	// mtbf/mttr are the draw means; oneshot chains (Injections) fire
	// once at a scripted time for a scripted duration instead.
	mtbf, mttr float64
	oneshot    bool
	duration   float64
	// state is the splitmix64 stream position.
	state uint64
	// applied marks a chain currently holding its fault on the fleet
	// (a crash chain that fired on a non-online replica applies
	// nothing); failedAt is when it was applied.
	applied  bool
	failedAt float64
}

// next advances the chain's splitmix64 stream one position.
func (c *faultChain) next() uint64 {
	c.state += 0x9e3779b97f4a7c15
	z := c.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// exp draws an exponential interval with the given mean. The stream
// advances even when the mean is zero, so a chain's later draws do not
// depend on which earlier faults applied.
func (c *faultChain) exp(mean float64) float64 {
	u := float64(c.next()>>11) * (1.0 / (1 << 53))
	return -mean * math.Log(1-u)
}

// downFor is the chain's next down-interval length.
func (c *faultChain) downFor() float64 {
	if c.oneshot {
		return c.duration
	}
	return c.exp(c.mttr)
}

// initFaults compiles the plan into chains and pushes each chain's
// first evFail. Group chains start their up-interval at the first
// arrival (machines are healthy when traffic starts); injections fire
// at their scripted time.
func (fs *fleetSim) initFaults() {
	p := fs.cfg.Faults
	if !p.active() {
		return
	}
	fs.slowStack = make([][]*faultChain, len(fs.decoders))
	fs.icScale = 1
	fs.fstats = &FaultStats{}
	for gi, g := range p.Groups {
		for di, d := range fs.decoders {
			if g.Spec >= 0 && d.spec != g.Spec {
				continue
			}
			c := &faultChain{
				replica: di, mode: g.Mode, mtbf: g.MTBFSeconds, mttr: g.MTTRSeconds,
				factor: g.Slowdown,
				state:  p.Seed + uint64(gi)*0x9e3779b97f4a7c15 + uint64(di)*0x517cc1b727220a95,
			}
			if g.Mode == FaultLink {
				c.factor = g.LinkFactor
			}
			fs.chains = append(fs.chains, c)
			fs.push(evFail, nil, len(fs.chains)-1, di, fs.firstArrival+c.exp(c.mtbf))
		}
	}
	for _, inj := range p.Injections {
		c := &faultChain{
			replica: inj.Replica, mode: inj.Mode, factor: inj.Slowdown,
			oneshot: true, duration: inj.DurationSeconds,
		}
		if inj.Mode == FaultLink {
			c.factor = inj.LinkFactor
		}
		fs.chains = append(fs.chains, c)
		fs.push(evFail, nil, len(fs.chains)-1, inj.Replica, inj.At)
	}
}

// degraded reports whether replica i currently runs under a slowdown
// fault (excluded from placement, steal-into and migration targets).
func (fs *fleetSim) degraded(i int) bool {
	return fs.slowStack != nil && len(fs.slowStack[i]) > 0
}

// slowFactor is replica i's current iteration-pricing multiplier: the
// product of its active slowdown chains' factors (1 when healthy).
func (fs *fleetSim) slowFactor(i int) float64 {
	f := 1.0
	if fs.slowStack != nil {
		for _, c := range fs.slowStack[i] {
			f *= c.factor
		}
	}
	return f
}

// applySlow re-derives replica i's slowdown product from its chain
// stack (recomputed in stack order, never divided out, so repeated
// fault/recover cycles cannot drift) and installs it on the engine and
// the colocated prefill server.
func (fs *fleetSim) applySlow(i int) {
	f := fs.slowFactor(i)
	d := fs.decoders[i]
	d.eng.SetTimeScale(f)
	if d.pre != nil {
		if f != 1 {
			d.pre.slow = f
		} else {
			d.pre.slow = 0
		}
	}
	fs.touch(i)
}

// applyLink re-derives the fleet-wide interconnect factor from the
// active link chains.
func (fs *fleetSim) applyLink() {
	f := 1.0
	for _, c := range fs.linkStack {
		f *= c.factor
	}
	fs.icScale = f
}

// transferSeconds prices one interconnect transfer under the current
// link degradation.
func (fs *fleetSim) transferSeconds(bytes int64) float64 {
	t := fs.ic.TransferSeconds(bytes)
	if fs.icScale > 1 {
		t *= fs.icScale
	}
	return t
}

// applyFault applies one fired chain at its timestamp.
func (fs *fleetSim) applyFault(c *faultChain, at float64) error {
	switch c.mode {
	case FaultCrash:
		i := c.replica
		if fs.state[i] != stateOnline {
			return nil // only serving replicas crash; the chain still re-arms
		}
		d := fs.decoders[i]
		lost, liveKV, err := d.eng.FailAll()
		if err != nil {
			return err
		}
		// setState's exit-online branch subtracts the replica's cached
		// view contributions (its pre-crash load), so the aggregates stay
		// consistent without an intermediate touch.
		fs.setState(i, stateFailed)
		c.applied, c.failedAt = true, at
		fs.fstats.Crashes++
		fs.fstats.LostKVBytes += liveKV
		// Close the online interval: downtime is not billed as capacity.
		since := fs.onlineSince[i]
		if since < fs.firstArrival {
			since = fs.firstArrival
		}
		if at > since {
			fs.onlineSecs[i] += at - since
		}
		for _, l := range lost {
			if err := fs.retryOrFail(fs.recs[l.Req.ID], l.Gen, at); err != nil {
				return err
			}
		}
		// The crash is a capacity-loss boundary: let the autoscaler
		// provision a replacement before the retries land.
		fs.autoscale(at)
	case FaultSlowdown:
		c.applied, c.failedAt = true, at
		fs.fstats.Slowdowns++
		fs.slowStack[c.replica] = append(fs.slowStack[c.replica], c)
		fs.applySlow(c.replica)
	case FaultLink:
		c.applied, c.failedAt = true, at
		fs.fstats.LinkDegradations++
		fs.linkStack = append(fs.linkStack, c)
		fs.applyLink()
	}
	return nil
}

// clearFault ends one applied chain's down interval at its timestamp.
func (fs *fleetSim) clearFault(c *faultChain, at float64) {
	if !c.applied {
		return
	}
	c.applied = false
	fs.fstats.DowntimeSeconds += at - c.failedAt
	switch c.mode {
	case FaultCrash:
		i := c.replica
		// Manual restore, not setOnline: recovery is not a scale event
		// (the timeline and ScaleUps count autoscaler actions only).
		fs.setState(i, stateOnline)
		fs.onlineSince[i] = at
		if d := fs.decoders[i]; d.eng.Idle() && d.clock < at {
			d.clock = at
		}
	case FaultSlowdown:
		stack := fs.slowStack[c.replica]
		for k, sc := range stack {
			if sc == c {
				fs.slowStack[c.replica] = append(stack[:k], stack[k+1:]...)
				break
			}
		}
		fs.applySlow(c.replica)
	case FaultLink:
		for k, lc := range fs.linkStack {
			if lc == c {
				fs.linkStack = append(fs.linkStack[:k], fs.linkStack[k+1:]...)
				break
			}
		}
		fs.applyLink()
	}
}

// retryOrFail routes one crash-lost request: within budget it schedules
// an evRetry after the deterministic exponential backoff (gen tokens of
// progress ride along for the recompute), out of budget it is marked
// permanently failed.
func (fs *fleetSim) retryOrFail(rec *record, gen int, at float64) error {
	p := fs.cfg.Faults
	rec.retries++
	if p.MaxRetries >= 0 && rec.retries > p.MaxRetries {
		rec.failed = true
		fs.fstats.Failed++
		fs.finished++
		delete(fs.waiting, rec.req.ID) // no-op for fixed fleets (nil map)
		return nil
	}
	fs.fstats.Retries++
	backoff := p.BackoffSeconds
	for k := 1; k < rec.retries; k++ {
		backoff *= 2
	}
	fs.push(evRetry, rec, gen, -1, at+backoff)
	return nil
}

// faultQuiescent reports whether nothing but fault timers can ever run
// again: no chain applied, every decoder idle, and no arrival or
// progress-making event still to come (pendingProgress). In that state
// no future event changes placement capacity upward, so a non-empty
// held queue must either be resolved by idleWork's backstop or is a
// permanent stall — without the check, an eternal fault chain would
// keep a stalled simulation spinning forever.
func (fs *fleetSim) faultQuiescent() bool {
	for _, c := range fs.chains {
		if c.applied {
			return false
		}
	}
	for _, d := range fs.decoders {
		if !d.eng.Idle() {
			return false
		}
	}
	return !fs.pendingProgress()
}
