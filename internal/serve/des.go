// The discrete-event spine shared by the classic load-balanced
// simulator (serve.go) and the heterogeneous fleet simulator
// (fleet.go). Both paths run the same loop over one priority heap of
// typed events — prefill handoffs, migration and steal landings,
// lifecycle, fault and scale timers, and replica-ready ticks — merged
// with a cursor over the arrival schedule, and every replica keeps an
// independent clock. What differs between the paths is only the
// synchronization discipline: how far other replicas must have
// simulated before an event may be dispatched. A replica synchronizes
// exactly when the scheduler genuinely observes cross-replica state,
// and never otherwise:
//
//   - syncBarrier (classic, load-aware policy): routing reads every
//     replica's live queue state, so all replicas advance to the
//     arrival time before it dispatches. Replicas share no state
//     between events, so the barrier advance runs them concurrently
//     (internal/sweep) with byte-identical results at any parallelism.
//   - syncLazy (classic, LoadOblivious policy): routing reads nothing,
//     so only the destination replica advances to the arrival time —
//     the others keep simulating in larger leaps and catch up when
//     they are next routed to (or at drain). Exact by the
//     leap-partitioning argument below.
//   - syncInterleaved (fleet): the global scheduler reacts to every
//     engine-call boundary (preemptions become migrations, completions
//     free headroom for held requests, idle replicas steal), so busy
//     replicas advance one engine call at a time in global clock
//     order. Each busy replica owns one evReady entry at its clock;
//     popping it advances that replica bounded by the next pending
//     entry, which is exactly "the earliest pending event or the
//     next-lagging replica's clock, whichever comes first".
//
// The heap holds only events in flight, so a push or pop costs the
// logarithm of the work in flight, not of the schedule. Arrivals never
// enter it: the schedule is validated and sorted before the run, and a
// cursor over it is merged with the heap top, an arrival dispatching
// ahead of any heap entry at its own time — exactly where the run's
// lowest sequence numbers would sort it had the whole schedule been
// pushed first. Each replica's evReady entry is one reusable heap entry
// that wake moves in place (heap.Fix), so re-arming leaves no stale
// entry behind.
//
// Exactness. Every per-token timestamp is bit-identical across
// disciplines and leap granularities because engine advancement
// composes: cluster.Engine.Leap prices the same per-iteration sequence
// of (batch, tokens) no matter where the until clamp partitions it,
// and tracker.apply replays IterSeconds one float addition at a time
// in iteration order. A partition boundary inserted where no enqueue,
// admission or retirement happens (the only thing lazy advancement
// removes) therefore changes which Leap call prices an iteration, but
// never what the iteration costs or when it ends. The equivalence
// suite (equiv_test.go) pins this across backends, allocators,
// policies, horizons and sweep parallelism.
package serve

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"pimphony/internal/cluster"
	"pimphony/internal/sweep"
	"pimphony/internal/workload"
)

// eventKind labels one entry in the spine's heap.
type eventKind int

const (
	// evArrival: a request enters the system at its schedule time. The
	// spine's arrival cursor dispatches these; they are never queued.
	evArrival eventKind = iota
	// evHandoff: a prompt prefill finished and (for disaggregated
	// fleets) its KV landed; the request is ready to decode.
	evHandoff
	// evMigrated: a preempted request's live KV landed on its migration
	// destination.
	evMigrated
	// evStolen: a stolen queued request's prompt KV landed on the idle
	// replica that pulled it.
	evStolen
	// evProvision: an autoscaled standby replica's warm-up finished; it
	// joins the online pool at this timestamp (fleet autoscaling only,
	// see autoscale.go). dst is the replica index.
	evProvision
	// evDrain: the autoscaler retired an idle online replica; it leaves
	// the online pool at this timestamp (fleet autoscaling only). dst
	// is the replica index.
	evDrain
	// evReady: a busy replica's next engine-call boundary — its clock.
	// Popping it advances that replica by one (horizon-clamped) engine
	// call; a leap cut short by Engine.SetHorizon simply re-arms the
	// entry at the new clock, so horizon expiry needs no separate
	// bookkeeping. Only the interleaved discipline arms these.
	evReady
	// evFail: a fault chain fires on a replica (crash, transient
	// slowdown or link degradation; see faults.go). gen is the chain
	// index, dst the replica (fleet fault injection only).
	evFail
	// evRecover: a fault chain's down interval ends; the replica (or
	// the fabric) returns to health and the chain re-arms its next
	// failure. gen is the chain index, dst the replica.
	evRecover
	// evRetry: a request lost to a crash re-enters routing after its
	// deterministic backoff. gen carries the tokens it had generated
	// before the loss (recomputed on re-admission).
	evRetry
	// evScaleEval: an autoscaler-requested re-evaluation deadline
	// (cooldown expiry, oldest-wait threshold crossing). Explicit timer
	// events are what make autoscaled runs leap-invariant: scale
	// decisions fire at heap-event boundaries, which are identical at
	// every leap granularity, instead of at engine-call density.
	evScaleEval
)

// event is one scheduled entry in the spine's heap.
type event struct {
	at   float64
	seq  int // push order among non-ready events; FIFO tie-break
	kind eventKind
	rec  *record
	arr  workload.Arrival // evArrival: the arrival being routed
	gen  int              // evMigrated: tokens already generated (migration progress)
	dst  int              // target decoder index; -1 = placement decides at dispatch

	// replica owns an evReady entry. index is the entry's heap slot (-1
	// while it is not queued), kept current by the queue so wake can move
	// a queued entry in place.
	replica int
	index   int
}

// eventQueue is a min-heap on (at, kind class, seq | replica): at equal
// timestamps global events dispatch before any replica advances past
// them (the scheduler must see the event at that boundary), events keep
// FIFO push order among themselves, and ready entries tie-break to the
// lowest replica index — the same total order the sequential
// lagging-replica scan produced.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if ar, br := a.kind == evReady, b.kind == evReady; ar != br {
		return br // the non-ready event first
	}
	if a.kind == evReady {
		return a.replica < b.replica
	}
	return a.seq < b.seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// syncMode selects the spine's synchronization discipline.
type syncMode int

const (
	syncBarrier syncMode = iota
	syncLazy
	syncInterleaved
)

// scheduler is the policy half a simulator plugs into the spine: how
// events are applied and how the global scheduler reacts to progress.
// The spine owns when replicas advance; the scheduler owns where work
// goes.
type scheduler interface {
	// dispatch applies one popped non-ready event at its timestamp.
	dispatch(ctx context.Context, e *event) error
	// onStep reacts to one replica engine call (the fleet scheduler
	// turns preemptions into migrations here).
	onStep(replica int, res cluster.StepResult) error
	// react runs after every engine call and event dispatch, at that
	// boundary's time (the fleet scheduler retries held requests and
	// considers steals here).
	react(now float64) error
	// idleWork runs when the heap is drained and every replica is
	// idle; it reports whether new work was created (the fleet's held
	// queue being retried) or the simulation is complete.
	idleWork() (bool, error)
}

// spine is the discrete-event core: the per-request tracker, the
// replica set with independent clocks, the event heap and the cursor
// over the arrival schedule.
type spine struct {
	tracker
	replicas []*replica
	sync     syncMode
	sched    scheduler
	events   eventQueue
	seq      int
	// arrivals is the validated schedule, sorted by time; cursor indexes
	// the first arrival not yet dispatched, and arrival is the entry each
	// one is dispatched through (reused, so a dispatched arrival leaves
	// nothing behind).
	arrivals []workload.Arrival
	cursor   int
	arrival  event
	// ready holds each replica's one evReady entry (interleaved only).
	ready []event
	// clock is the scheduler's notion of now: the latest dispatched
	// event time.
	clock float64
}

// schedule validates a timed arrival schedule — sorted by At, unique
// request IDs — records every request (one allocation for all of them)
// and points the arrival cursor at its head.
func (s *spine) schedule(arrivals []workload.Arrival) error {
	recs := make([]record, len(arrivals))
	for i, a := range arrivals {
		if i > 0 && a.At < arrivals[i-1].At {
			return fmt.Errorf("serve: arrivals not sorted at %d (%g after %g)", i, a.At, arrivals[i-1].At)
		}
		if _, dup := s.recs[a.Req.ID]; dup {
			return fmt.Errorf("serve: duplicate request ID %d in schedule", a.Req.ID)
		}
		recs[i] = record{req: a.Req, arrival: a.At, replica: -1}
		s.recs[a.Req.ID] = &recs[i]
	}
	s.arrivals, s.cursor = arrivals, 0
	return nil
}

// arrivalPending reports whether the schedule still holds an arrival
// the cursor has not dispatched.
func (s *spine) arrivalPending() bool { return s.cursor < len(s.arrivals) }

// arrivalFirst reports whether the cursor's next arrival is the
// earliest pending entry. It sorts ahead of any heap entry at its own
// time: ready entries yield to every global event, and arrivals hold
// the lowest sequence numbers of the run.
func (s *spine) arrivalFirst() bool {
	return s.arrivalPending() && (len(s.events) == 0 || s.arrivals[s.cursor].At <= s.events[0].at)
}

// nextAt is the time of the earliest pending entry, heap or cursor
// (+Inf when there is none).
func (s *spine) nextAt() float64 {
	t := math.Inf(1)
	if len(s.events) > 0 {
		t = s.events[0].at
	}
	if s.arrivalPending() && s.arrivals[s.cursor].At < t {
		t = s.arrivals[s.cursor].At
	}
	return t
}

// push schedules a handoff/migration/steal landing.
func (s *spine) push(kind eventKind, rec *record, gen, dst int, at float64) {
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, kind: kind, rec: rec, gen: gen, dst: dst})
}

// wake arms replica i's ready entry at its current clock, moving the
// entry in place when it is already queued. Call it whenever a replica
// gains work or its clock moves; arming an already-armed replica is
// safe. Only the interleaved discipline uses ready entries.
func (s *spine) wake(i int) {
	if s.sync != syncInterleaved || s.replicas[i].eng.Idle() {
		return
	}
	e := &s.ready[i]
	e.at = s.replicas[i].clock
	if e.index < 0 {
		heap.Push(&s.events, e)
		return
	}
	heap.Fix(&s.events, e.index)
}

// busyCount reports how many replicas still hold work.
func (s *spine) busyCount() int {
	n := 0
	for _, r := range s.replicas {
		if !r.eng.Idle() {
			n++
		}
	}
	return n
}

// syncIdle jumps idle replicas' clocks forward to t (never backward).
func (s *spine) syncIdle(t float64) {
	for _, r := range s.replicas {
		if r.eng.Idle() && r.clock < t {
			r.clock = t
		}
	}
}

// advanceAll advances every replica up to time t. Replicas share no
// state between events, so they advance concurrently through the sweep
// engine; every load snapshot — and therefore every table — is
// byte-identical to the sequential loop at any parallelism.
func (s *spine) advanceAll(ctx context.Context, t float64) error {
	if len(s.replicas) == 1 {
		return s.advance(ctx, s.replicas[0], t)
	}
	_, err := sweep.Run(ctx, s.replicas, func(ctx context.Context, r *replica) (struct{}, error) {
		return struct{}{}, s.advance(ctx, r, t)
	})
	return err
}

// run is the event loop. It takes the globally earliest entry — the
// cursor's next arrival or the heap top: a ready entry advances its
// replica by one engine call bounded by the next entry, a global event
// is dispatched once the discipline's synchronization requirement holds
// — by construction for interleaved mode (a lagging busy replica's
// ready entry sorts first), by an explicit concurrent barrier advance
// for barrier mode, and vacuously for lazy mode (the dispatch advances
// its destination itself).
func (s *spine) run(ctx context.Context) error {
	for {
		var e *event
		switch {
		case s.arrivalFirst():
			a := &s.arrivals[s.cursor]
			s.arrival = event{at: a.At, kind: evArrival, rec: s.recs[a.Req.ID], arr: *a, dst: -1}
			s.cursor++
			e = &s.arrival
		case len(s.events) > 0:
			e = heap.Pop(&s.events).(*event)
		default:
			if n := s.busyCount(); n > 0 {
				if s.sync == syncInterleaved {
					return fmt.Errorf("serve: event heap drained with %d replicas still busy", n)
				}
				// Classic drain: no more arrivals, run everything out.
				if err := s.advanceAll(ctx, math.Inf(1)); err != nil {
					return err
				}
			}
			made, err := s.sched.idleWork()
			if err != nil || !made {
				return err
			}
			continue
		}
		if e.kind == evReady {
			if err := s.advanceReady(ctx, e); err != nil {
				return err
			}
			continue
		}
		if s.sync == syncBarrier {
			if err := s.advanceAll(ctx, e.at); err != nil {
				return err
			}
		}
		if e.at < s.clock {
			return fmt.Errorf("serve: event kind %d at t=%g fired behind the scheduler clock t=%g", int(e.kind), e.at, s.clock)
		}
		if e.at > s.clock {
			s.clock = e.at
		}
		// Interleaved mode pulls idle clocks lazily at their use sites
		// (enqueue, resume, provision, the []FleetLoad snapshot) instead
		// of sweeping all n replicas on every event — the sweep is the
		// one per-event cost that grows with fleet size. The classic
		// disciplines keep the eager sync: their policies see Load.Clock
		// for every replica on every pick.
		if s.sync != syncInterleaved {
			s.syncIdle(e.at)
		}
		if err := s.sched.dispatch(ctx, e); err != nil {
			return err
		}
		if err := s.sched.react(e.at); err != nil {
			return err
		}
	}
}

// advanceReady runs one popped ready entry: its replica advances by one
// engine call bounded by the next pending entry — the earliest event,
// arrival or next-lagging replica's clock — and the scheduler reacts to
// the step. The entry of a replica that drained since it was armed
// (withdrawn or crashed) is dropped; wake pushes it again when work
// returns.
func (s *spine) advanceReady(ctx context.Context, e *event) error {
	d := s.replicas[e.replica]
	if d.eng.Idle() {
		return nil
	}
	// DES invariants, checked on every pop: a ready entry sits exactly
	// at its replica's clock (wake re-arms on every clock move, so a
	// mismatch means a replica advanced without re-arming), and no entry
	// fires behind the scheduler clock (the heap dispatched something out
	// of order).
	if e.at != d.clock {
		return fmt.Errorf("serve: replica %d ready entry at t=%g fired off its clock t=%g", e.replica, e.at, d.clock)
	}
	if e.at < s.clock {
		return fmt.Errorf("serve: replica %d ready entry at t=%g fired behind the scheduler clock t=%g", e.replica, e.at, s.clock)
	}
	before := d.clock
	res, err := s.step(ctx, d, s.nextAt())
	if err != nil {
		return err
	}
	// A stall — no iteration ran, nothing drained, the clock did not
	// move — would re-arm this entry at the same timestamp forever (the
	// classic symptom: a stolen or misplaced request queued on a replica
	// that can never admit it). Fail loudly instead of spinning.
	if res.Batch == 0 && !d.eng.Idle() && d.clock == before {
		return fmt.Errorf("serve: replica %d stalled at t=%g with %d queued requests it cannot admit",
			e.replica, d.clock, d.eng.Pending())
	}
	s.wake(e.replica)
	if err := s.sched.onStep(e.replica, res); err != nil {
		return err
	}
	return s.sched.react(d.clock)
}
