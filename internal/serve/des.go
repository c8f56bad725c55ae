// The discrete-event spine under the serving simulator. Every run —
// the Config{System, Replicas, Policy} shorthand and every explicit
// fleet — plays out on one loop over three sources of work, each
// replica keeping an independent clock:
//
//   - the arrival cursor, over the validated, time-sorted schedule;
//   - the event heap: prefill handoffs, migration and steal landings,
//     lifecycle, fault, retry and scale timers;
//   - the ready heap: one entry per busy replica at its clock, ordered
//     by clock and then replica index.
//
// The next global entry is the cursor or the event-heap top, found
// without a scan. At equal timestamps the cursor goes first (arrivals
// hold the lowest sequence numbers of the run), then global events in
// push order, then ready entries: the scheduler sees every event at
// that boundary before any replica advances past it. A global entry
// dispatches once every busy replica stands at its first iteration
// boundary at or after the entry's time — by construction, since ready
// entries behind it pop first.
//
// Popping a ready entry advances its replica by one engine call, and
// the bound of that call comes from the scheduler:
//
//   - Decoupled: the scheduler cannot act on one replica in reaction to
//     another's engine call — no migration or stealing over a usable
//     interconnect, no autoscaler, and no held request waiting for
//     headroom. Replicas then share no state between global events, so
//     the replica leaps straight to the next global entry.
//   - Coupled: otherwise the scheduler reacts to every engine-call
//     boundary (preemptions become migrations, completions free
//     headroom for held requests, idle replicas steal), so the replica
//     leaps only to the next entry of either heap — the next global
//     entry or the next-lagging replica's clock — and busy replicas
//     advance in global clock order.
//
// The bound is re-derived at every pop, so a run flips between the two
// as its held queue fills and drains.
//
// The heaps hold only work in flight, so a push or pop costs the
// logarithm of the work in flight, not of the schedule. Each replica's
// ready entry is one reusable entry that wake moves in place
// (heap.Fix), so re-arming leaves no stale entry behind.
//
// Exactness. Every per-token timestamp is bit-identical across leap
// bounds and granularities because engine advancement composes:
// cluster.Engine.Leap prices the same per-iteration sequence of (batch,
// tokens) no matter where the until clamp partitions it, and
// tracker.apply replays IterSeconds one float addition at a time in
// iteration order. A partition boundary inserted where no enqueue,
// admission or retirement happens (the only thing a shorter bound
// adds) therefore changes which Leap call prices an iteration, but
// never what the iteration costs or when it ends. Single stepping
// (Config.SingleStep) prices one iteration per pop in global clock
// order whatever the bound, which makes it the reference. The
// equivalence suite (equiv_test.go) pins this across backends,
// allocators, placements, horizons and sweep parallelism.
package serve

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"pimphony/internal/cluster"
	"pimphony/internal/workload"
)

// eventKind labels one spine entry.
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
	// Ready entries live in the ready heap, never the event heap.
	// Popping one advances that replica by one (horizon-clamped) engine
	// call; a leap cut short by Engine.SetHorizon simply re-arms the
	// entry at the new clock, so horizon expiry needs no separate
	// bookkeeping.
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

// event is one spine entry.
type event struct {
	at float64
	// seq breaks ties at equal at: push order among global events
	// (FIFO), the replica index for ready entries.
	seq  int
	kind eventKind
	rec  *record
	gen  int // evMigrated: tokens already generated (migration progress)
	// dst is the target decoder index (-1 = placement decides at
	// dispatch), or the replica a ready entry belongs to.
	dst int
	// index is the entry's heap slot (-1 while it is not queued), kept
	// current by the queue so wake can move a queued entry in place.
	index int
}

// eventQueue is a min-heap on (at, seq). The event heap and the ready
// heap are both eventQueues: the first orders global events by time and
// then push order, the second ready entries by clock and then replica
// index.
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
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

// scheduler is the policy half plugged into the spine: how events are
// applied and how the global scheduler reacts to progress. The spine
// owns when replicas advance; the scheduler owns where work goes.
type scheduler interface {
	// dispatch applies one global event at its timestamp.
	dispatch(ctx context.Context, e *event) error
	// onStep reacts to one replica engine call (the fleet scheduler
	// turns preemptions into migrations here).
	onStep(replica int, res cluster.StepResult) error
	// react runs after every engine call and event dispatch, at that
	// boundary's time (the fleet scheduler retries held requests and
	// considers steals here).
	react(now float64) error
	// coupled reports whether onStep or react may act on one replica in
	// reaction to another's engine call before the next global event.
	// While it is false a ready replica leaps straight to the next
	// global entry.
	coupled() bool
	// idleWork runs when no entry is left and every replica is idle; it
	// reports whether new work was created (the fleet's held queue being
	// retried) or the simulation is complete.
	idleWork() (bool, error)
}

// spine is the discrete-event core: the per-request tracker, the
// replica set with independent clocks, the two heaps and the cursor
// over the arrival schedule.
type spine struct {
	tracker
	replicas []*replica
	sched    scheduler
	// events holds the global events in flight; seq numbers them in
	// push order.
	events eventQueue
	seq    int
	// ready holds one entry per busy replica, at its clock; readyAt is
	// the backing store, one reusable entry per replica.
	ready   eventQueue
	readyAt []event
	// arrivals is the validated schedule, sorted by time; cursor indexes
	// the first arrival not yet dispatched, and arrival is the entry each
	// one is dispatched through (reused, so a dispatched arrival leaves
	// nothing behind).
	arrivals []workload.Arrival
	cursor   int
	arrival  event
	// clock is the scheduler's notion of now: the latest dispatched
	// event time.
	clock float64
}

// initReady gives every replica its ready entry, not yet queued.
func (s *spine) initReady() {
	s.readyAt = make([]event, len(s.replicas))
	for i := range s.readyAt {
		s.readyAt[i] = event{kind: evReady, seq: i, dst: i, index: -1}
	}
}

// schedule validates a timed arrival schedule — finite times sorted by
// At, unique request IDs — records every request (one allocation for
// all of them) and points the arrival cursor at its head.
func (s *spine) schedule(arrivals []workload.Arrival) error {
	recs := make([]record, len(arrivals))
	for i, a := range arrivals {
		if math.IsNaN(a.At) || math.IsInf(a.At, 0) {
			return fmt.Errorf("serve: arrival %d at non-finite time %g", i, a.At)
		}
		if i > 0 && a.At < arrivals[i-1].At {
			return fmt.Errorf("serve: arrivals not sorted at %d (%g after %g)", i, a.At, arrivals[i-1].At)
		}
		if _, dup := s.recs[a.Req.ID]; dup {
			return fmt.Errorf("serve: duplicate request ID %d in schedule", a.Req.ID)
		}
		recs[i] = record{req: a.Req, arrival: a.At, session: a.Session, replica: -1}
		s.recs[a.Req.ID] = &recs[i]
	}
	s.arrivals, s.cursor = arrivals, 0
	return nil
}

// arrivalPending reports whether the schedule still holds an arrival
// the cursor has not dispatched.
func (s *spine) arrivalPending() bool { return s.cursor < len(s.arrivals) }

// nextGlobal is the time of the next global entry — the cursor's next
// arrival or the event-heap top, whichever is earlier (the cursor on a
// tie) — and whether that entry is the arrival. It is +Inf when neither
// holds an entry.
func (s *spine) nextGlobal() (at float64, arrival bool) {
	at = math.Inf(1)
	if len(s.events) > 0 {
		at = s.events[0].at
	}
	if s.arrivalPending() && s.arrivals[s.cursor].At <= at {
		return s.arrivals[s.cursor].At, true
	}
	return at, false
}

// push schedules a global event.
func (s *spine) push(kind eventKind, rec *record, gen, dst int, at float64) {
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, kind: kind, rec: rec, gen: gen, dst: dst})
}

// wake keeps replica i's ready entry in step with its engine: armed at
// its clock while it holds work (moved in place when already queued),
// taken off the ready heap once it is idle. Call it whenever a replica
// gains work or its clock moves; waking an armed replica is safe.
func (s *spine) wake(i int) {
	e := &s.readyAt[i]
	if s.replicas[i].eng.Idle() {
		if e.index >= 0 {
			heap.Remove(&s.ready, e.index)
		}
		return
	}
	e.at = s.replicas[i].clock
	if e.index < 0 {
		heap.Push(&s.ready, e)
		return
	}
	heap.Fix(&s.ready, e.index)
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

// run is the event loop. Each turn takes the earliest entry: a ready
// entry strictly before the next global entry advances its replica, and
// otherwise the global entry — the cursor's next arrival or the
// event-heap top — is dispatched. With every source empty the
// scheduler's idleWork decides whether the run is over.
func (s *spine) run(ctx context.Context) error {
	for {
		at, arrival := s.nextGlobal()
		if len(s.ready) > 0 && s.ready[0].at < at {
			if err := s.advanceReady(ctx, at); err != nil {
				return err
			}
			continue
		}
		var e *event
		switch {
		case arrival:
			a := &s.arrivals[s.cursor]
			s.arrival = event{at: a.At, kind: evArrival, rec: s.recs[a.Req.ID], dst: -1}
			s.cursor++
			e = &s.arrival
		case len(s.events) > 0:
			e = heap.Pop(&s.events).(*event)
		default:
			if n := s.busyCount(); n > 0 {
				return fmt.Errorf("serve: spine drained with %d replicas still busy", n)
			}
			made, err := s.sched.idleWork()
			if err != nil || !made {
				return err
			}
			continue
		}
		if e.at < s.clock {
			return fmt.Errorf("serve: event kind %d at t=%g fired behind the scheduler clock t=%g", int(e.kind), e.at, s.clock)
		}
		s.clock = e.at
		if err := s.sched.dispatch(ctx, e); err != nil {
			return err
		}
		if err := s.sched.react(e.at); err != nil {
			return err
		}
	}
}

// advanceReady runs the ready-heap top: its replica advances by one
// engine call bounded by the next global entry (global is its time) —
// and, while the scheduler is coupled, by the next-lagging replica's
// clock — then the scheduler reacts to the step. The entry of a replica
// that drained since it was armed (withdrawn or crashed) is dropped;
// wake queues it again when work returns.
func (s *spine) advanceReady(ctx context.Context, global float64) error {
	e := s.ready[0]
	i := e.dst
	d := s.replicas[i]
	if d.eng.Idle() {
		heap.Pop(&s.ready)
		return nil
	}
	// DES invariants, checked on every pop: a ready entry sits exactly
	// at its replica's clock (wake re-arms on every clock move, so a
	// mismatch means a replica advanced without re-arming), and no entry
	// fires behind the scheduler clock (a heap dispatched something out
	// of order).
	if e.at != d.clock {
		return fmt.Errorf("serve: replica %d ready entry at t=%g fired off its clock t=%g", i, e.at, d.clock)
	}
	if e.at < s.clock {
		return fmt.Errorf("serve: replica %d ready entry at t=%g fired behind the scheduler clock t=%g", i, e.at, s.clock)
	}
	until := global
	if s.sched.coupled() {
		// The next-lagging replica is the smaller child of the top.
		for _, c := range [2]int{1, 2} {
			if c < len(s.ready) && s.ready[c].at < until {
				until = s.ready[c].at
			}
		}
	}
	before := d.clock
	res, err := s.step(ctx, d, until)
	if err != nil {
		return err
	}
	// A stall — no iteration ran, nothing drained, the clock did not
	// move — would re-arm this entry at the same timestamp forever (the
	// classic symptom: a stolen or misplaced request queued on a replica
	// that can never admit it). Fail loudly instead of spinning.
	if res.Batch == 0 && !d.eng.Idle() && d.clock == before {
		return fmt.Errorf("serve: replica %d stalled at t=%g with %d queued requests it cannot admit",
			i, d.clock, d.eng.Pending())
	}
	s.wake(i)
	if err := s.sched.onStep(i, res); err != nil {
		return err
	}
	return s.sched.react(d.clock)
}
