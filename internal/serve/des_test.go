package serve

import (
	"context"
	"math"
	"reflect"
	"testing"

	"pimphony/internal/cluster"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// heapAudit is a fleet scheduler that checks the spine's two heaps
// before every dispatch and every engine-call reaction: the event heap
// holds neither an arrival (the cursor feeds them) nor a ready entry,
// the ready heap holds only the replicas' own ready entries, ordered by
// replica index at equal clocks, and every entry's recorded slot is its
// position.
type heapAudit struct {
	*fleetSim
	t        *testing.T
	audits   int
	maxReady int // most ready entries queued at once
}

func (h *heapAudit) check() {
	h.t.Helper()
	h.audits++
	for i, e := range h.events {
		if e.index != i {
			h.t.Fatalf("audit %d: event heap slot %d records slot %d", h.audits, i, e.index)
		}
		switch e.kind {
		case evArrival:
			h.t.Fatalf("audit %d: arrival of request %d queued on the event heap", h.audits, e.rec.req.ID)
		case evReady:
			h.t.Fatalf("audit %d: replica %d ready entry queued on the event heap", h.audits, e.dst)
		}
	}
	// A replica's one entry records one slot, so matching slots also
	// rule out a replica queued twice.
	for i, e := range h.ready {
		if e.index != i {
			h.t.Fatalf("audit %d: ready heap slot %d records slot %d", h.audits, i, e.index)
		}
		if e.kind != evReady || e != &h.readyAt[e.dst] || e.seq != e.dst {
			h.t.Fatalf("audit %d: ready heap slot %d holds a foreign entry (kind %d, replica %d, seq %d)",
				h.audits, i, int(e.kind), e.dst, e.seq)
		}
	}
	h.maxReady = max(h.maxReady, len(h.ready))
}

func (h *heapAudit) dispatch(ctx context.Context, e *event) error {
	h.check()
	return h.fleetSim.dispatch(ctx, e)
}

func (h *heapAudit) onStep(i int, res cluster.StepResult) error {
	h.check()
	return h.fleetSim.onStep(i, res)
}

// callCounter counts the engine calls the spine makes and the
// iterations they price.
type callCounter struct {
	*fleetSim
	calls, iterations int
}

func (c *callCounter) onStep(i int, res cluster.StepResult) error {
	c.calls++
	c.iterations += res.Iterations
	return c.fleetSim.onStep(i, res)
}

// TestLoneRequestDrainsInTwoCalls: with no other event to bound it, a
// lone static-allocation request on a one-replica shorthand run takes
// the admitting iteration and then leaps to its completion in one
// engine call.
func TestLoneRequestDrainsInTwoCalls(t *testing.T) {
	sys := testSystem()
	sys.Tech.DPA = false
	arr := []workload.Arrival{{Req: workload.Request{ID: 1, Context: 4000, Decode: 300}}}
	fs, err := newFleetSim(Config{System: sys, Replicas: 1, Policy: RoundRobin(), SLO: SLO{TTFT: 1, TBT: 0.2}}, len(arr))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.start(arr); err != nil {
		t.Fatal(err)
	}
	c := &callCounter{fleetSim: fs}
	fs.sched = c
	if err := fs.run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if rec := fs.recs[1]; rec.tokens != 300 {
		t.Fatalf("generated %d tokens, want 300", rec.tokens)
	}
	if c.calls != 2 {
		t.Errorf("drained in %d engine calls, want 2 (admission, then one leap)", c.calls)
	}
}

// TestSpineHeapHoldsOnlyInFlightEvents runs a faulted, autoscaled fleet
// with migration and stealing under heapAudit: through crashes,
// retries, provisions and every ready re-arm, the event heap never
// holds an arrival or a ready entry, and the ready heap never holds a
// second entry for a replica.
func TestSpineHeapHoldsOnlyInFlightEvents(t *testing.T) {
	gen := workload.Uniform(4096, 5)
	gen.DecodeLen = 16
	arr, err := workload.PoissonArrivals(gen, 1000, 2, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Fleet: []ReplicaSpec{
			{System: testSystem(), Count: 3, Role: RoleUnified, Min: 1, WarmupSeconds: 0.02},
		},
		Interconnect: timing.DefaultInterconnect(),
		Migrate:      true,
		Steal:        true,
		Autoscaler:   NewSLOScaler(),
		Faults: &FaultPlan{
			Seed:           17,
			Groups:         []FaultGroup{{Spec: -1, Mode: FaultCrash, MTBFSeconds: 0.05, MTTRSeconds: 0.02}},
			MaxRetries:     -1,
			BackoffSeconds: 0.005,
		},
		SLO: SLO{TTFT: 1, TBT: 0.2},
	}
	fs, err := newFleetSim(cfg, len(arr))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.start(arr); err != nil {
		t.Fatal(err)
	}
	audit := &heapAudit{fleetSim: fs, t: t}
	fs.sched = audit
	if err := fs.run(t.Context()); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.report(arr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Crashes == 0 || rep.Fleet.ScaleUps == 0 || audit.maxReady < 2 {
		t.Fatalf("vacuous audit: %d crashes, %d scale-ups, at most %d ready entries queued at once",
			rep.Faults.Crashes, rep.Fleet.ScaleUps, audit.maxReady)
	}
	t.Logf("%d audits, up to %d ready entries queued, %d crashes, %d scale-ups",
		audit.audits, audit.maxReady, rep.Faults.Crashes, rep.Fleet.ScaleUps)
}

// evalAudit is a fleet scheduler that counts the scale-evaluation
// timers: how many sit on the event heap at each dispatch, at most, and
// how many are dispatched.
type evalAudit struct {
	*fleetSim
	maxQueued, dispatched int
}

func (a *evalAudit) dispatch(ctx context.Context, e *event) error {
	queued := 0
	for _, q := range a.events {
		if q.kind == evScaleEval {
			queued++
		}
	}
	if e.kind == evScaleEval {
		queued++ // popped for this dispatch
		a.dispatched++
	}
	a.maxQueued = max(a.maxQueued, queued)
	return a.fleetSim.dispatch(ctx, e)
}

// TestOneScaleEvalTimer runs the autoscale study's diurnal fleet under
// the SLO scaler, whose cooldown and oldest-wait deadlines re-arm the
// scale-evaluation timer at every decision: four unified CENT replicas
// at 24 GiB, one always online, 2 s warm-up, round-robin-fit. The
// fleet keeps one timer and moves it to an earlier deadline, so the
// event heap never holds two; a superseded timer that still fired
// would evaluate, re-arm a chain of its own, and provision again.
func TestOneScaleEvalTimer(t *testing.T) {
	gen, err := workload.HeavyTailed(256, 2048, 1.2, 52)
	if err != nil {
		t.Fatal(err)
	}
	gen.DecodeLen = 32
	arr, err := workload.ArrivalsByFlag("diurnal:60:0.9", gen, 3, 4, 64, 53)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem()
	sys.KVBudgetBytes = 24 << 30
	cfg := Config{
		Fleet:      []ReplicaSpec{{System: sys, Count: 4, Role: RoleUnified, Min: 1, WarmupSeconds: 2}},
		Placement:  RoundRobinFit(),
		Autoscaler: NewSLOScaler(),
		SLO:        SLO{TTFT: 2.5, TBT: 0.025},
	}
	fs, err := newFleetSim(cfg, len(arr))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.start(arr); err != nil {
		t.Fatal(err)
	}
	audit := &evalAudit{fleetSim: fs}
	fs.sched = audit
	if err := fs.run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if audit.dispatched == 0 {
		t.Fatal("vacuous audit: no scale-evaluation timer fired")
	}
	if audit.maxQueued > 1 {
		t.Errorf("up to %d scale-evaluation timers queued at once, want 1", audit.maxQueued)
	}
	t.Logf("%d scale-evaluation timers dispatched, up to %d queued", audit.dispatched, audit.maxQueued)
}

// boundProbe records the leap bound the spine derives at every ready
// pop and counts the flips between the two.
type boundProbe struct {
	*fleetSim
	pops, coupledPops, flipsOn, flipsOff int
	last                                 bool
}

func (p *boundProbe) coupled() bool {
	c := p.fleetSim.coupled()
	if p.pops > 0 && c != p.last {
		if c {
			p.flipsOn++
		} else {
			p.flipsOff++
		}
	}
	p.pops++
	if c {
		p.coupledPops++
	}
	p.last = c
	return c
}

// TestLeapBoundFlipsWithHeldQueue runs a decode-only fleet with neither
// migration nor stealing whose held queue fills and drains twice. Each
// replica's static pool holds one context-window reservation, so two
// requests fill the fleet and hold a third until they complete, and a
// second wave arrives just after, while one replica is busy again. The
// bound must flip both ways — leaps to the next global event while
// nothing is held, clock-order stepping while a request waits for a
// completion to free headroom — and the report must match one
// iteration per call (leap horizon 1), the reference.
func TestLeapBoundFlipsWithHeldQueue(t *testing.T) {
	one := testSystem()
	one.Tech.DPA = false
	one.KVBudgetBytes = 24 << 30 // one 16 GiB T_max reservation per replica
	long := func(id int, at float64) workload.Arrival {
		return workload.Arrival{At: at, Req: workload.Request{ID: id, Context: 512, Decode: 400}}
	}
	cfg := func(horizon int) Config {
		return Config{
			Fleet:       []ReplicaSpec{{System: one, Count: 2, Role: RoleDecode}},
			SLO:         SLO{TTFT: 1, TBT: 0.2},
			leapHorizon: horizon,
		}
	}
	probe := func(horizon int, arr []workload.Arrival) (*Report, *boundProbe, *fleetSim) {
		fs, err := newFleetSim(cfg(horizon), len(arr))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.start(arr); err != nil {
			t.Fatal(err)
		}
		p := &boundProbe{fleetSim: fs}
		fs.sched = p
		if err := fs.run(t.Context()); err != nil {
			t.Fatal(err)
		}
		rep, err := fs.report(arr)
		if err != nil {
			t.Fatal(err)
		}
		return rep, p, fs
	}
	// The first wave alone fixes when its two placed requests complete.
	// Arrivals are staggered so each placement sees the previous one
	// admitted: a queued request reserves nothing yet.
	wave1 := []workload.Arrival{long(1, 0), long(2, 0.01), long(3, 0.02)}
	_, _, fs1 := probe(0, wave1)
	first := math.Min(fs1.recs[1].done, fs1.recs[2].done)
	arr := append(wave1, long(4, first+0.01), long(5, first+0.02))

	leap, p, _ := probe(0, arr)
	for _, horizon := range []int{1, 5, 64} {
		if clamped, _, _ := probe(horizon, arr); !reflect.DeepEqual(leap, clamped) {
			t.Errorf("leaping run diverged from leap horizon %d:\n%+v\n%+v", horizon, leap, clamped)
		}
	}
	if leap.Fleet.Held != 2 {
		t.Errorf("held %d requests, want the third of wave one and one of wave two", leap.Fleet.Held)
	}
	if p.flipsOff < 2 || p.flipsOn < 2 {
		t.Errorf("bound flips: %d to decoupled, %d to coupled over %d pops (%d coupled); want both ways, twice",
			p.flipsOff, p.flipsOn, p.pops, p.coupledPops)
	}
	t.Logf("%d ready pops, %d coupled; %d flips to decoupled, %d to coupled", p.pops, p.coupledPops, p.flipsOff, p.flipsOn)
}
