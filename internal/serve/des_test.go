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
// completion to free headroom — and the report must match single
// stepping, the reference.
func TestLeapBoundFlipsWithHeldQueue(t *testing.T) {
	one := testSystem()
	one.Tech.DPA = false
	one.KVBudgetBytes = 24 << 30 // one 16 GiB T_max reservation per replica
	long := func(id int, at float64) workload.Arrival {
		return workload.Arrival{At: at, Req: workload.Request{ID: id, Context: 512, Decode: 400}}
	}
	cfg := func(single bool) Config {
		return Config{
			Fleet:      []ReplicaSpec{{System: one, Count: 2, Role: RoleDecode}},
			SLO:        SLO{TTFT: 1, TBT: 0.2},
			SingleStep: single,
		}
	}
	probe := func(single bool, arr []workload.Arrival) (*Report, *boundProbe, *fleetSim) {
		fs, err := newFleetSim(cfg(single), len(arr))
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
	_, _, fs1 := probe(false, wave1)
	first := math.Min(fs1.recs[1].done, fs1.recs[2].done)
	arr := append(wave1, long(4, first+0.01), long(5, first+0.02))

	leap, p, _ := probe(false, arr)
	single, _, _ := probe(true, arr)
	if !reflect.DeepEqual(leap, single) {
		t.Errorf("leaping run diverged from single stepping:\n%+v\n%+v", leap, single)
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
