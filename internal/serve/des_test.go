package serve

import (
	"context"
	"testing"

	"pimphony/internal/cluster"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// heapAudit is a fleet scheduler that checks the spine's heap before
// every dispatch and every engine-call reaction: no arrival is queued
// (the cursor feeds them), no replica owns two ready entries, and every
// entry's recorded slot is its position.
type heapAudit struct {
	*fleetSim
	t        *testing.T
	audits   int
	maxReady int // most ready entries queued at once
}

func (h *heapAudit) check() {
	h.t.Helper()
	h.audits++
	owners := map[int]bool{}
	for i, e := range h.events {
		if e.index != i {
			h.t.Fatalf("audit %d: entry in heap slot %d records slot %d", h.audits, i, e.index)
		}
		switch e.kind {
		case evArrival:
			h.t.Fatalf("audit %d: arrival of request %d queued on the heap", h.audits, e.rec.req.ID)
		case evReady:
			if owners[e.replica] {
				h.t.Fatalf("audit %d: replica %d owns two queued ready entries", h.audits, e.replica)
			}
			owners[e.replica] = true
		}
	}
	h.maxReady = max(h.maxReady, len(owners))
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
// with migration and stealing under heapAudit:
// through crashes, retries, provisions and every ready re-arm, the heap
// never holds an arrival or a second ready entry for a replica.
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
