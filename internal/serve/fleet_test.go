package serve

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"pimphony/internal/cluster"
	"pimphony/internal/model"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// tightSystem is testSystem with a KV budget sized so two of the
// long-decode requests below are admitted together and then exhaust the
// DPA pool mid-decode — the preemption scenario the migration oracle
// needs. The numbers leave wide margins: the 1800 MiB pool holds 3600
// tokens, one request's serving horizon is 3016, and the second request
// lands only a prompt-prefill (~tens of iterations) behind the first,
// so admission succeeds and lockstep growth exhausts the pool long
// before the first request's 3000 tokens complete.
func tightSystem() cluster.Config {
	cfg := testSystem()
	cfg.KVBudgetBytes = 1800 << 20
	return cfg
}

// tinyArrivals is n tiny-prompt, long-decode requests all arriving at
// once: the prompt prefill is nearly free (so requests become
// co-resident in decode) while the decode KV grows for thousands of
// iterations (so a tight pool exhausts mid-flight).
func tinyArrivals(n int) []workload.Arrival {
	arr := make([]workload.Arrival, n)
	for i := range arr {
		arr[i] = workload.Arrival{At: 0, Req: workload.Request{ID: i + 1, Context: 16, Decode: 3000}}
	}
	return arr
}

// pinFirst is a test placement that funnels everything to replica 0 —
// the way to build a hot replica next to an idle one.
type pinFirst struct{}

func (pinFirst) Name() string { return "pin-first" }
func (pinFirst) Place(_ workload.Arrival, loads []FleetLoad) int {
	if loads[0].Fits {
		return 0
	}
	return -1
}

// TestFleetMigrationBeatsRecompute: with a free interconnect and an
// empty roomy replica next door, every DPA preemption must migrate —
// the fleet finishes with zero recompute seconds and the victim's
// remaining tokens decoded on the destination.
func TestFleetMigrationBeatsRecompute(t *testing.T) {
	mk := func() *Report {
		return run(t, Config{
			Fleet: []ReplicaSpec{
				{System: tightSystem(), Count: 1, Role: RoleUnified},
				{System: testSystem(), Count: 1, Role: RoleUnified},
			},
			Interconnect: timing.Interconnect{BytesPerSecond: math.Inf(1)},
			Placement:    pinFirst{},
			Migrate:      true,
			SLO:          SLO{TTFT: 10, TBT: 1},
		}, tinyArrivals(2))
	}
	rep := mk()
	if rep.Requests != 2 {
		t.Fatalf("served %d of 2", rep.Requests)
	}
	fl := rep.Fleet
	if fl == nil {
		t.Fatal("fleet report missing FleetStats")
	}
	if rep.Capacity.Preemptions == 0 {
		t.Fatal("scenario did not exercise preemption")
	}
	if fl.Migrations == 0 {
		t.Fatal("free transfer never chosen over recompute")
	}
	if rep.Capacity.RecomputeSeconds != 0 {
		t.Errorf("recompute charged %g s despite free migration", rep.Capacity.RecomputeSeconds)
	}
	if fl.TransferSeconds != 0 {
		t.Errorf("infinite bandwidth priced %g s of transfer", fl.TransferSeconds)
	}
	// The victim carried Context plus its progress to the destination.
	if min := int64(16) * tightSystem().Model.KVBytesPerToken(); fl.TransferBytes <= min {
		t.Errorf("migrated %d bytes, want more than the bare prompt KV %d", fl.TransferBytes, min)
	}
	if rep.PerReplica[1].Tokens == 0 {
		t.Error("destination replica decoded nothing; migration did not land")
	}
	if other := mk(); !reflect.DeepEqual(rep, other) {
		t.Error("migration run is not deterministic")
	}
}

// TestFleetZeroBandwidthDegradesToRecompute is the other half of the
// migration oracle: with an unusable fabric the migration machinery
// must change nothing — the report is byte-identical to a
// migration-disabled fleet riding the engine's recompute path.
func TestFleetZeroBandwidthDegradesToRecompute(t *testing.T) {
	mk := func(migrate bool, ic timing.Interconnect) *Report {
		return run(t, Config{
			Fleet: []ReplicaSpec{
				{System: tightSystem(), Count: 1, Role: RoleUnified},
				{System: testSystem(), Count: 1, Role: RoleUnified},
			},
			Interconnect: ic,
			Placement:    pinFirst{},
			Migrate:      migrate,
			SLO:          SLO{TTFT: 10, TBT: 1},
		}, tinyArrivals(2))
	}
	zeroBW := mk(true, timing.Interconnect{})
	if zeroBW.Capacity.Preemptions == 0 {
		t.Fatal("scenario did not exercise preemption")
	}
	if zeroBW.Fleet.Migrations != 0 {
		t.Fatalf("%d migrations over an unusable fabric", zeroBW.Fleet.Migrations)
	}
	if zeroBW.Capacity.RecomputeSeconds <= 0 {
		t.Error("recompute path not taken: preempted re-admission charged nothing")
	}
	if off := mk(false, timing.Interconnect{}); !reflect.DeepEqual(zeroBW, off) {
		t.Errorf("zero-bandwidth migration diverged from the recompute path:\n%+v\n%+v", zeroBW, off)
	}
	if off := mk(false, timing.DefaultInterconnect()); !reflect.DeepEqual(zeroBW, off) {
		t.Error("migration-disabled report depends on the interconnect it never uses")
	}
}

// TestFleetDisaggregatedHandoff: a prefill→decode split must hand every
// request off exactly once, pricing the prompt-KV transfer.
func TestFleetDisaggregatedHandoff(t *testing.T) {
	arr := testArrivals(t, 8, 8)
	rep := run(t, Config{
		Fleet: []ReplicaSpec{
			{System: testSystem(), Count: 1, Role: RolePrefill},
			{System: testSystem(), Count: 2, Role: RoleDecode},
		},
		Interconnect: timing.DefaultInterconnect(),
		SLO:          SLO{TTFT: 10, TBT: 1},
	}, arr)
	if rep.Requests != 8 {
		t.Fatalf("served %d of 8", rep.Requests)
	}
	fl := rep.Fleet
	if fl.PrefillReplicas != 1 || fl.DecodeReplicas != 2 {
		t.Fatalf("fleet shape %d pre / %d dec, want 1 / 2", fl.PrefillReplicas, fl.DecodeReplicas)
	}
	if fl.Handoffs != 8 {
		t.Errorf("%d handoffs for 8 requests", fl.Handoffs)
	}
	var ctxTokens int64
	for _, a := range arr {
		ctxTokens += int64(a.Req.Context)
	}
	if want := ctxTokens * testSystem().Model.KVBytesPerToken(); fl.TransferBytes != want {
		t.Errorf("transferred %d bytes, want the prompt KV %d", fl.TransferBytes, want)
	}
	if fl.TransferSeconds <= 0 || fl.PrefillSeconds <= 0 {
		t.Errorf("unpriced handoff: transfer %g s, prefill %g s", fl.TransferSeconds, fl.PrefillSeconds)
	}
	// Every request's first token waits for its prefill and transfer.
	if rep.TTFT.P50 <= 0 {
		t.Error("disaggregated TTFT does not include the handoff")
	}
	if rep.Energy.JoulesPerToken <= 0 {
		t.Error("PIM decode fleet accrued no energy")
	}
}

// TestFleetStealDrainsBacklog: an idle replica must pull queued work
// off a backlogged one and finish the schedule sooner than a fleet with
// stealing disabled.
func TestFleetStealDrainsBacklog(t *testing.T) {
	mk := func(steal bool) *Report {
		return run(t, Config{
			Fleet: []ReplicaSpec{
				{System: tightSystem(), Count: 1, Role: RoleUnified},
				{System: testSystem(), Count: 1, Role: RoleUnified},
			},
			Interconnect: timing.DefaultInterconnect(),
			Placement:    pinFirst{},
			Steal:        steal,
			SLO:          SLO{TTFT: 10, TBT: 1},
		}, tinyArrivals(4))
	}
	with, without := mk(true), mk(false)
	if with.Fleet.Steals == 0 {
		t.Fatal("idle replica never stole from the backlog")
	}
	if without.Fleet.Steals != 0 {
		t.Fatalf("%d steals with stealing disabled", without.Fleet.Steals)
	}
	if with.MakespanSeconds >= without.MakespanSeconds {
		t.Errorf("stealing did not help: makespan %g s with vs %g s without",
			with.MakespanSeconds, without.MakespanSeconds)
	}
	if with.PerReplica[1].Tokens == 0 {
		t.Error("thief decoded nothing")
	}
}

// starvedSystem is testSystem with a KV budget below one tinyArrivals
// request's serving horizon (3016 tokens need ~1508 MiB at 512 KiB per
// token): the replica is a valid fleet member but can never admit one
// of those requests.
func starvedSystem() cluster.Config {
	cfg := testSystem()
	cfg.KVBudgetBytes = 1024 << 20
	return cfg
}

// TestStealSkipsUnadmittableThief is the livelock-guard regression: a
// busy source holding exactly one queued request next to an idle
// replica whose KV budget cannot admit it. Without the destination
// headroom check in trySteal, the thief steals the request anyway, it
// lands in a queue it can never leave, and the thief's clock freezes —
// the spine re-examines it at the same timestamp forever. The pinned
// trace: zero steals, zero transfers, both requests decoded serially on
// the source, the starved replica untouched.
func TestStealSkipsUnadmittableThief(t *testing.T) {
	source := testSystem()
	source.MaxBatch = 1 // admit one, queue the other: the steal bait
	rep := run(t, Config{
		Fleet: []ReplicaSpec{
			{System: source, Count: 1, Role: RoleUnified},
			{System: starvedSystem(), Count: 1, Role: RoleUnified},
		},
		Interconnect: timing.DefaultInterconnect(),
		Placement:    pinFirst{},
		Steal:        true,
		SLO:          SLO{TTFT: 10, TBT: 1},
	}, tinyArrivals(2))
	fl := rep.Fleet
	trace := [5]int{fl.Steals, fl.Migrations, fl.Held, rep.PerReplica[0].Requests, rep.PerReplica[1].Requests}
	if want := [5]int{0, 0, 0, 2, 0}; trace != want {
		t.Errorf("event trace [steals migrations held src-reqs thief-reqs] = %v, want %v", trace, want)
	}
	if fl.TransferBytes != 0 || fl.TransferSeconds != 0 {
		t.Errorf("skipped steal still priced a transfer: %d bytes, %g s", fl.TransferBytes, fl.TransferSeconds)
	}
	if rep.Requests != 2 {
		t.Errorf("served %d of 2", rep.Requests)
	}
}

// pinSecond funnels everything to replica 1 whether it fits or not — a
// misbehaving custom placement, used to prove a request queued on a
// replica that can never admit it fails loudly instead of spinning.
type pinSecond struct{}

func (pinSecond) Name() string                                { return "pin-second" }
func (pinSecond) Place(_ workload.Arrival, _ []FleetLoad) int { return 1 }

// TestSpineStallIsLoud: a request queued on a replica that can never
// admit it (the failure mode the steal guard prevents) must surface as
// an error naming the unservable request — the engine rejects it at the
// first step, and the spine's stall guard backstops any future
// admission path that defers the rejection — never as a silent spin.
func TestSpineStallIsLoud(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Fleet: []ReplicaSpec{
			{System: testSystem(), Count: 1, Role: RoleUnified},
			{System: starvedSystem(), Count: 1, Role: RoleUnified},
		},
		Interconnect: timing.DefaultInterconnect(),
		Placement:    pinSecond{},
		SLO:          SLO{TTFT: 10, TBT: 1},
	}, tinyArrivals(1))
	if err == nil {
		t.Fatal("misplacing onto a replica that can never admit should error")
	}
	if !strings.Contains(err.Error(), "does not fit") && !strings.Contains(err.Error(), "stalled") {
		t.Errorf("stall error does not name the unservable request: %v", err)
	}
}

// fleetTestArrivals builds a deterministic schedule of small-prompt,
// long-decode requests arriving in a tight burst — every request fits
// the tight decoders' budget, but their lockstep KV growth overlaps
// enough that preemption, migration and stealing all fire.
func fleetTestArrivals(n int, seed int64) []workload.Arrival {
	s := uint64(seed)*2654435761 + 1
	next := func(m int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(m))
	}
	arr := make([]workload.Arrival, n)
	at := 0.0
	for i := range arr {
		at += 0.02 * float64(next(6))
		arr[i] = workload.Arrival{At: at,
			Req: workload.Request{ID: i + 1, Context: 16 + next(500), Decode: 2500 + next(500)}}
	}
	return arr
}

// TestFleetSingleStepEquivalence pins the fleet loop's fast-forward
// exactness: horizon-clamped leaps and one-iteration stepping must
// produce byte-identical reports, including under migration and
// stealing.
func TestFleetSingleStepEquivalence(t *testing.T) {
	arr := fleetTestArrivals(12, 3)
	mk := func(single bool) *Report {
		return run(t, Config{
			Fleet: []ReplicaSpec{
				{System: testSystem(), Count: 1, Role: RolePrefill},
				{System: tightSystem(), Count: 2, Role: RoleDecode},
			},
			Interconnect: timing.DefaultInterconnect(),
			Migrate:      true,
			Steal:        true,
			SingleStep:   single,
			SLO:          SLO{TTFT: 1, TBT: 0.2},
		}, arr)
	}
	fast, slow := mk(false), mk(true)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast-forward fleet diverged from single stepping:\n%+v\n%+v", fast, slow)
	}
	// And the leap clamp only changes granularity, never the report.
	for _, horizon := range []int{1, 7} {
		cfgRep := run(t, Config{
			Fleet: []ReplicaSpec{
				{System: testSystem(), Count: 1, Role: RolePrefill},
				{System: tightSystem(), Count: 2, Role: RoleDecode},
			},
			Interconnect: timing.DefaultInterconnect(),
			Migrate:      true,
			Steal:        true,
			LeapHorizon:  horizon,
			SLO:          SLO{TTFT: 1, TBT: 0.2},
		}, arr)
		if !reflect.DeepEqual(fast, cfgRep) {
			t.Errorf("LeapHorizon %d changed the report", horizon)
		}
	}
}

// TestFleetRoutingDeterminism: the full scheduler — placement,
// migration, stealing, handoffs — must be reproducible across runs for
// several workload seeds.
func TestFleetRoutingDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		arr := fleetTestArrivals(14, seed)
		mk := func() *Report {
			return run(t, Config{
				Fleet: []ReplicaSpec{
					{System: testSystem(), Count: 1, Role: RolePrefill},
					{System: tightSystem(), Count: 2, Role: RoleDecode},
				},
				Interconnect: timing.DefaultInterconnect(),
				Migrate:      true,
				Steal:        true,
				SLO:          SLO{TTFT: 1, TBT: 0.2},
			}, arr)
		}
		a, b := mk(), mk()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: fleet reports diverged:\n%+v\n%+v", seed, a, b)
		}
		if a.Requests != 14 {
			t.Fatalf("seed %d: served %d of 14", seed, a.Requests)
		}
	}
}

// TestFleetValidate covers the fleet-config error surface.
func TestFleetValidate(t *testing.T) {
	base := ReplicaSpec{System: testSystem(), Count: 1, Role: RoleUnified}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero count", Config{Fleet: []ReplicaSpec{{System: testSystem(), Role: RoleUnified}}}},
		{"unknown role", Config{Fleet: []ReplicaSpec{{System: testSystem(), Count: 1, Role: Role(9)}}}},
		{"prefill only", Config{Fleet: []ReplicaSpec{{System: testSystem(), Count: 1, Role: RolePrefill}},
			Interconnect: timing.DefaultInterconnect()}},
		{"disaggregated without fabric", Config{Fleet: []ReplicaSpec{
			{System: testSystem(), Count: 1, Role: RolePrefill}, base}}},
		{"negative horizon", Config{Fleet: []ReplicaSpec{base}, LeapHorizon: -1}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	ok := Config{Fleet: []ReplicaSpec{base}}
	if err := ok.Validate(); err != nil {
		t.Errorf("unified single-replica fleet rejected: %v", err)
	}
	// KV portability is checked at build time: mixing models whose KV
	// layouts differ cannot share a fleet.
	big := testSystem()
	big.Model = model.LLM72B32K()
	mixed := Config{Fleet: []ReplicaSpec{base, {System: big, Count: 1, Role: RoleUnified}}}
	if _, err := Run(context.Background(), mixed, tinyArrivals(1)); err == nil {
		t.Error("fleet with mismatched KV bytes/token accepted")
	}
}

func TestRoleSummary(t *testing.T) {
	got := RoleSummary([]ReplicaSpec{
		{Count: 1, Role: RolePrefill},
		{Count: 3, Role: RoleDecode},
	})
	if got != "1pre+3dec" {
		t.Errorf("RoleSummary = %q, want 1pre+3dec", got)
	}
	if got := RoleSummary([]ReplicaSpec{{Count: 4, Role: RoleUnified}}); got != "4uni" {
		t.Errorf("RoleSummary = %q, want 4uni", got)
	}
}

func TestPlacementByName(t *testing.T) {
	for _, name := range PlacementNames() {
		p, err := PlacementByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("PlacementByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PlacementByName("nope"); err == nil {
		t.Error("unknown placement accepted")
	}
}

// TestPlacements exercises the built-in policies' selection rules.
func TestPlacements(t *testing.T) {
	loads := []FleetLoad{
		{OutstandingTokens: 5, FreeKVBytes: 10, Fits: true},
		{OutstandingTokens: 1, FreeKVBytes: 30, Fits: true},
		{OutstandingTokens: 0, FreeKVBytes: 99, Fits: false},
	}
	r := workload.Arrival{Req: workload.Request{ID: 1, Context: 10, Decode: 5}}
	if got := KVHeadroom().Place(r, loads); got != 1 {
		t.Errorf("kv-headroom picked %d, want 1 (most free among fitting)", got)
	}
	if got := LeastTokensFit().Place(r, loads); got != 1 {
		t.Errorf("least-tokens-fit picked %d, want 1", got)
	}
	rr := RoundRobinFit()
	if a, b := rr.Place(r, loads), rr.Place(r, loads); a != 0 || b != 1 {
		t.Errorf("round-robin-fit picked %d,%d, want 0,1 (skipping the non-fitting)", a, b)
	}
	none := []FleetLoad{{Fits: false}}
	for _, p := range []Placement{KVHeadroom(), LeastTokensFit(), RoundRobinFit()} {
		if got := p.Place(r, none); got != -1 {
			t.Errorf("%s placed %d with nothing fitting, want -1 (hold)", p.Name(), got)
		}
	}
	// The shorthand's policies never hold: fit does not enter.
	if got := LeastOutstandingTokens().Place(r, loads); got != 2 {
		t.Errorf("least-tokens picked %d, want 2 (fewest tokens, fitting or not)", got)
	}
	for _, p := range []Placement{RoundRobin(), LeastOutstandingTokens(), SessionAffinity()} {
		if got := p.Place(r, none); got != 0 {
			t.Errorf("%s placed %d with nothing fitting, want 0 (never hold)", p.Name(), got)
		}
	}
}
