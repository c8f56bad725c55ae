// The indexed-scheduler oracle suite: every O(log n) decision the fleet
// scheduler answers from its maintained views (views.go, placement.go,
// policy.go) is pinned byte-identical to the O(n) linear scan it
// replaced, two ways. End-to-end: full simulations — migration,
// stealing, autoscaling, disaggregation, and the load-balancing
// policies of the Config{System, Replicas, Policy} shorthand — run once
// through the indexed fast path and once through a wrapper that hides
// the fast-path interface, and the reports must be deeply equal.
// Per-decision: randomized drivers push a fleetSim through
// admit/step/preempt/provision/drain/steal sequences and, after every
// operation, audit each index's membership, keys and order against the
// live engine state, and each decision procedure against its scan.
package serve

import (
	"container/heap"
	"math"
	"reflect"
	"testing"

	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// linearOnly hides a built-in placement's placeIndexed method behind an
// interface embed: the dynamic type no longer implements
// indexedPlacement, so place() takes the scratch-built []FleetLoad scan
// with byte-identical semantics. Name passes through, keeping reports
// comparable field for field.
type linearOnly struct{ Placement }

// TestIndexedPlacementMatchesLinearEndToEnd runs full fleet simulations
// — fixed, autoscaled, and disaggregated shapes with migration and
// stealing on — under every built-in placement, indexed and forced
// linear, and requires deeply equal reports.
func TestIndexedPlacementMatchesLinearEndToEnd(t *testing.T) {
	shapes := []struct {
		name string
		cfg  func() Config
	}{
		{"fixed-mixed", func() Config {
			return Config{
				Fleet: []ReplicaSpec{
					{System: tightSystem(), Count: 2, Role: RoleUnified},
					{System: testSystem(), Count: 2, Role: RoleUnified},
				},
				Interconnect: timing.DefaultInterconnect(),
				Migrate:      true,
				Steal:        true,
				SLO:          SLO{TTFT: 1, TBT: 0.2},
			}
		}},
		{"autoscaled", func() Config {
			return Config{
				Fleet: []ReplicaSpec{
					{System: tightSystem(), Count: 3, Role: RoleUnified, Min: 1, WarmupSeconds: 0.05},
					{System: testSystem(), Count: 2, Role: RoleUnified, Min: 1},
				},
				Interconnect: timing.DefaultInterconnect(),
				Migrate:      true,
				Steal:        true,
				Autoscaler:   NewSLOScaler(),
				SLO:          SLO{TTFT: 1, TBT: 0.2},
			}
		}},
		{"disaggregated", func() Config {
			return Config{
				Fleet: []ReplicaSpec{
					{System: testSystem(), Count: 1, Role: RolePrefill},
					{System: tightSystem(), Count: 3, Role: RoleDecode},
				},
				Interconnect: timing.DefaultInterconnect(),
				Migrate:      true,
				Steal:        true,
				SLO:          SLO{TTFT: 1, TBT: 0.2},
			}
		}},
	}
	placements := []struct {
		name string
		mk   func() Placement
	}{
		{"kv-headroom", KVHeadroom},
		{"least-tokens-fit", LeastTokensFit},
		{"round-robin-fit", RoundRobinFit},
	}
	for _, sh := range shapes {
		for _, pl := range placements {
			t.Run(sh.name+"/"+pl.name, func(t *testing.T) {
				arr := fleetTestArrivals(14, 5)
				cfgIdx := sh.cfg()
				cfgIdx.Placement = pl.mk()
				cfgLin := sh.cfg()
				cfgLin.Placement = linearOnly{pl.mk()}
				idx := run(t, cfgIdx, arr)
				lin := run(t, cfgLin, arr)
				if !reflect.DeepEqual(idx, lin) {
					t.Errorf("indexed placement diverged from linear scan:\n%+v\n%+v", idx, lin)
				}
			})
		}
	}
	// The shorthand's policies on the preempting tight system, with
	// sessions spread so session affinity has choices to make.
	arr := fleetTestArrivals(14, 5)
	for i := range arr {
		arr[i].Session = i % 5
	}
	for _, pl := range []struct {
		name string
		mk   func() Placement
	}{
		{"round-robin", RoundRobin},
		{"least-tokens", LeastOutstandingTokens},
		{"session", SessionAffinity},
	} {
		t.Run("shorthand/"+pl.name, func(t *testing.T) {
			idx := run(t, Config{System: tightSystem(), Replicas: 3, Policy: pl.mk()}, arr)
			lin := run(t, Config{System: tightSystem(), Replicas: 3, Policy: linearOnly{pl.mk()}}, arr)
			if !reflect.DeepEqual(idx, lin) {
				t.Errorf("indexed policy diverged from linear scan:\n%+v\n%+v", idx, lin)
			}
			if idx.Capacity.Preemptions == 0 {
				t.Error("scenario did not preempt; the queue states stayed trivial")
			}
		})
	}
}

// linearLoads replicates the pre-index []FleetLoad build the linear
// scans decided on.
func linearLoads(fs *fleetSim, r workload.Request) []FleetLoad {
	loads := make([]FleetLoad, len(fs.decoders))
	for i, d := range fs.decoders {
		clk := d.clock
		if clk < fs.clock && d.eng.Idle() {
			clk = fs.clock
		}
		loads[i] = FleetLoad{
			OutstandingTokens: d.eng.OutstandingTokens(),
			Active:            d.eng.Active(),
			Pending:           d.eng.Pending(),
			Clock:             clk,
			Role:              d.role,
			FreeKVBytes:       d.eng.FreeKVBytes(),
			Fits:              d.eng.HasHeadroom(r),
		}
		if fs.state[i] != stateOnline {
			loads[i].Fits = false
			loads[i].FreeKVBytes = 0
		}
	}
	return loads
}

// auditIndex checks one index's membership and key for one replica.
func auditIndex(t *testing.T, op int, name string, x *ordIndex, i int, member bool, key int64) {
	t.Helper()
	if x.contains(i) != member {
		t.Fatalf("op %d: %s.contains(%d) = %v, want %v", op, name, i, x.contains(i), member)
	}
	if member && x.nodes[i].key != key {
		t.Fatalf("op %d: %s key for %d = %d, want %d", op, name, i, x.nodes[i].key, key)
	}
}

// auditViews is the full O(n) recheck: every index's membership and key
// against live engine state, every cached contribution, and every
// aggregate counter.
func auditViews(t *testing.T, op int, fs *fleetSim) {
	t.Helper()
	v := &fs.views
	var queued, activeSum, onlineCnt, warmingCnt, standbyCnt int
	var freeSum, poolSum int64
	for i, d := range fs.decoders {
		online := fs.state[i] == stateOnline
		pending, active := d.eng.Pending(), d.eng.Active()
		free := d.eng.FreeKVBytes()
		idleFree := d.eng.Idle() && fs.incoming[i] == 0
		auditIndex(t, op, "byFreeKV", &v.byFreeKV, i, online, -free)
		auditIndex(t, op, "byTokens", &v.byTokens, i, online, int64(d.eng.OutstandingTokens()))
		auditIndex(t, op, "online", &v.online, i, online, int64(i))
		auditIndex(t, op, "stealSrc", &v.stealSrc, i, online && active > 0 && pending > 0, -int64(pending))
		auditIndex(t, op, "thieves", &v.thieves, i, online && idleFree, int64(i))
		auditIndex(t, op, "drainable", &v.drainable, i, online && idleFree && fs.landing[i] == 0, int64(i))
		auditIndex(t, op, "standby", &v.standby, i, fs.state[i] == stateOffline, int64(i))
		wantP, wantA, wantF := 0, 0, int64(0)
		if online {
			wantP, wantA, wantF = pending, active, free
			queued += pending
			activeSum += active
			freeSum += free
			poolSum += d.eng.KVPoolBytes()
			onlineCnt++
		}
		if v.pending[i] != wantP || v.active[i] != wantA || v.free[i] != wantF {
			t.Fatalf("op %d: replica %d cache (%d,%d,%d), want (%d,%d,%d)",
				op, i, v.pending[i], v.active[i], v.free[i], wantP, wantA, wantF)
		}
		switch fs.state[i] {
		case stateWarming:
			warmingCnt++
		case stateOffline:
			standbyCnt++
		}
	}
	if v.queued != queued || v.activeSum != activeSum || v.freeSum != freeSum || v.poolSum != poolSum ||
		v.onlineCnt != onlineCnt || v.warmingCnt != warmingCnt || v.standbyCnt != standbyCnt {
		t.Fatalf("op %d: aggregates (q=%d a=%d f=%d p=%d on=%d warm=%d off=%d), want (q=%d a=%d f=%d p=%d on=%d warm=%d off=%d)",
			op, v.queued, v.activeSum, v.freeSum, v.poolSum, v.onlineCnt, v.warmingCnt, v.standbyCnt,
			queued, activeSum, freeSum, poolSum, onlineCnt, warmingCnt, standbyCnt)
	}
}

// auditDecisions pins each decision procedure against its linear scan
// at the current state.
func auditDecisions(t *testing.T, op int, fs *fleetSim, a workload.Arrival, now float64) {
	t.Helper()
	r := a.Req
	loads := linearLoads(fs, r)
	if lin, idx := (kvHeadroom{}).Place(a, loads), (kvHeadroom{}).placeIndexed(fs, a); lin != idx {
		t.Fatalf("op %d: kv-headroom linear %d, indexed %d", op, lin, idx)
	}
	if lin, idx := (leastTokensFit{}).Place(a, loads), (leastTokensFit{}).placeIndexed(fs, a); lin != idx {
		t.Fatalf("op %d: least-tokens-fit linear %d, indexed %d", op, lin, idx)
	}
	for start := 0; start <= len(fs.decoders); start++ {
		x, y := &roundRobinFit{next: start}, &roundRobinFit{next: start}
		if lin, idx := x.Place(a, loads), y.placeIndexed(fs, a); lin != idx || x.next != y.next {
			t.Fatalf("op %d: round-robin(next=%d) linear (%d,%d), indexed (%d,%d)",
				op, start, lin, x.next, idx, y.next)
		}
	}
	// Migration destination: roomiest fitting online replica != di.
	for di := range fs.decoders {
		lin, bestFree := -1, int64(-1)
		for i, o := range fs.decoders {
			if i == di || fs.state[i] != stateOnline || !o.eng.HasHeadroom(r) {
				continue
			}
			if free := o.eng.FreeKVBytes(); free > bestFree {
				lin, bestFree = i, free
			}
		}
		idx := -1
		fs.views.byFreeKV.ascend(func(i int) bool {
			if i == di || !fs.decoders[i].eng.HasHeadroom(r) {
				return true
			}
			idx = i
			return false
		})
		if lin != idx {
			t.Fatalf("op %d: migration dst from %d: linear %d, indexed %d", op, di, lin, idx)
		}
	}
	// Steal source: most backlogged decoding replica.
	lin := -1
	for si, s := range fs.decoders {
		if fs.state[si] != stateOnline || s.eng.Active() == 0 || s.eng.Pending() == 0 {
			continue
		}
		if lin < 0 || s.eng.Pending() > fs.decoders[lin].eng.Pending() {
			lin = si
		}
	}
	if idx := fs.views.stealSrc.first(); lin != idx {
		t.Fatalf("op %d: steal source linear %d, indexed %d", op, lin, idx)
	}
	// Drain victim: highest-index idle online replica.
	lin = -1
	for i := len(fs.decoders) - 1; i >= 0; i-- {
		if fs.state[i] == stateOnline && fs.decoders[i].eng.Idle() &&
			fs.incoming[i] == 0 && fs.landing[i] == 0 {
			lin = i
			break
		}
	}
	if idx := fs.views.drainable.last(); lin != idx {
		t.Fatalf("op %d: drain victim linear %d, indexed %d", op, lin, idx)
	}
	// Provision target: lowest-index standby.
	lin = -1
	for i := range fs.decoders {
		if fs.state[i] == stateOffline {
			lin = i
			break
		}
	}
	if idx := fs.views.standby.first(); lin != idx {
		t.Fatalf("op %d: provision target linear %d, indexed %d", op, lin, idx)
	}
	// AutoscaleView: the O(1) fold against the per-replica scan.
	want := AutoscaleView{Now: now, SLO: fs.cfg.SLO, Held: fs.held.len()}
	var free, pool int64
	for i, d := range fs.decoders {
		switch fs.state[i] {
		case stateOnline:
			want.Online++
			want.Queued += d.eng.Pending()
			want.Active += d.eng.Active()
			free += d.eng.FreeKVBytes()
			pool += d.eng.KVPoolBytes()
			if d.eng.Idle() && fs.incoming[i] == 0 && fs.landing[i] == 0 {
				want.IdleOnline++
			}
		case stateWarming:
			want.Warming++
		case stateOffline:
			want.Standby++
		case stateFailed:
			want.Failed++
		}
	}
	if pool > 0 {
		want.FreeKVFrac = float64(free) / float64(pool)
	}
	want.Waiting = len(fs.waiting)
	want.OldestArrival = math.Inf(1)
	for _, rec := range fs.waiting {
		if w := now - rec.arrival; w > want.OldestWaitSeconds {
			want.OldestWaitSeconds = w
		}
		if rec.arrival < want.OldestArrival {
			want.OldestArrival = rec.arrival
		}
	}
	if got := fs.view(now); got != want {
		t.Fatalf("op %d: view %+v, want %+v", op, got, want)
	}
}

// TestViewsOracle is the per-decision oracle: a randomized driver takes
// a mixed-budget autoscaled fleet through placements, engine steps
// (with preemption-driven migrations), event landings, provisions,
// drains and steals, auditing every index and every decision procedure
// against the linear scans after each operation.
func TestViewsOracle(t *testing.T) {
	cfg := Config{
		Fleet: []ReplicaSpec{
			{System: testSystem(), Count: 3, Role: RoleUnified, Min: 2, WarmupSeconds: 0.02},
			{System: tightSystem(), Count: 3, Role: RoleUnified, Min: 1},
		},
		Interconnect: timing.DefaultInterconnect(),
		Migrate:      true,
		Steal:        true,
		Autoscaler:   NewSLOScaler(),
		SLO:          SLO{TTFT: 1, TBT: 0.2},
		SingleStep:   true,
	}
	fs, err := newFleetSim(cfg, 512)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	s := uint64(2026)
	next := func(m int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(m))
	}
	now := 0.0
	id := 0
	probes := []workload.Arrival{
		{Req: workload.Request{ID: 1 << 20, Context: 16, Decode: 8}},
		{Req: workload.Request{ID: 1<<20 + 1, Context: 400, Decode: 2800}},
	}
	for op := 0; op < 700; op++ {
		switch c := next(100); {
		case c < 40: // arrive: the unified routeArrival flow
			id++
			now += 0.001 * float64(next(8))
			req := workload.Request{ID: id, Context: 16 + next(300), Decode: 4 + next(48)}
			if next(6) == 0 {
				req.Decode = 2000 + next(1000) // pressure the tight pool
			}
			rec := &record{req: req, arrival: now, replica: -1}
			fs.recs[req.ID] = rec
			fs.waiting[req.ID] = rec
			fs.waitq.pushBack(rec)
			fs.autoscale(now)
			if dst := fs.place(rec); dst >= 0 {
				if err := fs.prefillOn(dst, rec, now); err != nil {
					t.Fatalf("op %d: prefill on %d: %v", op, dst, err)
				}
			} else {
				fs.held.pushBack(heldReq{rec: rec, needsPrefill: true})
			}
		case c < 65: // step one busy replica
			busy := make([]int, 0, len(fs.decoders))
			for i, d := range fs.decoders {
				if !d.eng.Idle() {
					busy = append(busy, i)
				}
			}
			if len(busy) == 0 {
				continue
			}
			i := busy[next(len(busy))]
			d := fs.decoders[i]
			res, err := fs.step(ctx, &d.replica, math.Inf(1))
			if err != nil {
				t.Fatalf("op %d: step replica %d: %v", op, i, err)
			}
			if d.clock > now {
				now = d.clock
			}
			if err := fs.onStep(i, res); err != nil {
				t.Fatalf("op %d: onStep: %v", op, err)
			}
			if err := fs.react(now); err != nil {
				t.Fatalf("op %d: react: %v", op, err)
			}
		case c < 80: // land pending events in time order
			for fs.events.Len() > 0 {
				e := heap.Pop(&fs.events).(*event)
				if e.kind == evReady {
					continue
				}
				if e.at > now {
					now = e.at
				}
				if err := fs.dispatch(ctx, e); err != nil {
					// A delayed migration/steal landing can find its
					// destination full; real runs dispatch promptly. The
					// request is dropped, the views stay consistent.
					if e.kind != evMigrated && e.kind != evStolen {
						t.Fatalf("op %d: dispatch kind %d: %v", op, int(e.kind), err)
					}
				}
			}
		case c < 87:
			fs.provision(now, 1+next(2))
		case c < 94:
			fs.drainIdle(now, 1+next(2))
		default:
			fs.trySteal(now)
		}
		auditViews(t, op, fs)
		auditDecisions(t, op, fs, probes[op%len(probes)], now)
	}
}

// auditShorthand pins each load-balancing policy of the shorthand
// against its scan at the current state, from every round-robin cursor.
func auditShorthand(t *testing.T, op int, fs *fleetSim, a workload.Arrival) {
	t.Helper()
	loads := linearLoads(fs, a.Req)
	if lin, idx := (leastTokens{}).Place(a, loads), (leastTokens{}).placeIndexed(fs, a); lin != idx {
		t.Fatalf("op %d: least-tokens linear %d, indexed %d", op, lin, idx)
	}
	if lin, idx := (sessionAffinity{}).Place(a, loads), (sessionAffinity{}).placeIndexed(fs, a); lin != idx {
		t.Fatalf("op %d: session %d linear %d, indexed %d", op, a.Session, lin, idx)
	}
	for start := 0; start <= len(fs.decoders); start++ {
		x, y := &roundRobin{next: start}, &roundRobin{next: start}
		if lin, idx := x.Place(a, loads), y.placeIndexed(fs, a); lin != idx || x.next != y.next {
			t.Fatalf("op %d: round-robin(next=%d) linear (%d,%d), indexed (%d,%d)",
				op, start, lin, x.next, idx, y.next)
		}
	}
}

// TestShorthandViewsOracle is the per-decision oracle for the
// shorthand's load-balancing policies: a randomized driver takes a
// tight-budget decode-only fleet through placements under each policy
// and single engine steps, preemptions included, auditing every index
// and each policy's pick against its scan after each operation.
func TestShorthandViewsOracle(t *testing.T) {
	fs, err := newFleetSim(Config{System: tightSystem(), Replicas: 4, Policy: RoundRobin(), SingleStep: true}, 512)
	if err != nil {
		t.Fatal(err)
	}
	policies := []Placement{RoundRobin(), LeastOutstandingTokens(), SessionAffinity()}
	ctx := t.Context()
	s := uint64(2027)
	next := func(m int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(m))
	}
	now := 0.0
	id := 0
	preempted := 0
	for op := 0; op < 600; op++ {
		if c := next(100); c < 45 { // arrive under one of the policies
			id++
			now += 0.001 * float64(next(8))
			rec := &record{req: workload.Request{ID: id, Context: 16 + next(300), Decode: 4 + next(48)},
				arrival: now, session: next(7), replica: -1}
			if next(6) == 0 {
				rec.req.Decode = 2000 + next(1000) // pressure the tight pool
			}
			fs.recs[id] = rec
			fs.placement = policies[next(len(policies))]
			fs.indexed = fs.placement.(indexedPlacement)
			dst := fs.place(rec)
			if dst < 0 {
				t.Fatalf("op %d: %s held a request", op, fs.placement.Name())
			}
			if err := fs.prefillOn(dst, rec, now); err != nil {
				t.Fatalf("op %d: enqueue on %d: %v", op, dst, err)
			}
		} else { // step one busy replica
			busy := make([]int, 0, len(fs.decoders))
			for i, d := range fs.decoders {
				if !d.eng.Idle() {
					busy = append(busy, i)
				}
			}
			if len(busy) == 0 {
				continue
			}
			i := busy[next(len(busy))]
			d := fs.decoders[i]
			res, err := fs.step(ctx, &d.replica, math.Inf(1))
			if err != nil {
				t.Fatalf("op %d: step replica %d: %v", op, i, err)
			}
			preempted += len(res.Preempted)
			if d.clock > now {
				now = d.clock
			}
			if err := fs.onStep(i, res); err != nil {
				t.Fatalf("op %d: onStep: %v", op, err)
			}
		}
		auditViews(t, op, fs)
		auditShorthand(t, op, fs, workload.Arrival{Req: workload.Request{ID: 1 << 20, Context: 16, Decode: 8}, Session: next(7)})
	}
	if preempted == 0 {
		t.Error("the driver never preempted; the queue states stayed trivial")
	}
}

// TestPickPrefillMatchesLinear pins the prefill-server index against
// the earliest-free scan as servers take staggered prompts.
func TestPickPrefillMatchesLinear(t *testing.T) {
	cfg := Config{
		Fleet: []ReplicaSpec{
			{System: testSystem(), Count: 4, Role: RolePrefill},
			{System: testSystem(), Count: 1, Role: RoleDecode},
		},
		Interconnect: timing.DefaultInterconnect(),
	}
	fs, err := newFleetSim(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(5)
	next := func(m int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(m))
	}
	now := 0.0
	for op := 0; op < 200; op++ {
		lin := 0
		for pi := 1; pi < len(fs.prefills); pi++ {
			if fs.prefills[pi].free < fs.prefills[lin].free {
				lin = pi
			}
		}
		got := fs.pickPrefill()
		if got != lin {
			t.Fatalf("op %d: pickPrefill %d, want %d", op, got, lin)
		}
		p := fs.prefills[got]
		p.serve(now, 64+next(2048))
		fs.touchPrefill(got, p)
		now += 0.001 * float64(next(5))
	}
}

// TestHeldQueueChurn floods a deliberately starved single-replica fleet
// so well over a thousand requests pass through the global held queue
// — the hold/retry pattern that was O(n²) on the slice-backed queue —
// and requires strict FCFS service to completion.
func TestHeldQueueChurn(t *testing.T) {
	small := testSystem()
	// One admitted request's horizon nearly fills the tiny pool, so the
	// replica serves one request at a time and every arrival after the
	// first admission is held until a completion frees the pool.
	small.KVBudgetBytes = 40 << 20
	const n = 1200
	arr := make([]workload.Arrival, n)
	for i := range arr {
		arr[i] = workload.Arrival{At: float64(i) * 1e-4, Req: workload.Request{ID: i + 1, Context: 16, Decode: 50}}
	}
	rep := run(t, Config{
		Fleet: []ReplicaSpec{{System: small, Count: 1, Role: RoleUnified}},
		SLO:   SLO{TTFT: 1000, TBT: 1000},
	}, arr)
	if rep.Requests != n {
		t.Fatalf("served %d of %d", rep.Requests, n)
	}
	if rep.Fleet.Held < n/2 {
		t.Fatalf("held only %d of %d: the scenario did not churn the global queue", rep.Fleet.Held, n)
	}
}
