package cluster

import (
	"context"
	"fmt"
	"math"

	"pimphony/internal/backend"
	"pimphony/internal/energy"
	"pimphony/internal/memory"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// Engine drives a System through decode iterations: the one decode loop,
// which the online serving simulator (internal/serve) advances event by
// event and Run drains over a fixed decode window. An Engine accepts
// requests as they arrive (Enqueue), admits them against the configured
// KV allocator at iteration boundaries, retires each request once it has
// generated its own Decode length (continuous batching), and reports
// per-call events — who was admitted, who generated tokens, who
// completed — from which the caller reconstructs per-request admission
// and completion timestamps.
//
// The engine owns its replica's simulated time (Clock): Leap adds each
// iteration's duration to it once, in iteration order, and Wait moves an
// idle engine forward to work that arrives later.
//
// The engine also owns the serving-side failure mode static allocation
// buys its way out of by over-reserving: under DPA, lazy chunk growth
// can exhaust the pool mid-decode. When a request cannot grow, the
// engine preempts — the youngest admitted request is evicted back to
// the head of the queue, its chunks freed, and on re-admission its KV
// cache (prompt plus every token generated so far) is recomputed on the
// decode engine, stalling the iteration by that prefill time.
type Engine struct {
	sys *System
	// clock is the engine's simulated time in seconds (see Clock).
	clock float64
	// pool tracks every admitted request's KV: DPA chunks, static T_max
	// regions or the GPU's one-token pages.
	pool *memory.Pool
	// headUsed is the head-first channel budget admitted requests hold
	// (the sum of their entries' head charges).
	headUsed int64
	// reqs holds one entry per request this engine has seen. A retired
	// request keeps its key with a nil entry, so Enqueue still rejects
	// its ID; Withdraw and FailAll drop keys.
	reqs map[int]*entry
	// pending is the FCFS admission queue, active the admitted batch in
	// admission order.
	pending, active []*entry
	// outstanding is the decode work still owed across active and
	// pending requests, maintained incrementally at every enqueue,
	// token, retirement and withdrawal so OutstandingTokens — probed
	// once per placement decision by fleet schedulers — is O(1) instead
	// of a scan over the batch and queue.
	outstanding int
	// running aggregates for utilization reporting
	busy, span timing.Cycles
	channels   int
	attnShare  float64 // Σ per-iteration attention share (Run's AttnTimeShare)
	totalSec   float64
	generated  int
	steps      int
	// capacity accounting (the serving-path Fig. 19 counterpart)
	preemptions  int
	maxActive    int
	blockedSec   float64
	recomputeSec float64
	peakLive     int64
	peakReserved int64
	// horizon optionally clamps how many iterations one Leap may
	// aggregate (0 = unbounded). Leap's bounds already end every leap at
	// the caller's next event, so the clamp changes only how many calls
	// price the same iterations; the equivalence suites vary it to pin
	// that.
	horizon int
	// timeScale multiplies every priced duration (decode iterations and
	// KV recompute charges) — the fleet's transient-slowdown fault mode.
	// 1 is the identity; scaling changes only durations, never which
	// iteration admits, generates or retires, so leap partitioning (and
	// with it one-iteration equivalence) is preserved at any scale.
	timeScale float64
	// per-iteration energy accrual on the backend's model (zero for
	// backends outside it, e.g. the GPU); the fleet report derives
	// joules/token from it.
	attnE, fcE energy.Breakdown
	// scratch buffers reused across Leap calls (the decode loop's
	// allocation diet): the batch snapshot, the Generated event list,
	// the batch-order token counts the stepper prices and advances, and
	// the leap's ID list.
	batchScratch []*entry
	genScratch   []int
	tokScratch   []int
	idScratch    []int
	// cost is the iteration the stepper last priced. It lives here
	// rather than in Leap's frame because a pointer passed through the
	// Stepper interface escapes, which would allocate it on every call.
	cost backend.StepCost
}

// entry is one request's state on an engine, from Enqueue until it
// retires or leaves (Withdraw, FailAll).
type entry struct {
	req workload.Request
	// gen is the tokens generated so far. It persists across
	// preemption: the tokens were emitted, only the KV behind them is
	// gone.
	gen int
	// head is the head-first channel budget the request holds while
	// admitted.
	head int64
	// admitted marks membership of the active batch.
	admitted bool
	// recompute marks a request whose KV must be rebuilt on admission
	// (preempted here, or lost to a crash elsewhere); admission charges
	// the prefill of its prompt plus gen and clears the mark.
	recompute bool
}

// StepResult reports what one Leap call did: one decode iteration, or a
// stable batch's run of event-free iterations. The call's last iteration
// ends at the engine's Clock.
type StepResult struct {
	// Iterations is the number of decode iterations the call priced:
	// one, more for a leap, zero when the engine was idle (no admitted
	// requests). Every ID in Generated emitted one token per iteration.
	Iterations int
	// FirstEnd is the engine clock at the end of the call's first
	// iteration, when the tokens it produced were emitted (a request's
	// first token among them); zero for an idle call.
	FirstEnd float64
	// RecomputeSeconds is the KV-rebuild time charged this call for
	// preempted requests re-entering the batch (already included in the
	// first iteration's duration).
	RecomputeSeconds float64
	// Batch is the number of active requests that decoded this call.
	Batch int
	// Admitted lists requests admitted at the start of this call, which
	// then prices one iteration. Their first token is usually generated
	// by that iteration, but not always: under DPA memory pressure a
	// just-admitted request can freeze before its first Grow — derive
	// first-token timestamps from Generated, not from Admitted.
	Admitted []workload.Request
	// Generated lists the IDs that emitted a token on every iteration of
	// this call. A request out of KV headroom freezes (no token) until
	// memory frees up, so Generated can be shorter than Batch. The
	// slice's backing array is reused by the next Leap call — consume it
	// before advancing again (copy it to retain).
	Generated []int
	// Preempted lists requests evicted back to the queue this call
	// because the pool could not grow the batch. Their KV chunks are
	// freed; tokens already generated stay generated (the KV behind them
	// is recomputed on re-admission).
	Preempted []workload.Request
	// Completed lists requests retired at the end of this call, their KV
	// memory released: either they finished their generation length, or
	// their KV cache reached the context window (T_max) and generation
	// was truncated — a real serving system force-stops at the window.
	// Callers wanting exact token counts should count Generated events
	// rather than assume Decode tokens per completion.
	Completed []workload.Request
}

// NewEngine builds a step-level serving engine over this system's
// admission policy and performance model. Every registered backend is
// servable: the engine admits against the backend's pool (DPA chunks,
// static T_max regions, or the GPU's paged pool) and prices iterations
// through the backend's Stepper, so the GPU baseline gets the same
// admission, preemption and serving metrics as the PIM systems.
func (s *System) NewEngine() (*Engine, error) {
	pool, err := s.newPool()
	if err != nil {
		return nil, err
	}
	return &Engine{sys: s, pool: pool, reqs: make(map[int]*entry), timeScale: 1}, nil
}

// Enqueue appends a request to the FCFS admission queue. Requests must
// have a prompt of at least one token, a positive generation length
// (Decode) — it is the completion condition — and a unique ID within
// this engine's lifetime.
func (e *Engine) Enqueue(r workload.Request) error {
	if r.Context < 1 {
		return fmt.Errorf("cluster %s: request %d has context %d; a prompt needs at least one token",
			e.sys.cfg.Name, r.ID, r.Context)
	}
	if r.Decode <= 0 {
		return fmt.Errorf("cluster %s: request %d needs Decode > 0 to serve", e.sys.cfg.Name, r.ID)
	}
	if r.Context >= e.sys.tmax() {
		return fmt.Errorf("cluster %s: request %d context %d cannot emit a token within T_max %d",
			e.sys.cfg.Name, r.ID, r.Context, e.sys.tmax())
	}
	if _, dup := e.reqs[r.ID]; dup {
		return fmt.Errorf("cluster %s: duplicate request ID %d", e.sys.cfg.Name, r.ID)
	}
	en := &entry{req: r}
	e.reqs[r.ID] = en
	e.pending = append(e.pending, en)
	e.outstanding += r.Decode
	return nil
}

// EnqueueResumed enqueues a request that has already generated gen
// tokens elsewhere and arrives with its KV cache intact — the receiving
// side of a fleet KV migration. It shares Enqueue's validation, seeds
// the request's progress, and — unlike a preempted re-admission — does
// not mark the request for a recompute charge: the KV was moved, not
// lost. On admission the request occupies Context+gen tokens of KV and
// decodes its remaining Decode-gen tokens. With gen 0 it validates and
// enqueues exactly as Enqueue does.
func (e *Engine) EnqueueResumed(r workload.Request, gen int) error {
	return e.resume(r, gen, false)
}

// EnqueueRecompute enqueues a request that generated gen tokens
// elsewhere but arrives with no KV — the re-admission path after a
// replica crash. It shares EnqueueResumed's validation and progress
// seeding, and marks the request so admission charges the full KV
// rebuild (prompt plus the gen tokens already generated), the same
// recompute pricing the preemption path uses.
func (e *Engine) EnqueueRecompute(r workload.Request, gen int) error {
	return e.resume(r, gen, true)
}

// resume validates a resumed request's progress, enqueues it and seeds
// its entry with gen tokens and the recompute mark. Zero progress needs
// no check of its own, so it fails exactly as Enqueue does.
func (e *Engine) resume(r workload.Request, gen int, recompute bool) error {
	if gen != 0 {
		if gen < 0 || gen >= r.Decode {
			return fmt.Errorf("cluster %s: resumed request %d has progress %d outside [0, %d)",
				e.sys.cfg.Name, r.ID, gen, r.Decode)
		}
		if r.Context+gen >= e.sys.tmax() {
			return fmt.Errorf("cluster %s: resumed request %d at %d tokens cannot emit a token within T_max %d",
				e.sys.cfg.Name, r.ID, r.Context+gen, e.sys.tmax())
		}
	}
	if err := e.Enqueue(r); err != nil {
		return err
	}
	en := e.pending[len(e.pending)-1]
	en.gen, en.recompute = gen, recompute
	e.outstanding -= gen // only the remaining tokens are owed here
	return nil
}

// Active is the number of admitted, still-decoding requests.
func (e *Engine) Active() int { return len(e.active) }

// Pending is the number of enqueued, not-yet-admitted requests.
func (e *Engine) Pending() int { return len(e.pending) }

// Idle reports whether the engine has no work at all.
func (e *Engine) Idle() bool { return len(e.active) == 0 && len(e.pending) == 0 }

// Clock is the engine's simulated time in seconds: the end of its last
// iteration, or the later time Wait moved it to while idle.
func (e *Engine) Clock() float64 { return e.clock }

// Wait moves an idle engine's clock forward to t, so work that reaches
// it at t starts no earlier. It never moves a clock back and leaves a
// busy engine alone.
func (e *Engine) Wait(t float64) {
	if e.Idle() && e.clock < t {
		e.clock = t
	}
}

// OutstandingTokens is the decode work still owed: remaining generation
// tokens across active requests plus the full generation length of every
// pending one (preempted requests keep their progress).
// Least-outstanding-tokens load balancing and fleet placement route on
// it; the count is maintained incrementally, so the probe is O(1).
func (e *Engine) OutstandingTokens() int { return e.outstanding }

// Utilization is the aggregate MAC-pipeline utilization over the
// attention phase so far (the Fig. 4 metric), zero before any step.
func (e *Engine) Utilization() float64 {
	if e.span == 0 {
		return 0
	}
	return float64(e.busy) / (float64(e.span) * float64(e.channels))
}

// Generated is the total number of decode tokens emitted so far.
func (e *Engine) Generated() int { return e.generated }

// BusySeconds is the simulated time spent decoding and recomputing
// preempted KV (idle gaps excluded).
func (e *Engine) BusySeconds() float64 { return e.totalSec }

// Steps is the number of non-idle decode iterations run so far.
func (e *Engine) Steps() int { return e.steps }

// Preemptions is the number of evictions so far: requests pushed back to
// the queue because DPA lazy growth exhausted the pool mid-decode.
func (e *Engine) Preemptions() int { return e.preemptions }

// MaxActive is the largest concurrent admitted batch observed so far —
// the online counterpart of the paper's capacity-bound batch size.
func (e *Engine) MaxActive() int { return e.maxActive }

// BlockedSeconds is the simulated time during which at least one request
// sat in the queue while the engine decoded — time spent
// admission-blocked on KV capacity.
func (e *Engine) BlockedSeconds() float64 { return e.blockedSec }

// RecomputeSeconds is the total KV-rebuild time charged for re-admitting
// preempted requests.
func (e *Engine) RecomputeSeconds() float64 { return e.recomputeSec }

// PeakLiveBytes is the high-water mark of KV bytes holding actual data.
func (e *Engine) PeakLiveBytes() int64 { return e.peakLive }

// PeakReservedBytes is the high-water mark of KV bytes unavailable to
// other requests — under static allocation the full T_max reservations,
// under DPA the mapped chunks.
func (e *Engine) PeakReservedBytes() int64 { return e.peakReserved }

// KVPoolBytes is this replica's KV capacity budget (pool after weights,
// capped by Config.KVBudgetBytes).
func (e *Engine) KVPoolBytes() int64 { return e.pool.CapacityBytes() }

// sampleCapacity updates the live/reserved high-water marks.
func (e *Engine) sampleCapacity() {
	if l := e.pool.LiveBytes(); l > e.peakLive {
		e.peakLive = l
	}
	if r := e.pool.ReservedBytes(); r > e.peakReserved {
		e.peakReserved = r
	}
}

// reach is the token count a request must be able to reach without
// eviction, used for headroom-aware admission: its whole generation
// length, clamped to T_max.
func (e *Engine) reach(r workload.Request) int {
	return min(r.Context+r.Decode, e.sys.tmax())
}

// admitFits is the admission predicate shared by fill and wouldAdmit
// (keeping the two in lockstep is what keeps a leap equivalent to one
// iteration per call):
// whether a pending request can be admitted right now — headroom to
// grow to its horizon without eviction, and under head-first placement
// (a positive HeadBudget) the per-channel head budget — plus the
// head-budget charge admission would record.
func (e *Engine) admitFits(r workload.Request) (bool, int64) {
	s := e.sys
	need := e.reach(r)
	if !e.pool.CanAdmit(need) {
		return false, 0
	}
	var head int64
	if s.adm.HeadBudget > 0 {
		// Static allocation also reserves T_max per channel tile.
		reserve := int64(s.tmax())
		if s.cfg.Tech.DPA {
			reserve = int64(need)
		}
		head = reserve * int64(s.adm.KVHeadsPerModule)
		if e.headUsed+head > s.adm.HeadBudget {
			return false, 0
		}
	}
	return true, head
}

// fill admits pending requests FCFS until the head of the queue no longer
// fits (strict in-order admission, as a serving queue would). A request
// admits at its prompt plus its progress, so a preempted request
// re-admits at its full recomputed KV size. A paged pool (the GPU's)
// packs greedily: fill scans past requests that do not fit, and the
// skipped requests keep their queue order.
func (e *Engine) fill() {
	greedy := e.sys.adm.PagedEff > 0
	var skipped []*entry
	for len(e.pending) > 0 {
		en := e.pending[0]
		fits, head := e.admitFits(en.req)
		if !fits {
			if greedy {
				skipped = append(skipped, en)
				e.pending = e.pending[1:]
				continue
			}
			break
		}
		if err := e.pool.Admit(en.req.ID, en.req.Context+en.gen); err != nil {
			break
		}
		e.headUsed += head
		en.head, en.admitted = head, true
		e.active = append(e.active, en)
		e.pending = e.pending[1:]
	}
	if len(skipped) > 0 {
		e.pending = append(skipped, e.pending...)
	}
}

// wouldAdmit reports whether fill would admit at least one pending
// request right now, without admitting it — the leap gate: a possible
// admission limits the call to one iteration. It shares fill's
// admitFits predicate, so the two cannot drift apart (a false negative
// here would break leap equivalence); a request that passes the
// predicate but fails the pool's Admit merely costs a harmless
// one-iteration call.
func (e *Engine) wouldAdmit() bool {
	if len(e.pending) == 0 {
		return false
	}
	if e.sys.adm.PagedEff > 0 {
		for _, en := range e.pending {
			if fits, _ := e.admitFits(en.req); fits {
				return true
			}
		}
		return false
	}
	fits, _ := e.admitFits(e.pending[0].req)
	return fits
}

// release frees an admitted request's KV and head budget and takes it
// out of the active batch.
func (e *Engine) release(en *entry) error {
	if err := e.pool.Release(en.req.ID); err != nil {
		return err
	}
	e.headUsed -= en.head
	en.head, en.admitted = 0, false
	for i, a := range e.active {
		if a == en {
			e.active = append(e.active[:i], e.active[i+1:]...)
			break
		}
	}
	return nil
}

// preemptYoungest evicts the most recently admitted request back to the
// head of the queue, freeing its KV chunks. Its generation progress is
// kept — the tokens were already emitted — but the KV behind them must
// be recomputed when it re-admits.
func (e *Engine) preemptYoungest() (*entry, error) {
	victim := e.active[len(e.active)-1]
	if err := e.release(victim); err != nil {
		return nil, err
	}
	e.pending = append([]*entry{victim}, e.pending...)
	victim.recompute = true
	e.preemptions++
	return victim, nil
}

// Leap is the engine's one advancing call. It admits pending requests
// FCFS, charges the KV recompute of re-admitted preempted requests,
// prices the active batch's next iteration — or, when the batch is
// stable, every iteration up to its event horizon — grows every request
// by the tokens it generated and retires the ones that reached their
// generation length. The call starts at the engine's Clock and advances
// it by each iteration's duration. Iteration i runs if it is the first,
// if it starts before until, or if it is quiet (i below leapDistance's
// quiet count, so it can neither admit, complete, truncate nor fail to
// grow) and starts before quiet. A call whose bounds are both reached
// (until and quiet <= Clock) prices exactly one iteration, and clocks
// and event timestamps are bit-identical however the caller bounds its
// calls.
//
// A call that admits, or whose bounds are already reached, prices one
// iteration. Otherwise it prices up to leapDistance iterations, the
// analytic horizon within which nothing can admit, complete, truncate or
// fail to grow; a SetHorizon clamp caps that count further. When a
// request cannot grow — DPA lazy allocation exhausted the pool
// mid-decode, which only a one-iteration call can meet — the engine
// preempts the youngest admitted request and retries, so older requests
// keep making progress. An idle engine (nothing active, nothing
// admissible) returns a zero StepResult; a pending request that cannot
// be admitted even into an empty system is an error, as is a batch that
// can neither generate, complete nor preempt (KV livelock).
func (e *Engine) Leap(ctx context.Context, until, quiet float64) (StepResult, error) {
	s := e.sys
	var res StepResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	before := len(e.active)
	e.fill()
	if admitted := e.active[before:]; len(admitted) > 0 {
		res.Admitted = make([]workload.Request, len(admitted))
		for i, en := range admitted {
			res.Admitted[i] = en.req
			// Charge the KV recompute for preempted requests re-entering
			// the batch: the prompt and the tokens generated before
			// eviction are re-prefilled on this engine before the
			// iteration proceeds.
			if en.recompute {
				en.recompute = false
				rc := s.PrefillSeconds(en.req.Context + en.gen)
				if e.timeScale != 1 {
					rc *= e.timeScale
				}
				res.RecomputeSeconds += rc
			}
		}
	}
	// Snapshot the batch: preemption mutates the active slice mid-call.
	// (Scratch-backed — the snapshot lives only for this call.)
	batch := append(e.batchScratch[:0], e.active...)
	e.batchScratch = batch
	res.Batch = len(batch)
	if len(batch) > e.maxActive {
		e.maxActive = len(batch)
	}
	if len(batch) == 0 {
		if len(e.pending) > 0 {
			r := e.pending[0].req
			return res, fmt.Errorf("cluster %s: request %d (context %d, decode %d) does not fit even in an empty system",
				s.cfg.Name, r.ID, r.Context, r.Decode)
		}
		return res, nil // idle
	}
	n, q := 1, 0
	if res.Admitted == nil && (e.clock < until || e.clock < quiet) {
		n, q = e.leapDistance()
		n = max(n, 1)
	}
	e.sampleCapacity()
	// The batch is fixed for the whole leap: the stepper resolves what
	// it fixes once, then prices each iteration and advances the token
	// counts in place.
	s.stepper.Start(e.liveTokens(batch))
	recompute := res.RecomputeSeconds
	for i := 0; i < n && (i == 0 || e.clock < until || (i < q && e.clock < quiet)); i++ {
		if err := s.stepper.Next(&e.cost); err != nil {
			return res, err
		}
		e.account(&e.cost, recompute)
		recompute = 0 // the first iteration carries the charge
		if i == 0 {
			res.FirstEnd = e.clock
		}
		res.Iterations++
	}
	// Advance every request still active by one token per iteration,
	// growing its KV to the exact live token count. A multi-iteration
	// leap stays inside the pool's growth budget, so its one Grow per
	// request cannot fail. A failed Grow after one iteration (DPA pool
	// exhausted) preempts the youngest admitted request and retries
	// until the grower succeeds or is itself the victim.
	iters := res.Iterations
	simTokens.Add(int64(iters * len(batch)))
	res.Generated = e.genScratch[:0]
	for _, en := range batch {
		if !en.admitted {
			continue // evicted earlier this call
		}
		en.gen += iters
		tok := en.req.Context + en.gen
		growErr := e.pool.Grow(en.req.ID, tok)
		for growErr != nil && iters == 1 && len(e.active) > 1 {
			victim, err := e.preemptYoungest()
			if err != nil {
				return res, err
			}
			res.Preempted = append(res.Preempted, victim.req)
			if victim == en {
				break // the grower itself lost; its token is not emitted
			}
			growErr = e.pool.Grow(en.req.ID, tok)
		}
		if growErr != nil {
			if iters > 1 {
				return res, fmt.Errorf("cluster %s: in-budget leap growth failed for request %d: %w",
					s.cfg.Name, en.req.ID, growErr)
			}
			en.gen-- // frozen (sole survivor) or evicted mid-growth
			continue
		}
		res.Generated = append(res.Generated, en.req.ID)
	}
	e.genScratch = res.Generated
	e.generated += iters * len(res.Generated)
	e.outstanding -= iters * len(res.Generated)
	e.sampleCapacity()
	done, err := e.retire(batch)
	if err != nil {
		return res, err
	}
	res.Completed = done
	if len(res.Generated) == 0 && len(done) == 0 && len(res.Preempted) == 0 {
		return res, fmt.Errorf("cluster %s: decode stalled — %d active requests all out of KV headroom",
			s.cfg.Name, len(batch))
	}
	return res, nil
}

// liveTokens lists each batch member's live KV length (prompt plus
// generated tokens) in batch order, in the engine's reused scratch.
func (e *Engine) liveTokens(batch []*entry) []int {
	toks := e.tokScratch[:0]
	for _, en := range batch {
		toks = append(toks, en.req.Context+en.gen)
	}
	e.tokScratch = toks
	return toks
}

// account books one priced iteration: the utilization counters,
// energy, the time scale, the totals, blocked time, the step count and
// the clock, which it advances by the iteration's duration, including
// the recompute charge for re-admitted requests.
func (e *Engine) account(cost *backend.StepCost, recompute float64) {
	e.busy += cost.Stats.Busy
	e.span += cost.Stats.Cycles
	e.channels = cost.Stats.Channels
	e.attnShare += cost.AttnShare
	e.attnE.Add(cost.AttnEnergy)
	e.fcE.Add(cost.FCEnergy)
	sec := cost.Seconds
	if e.timeScale != 1 {
		sec *= e.timeScale
	}
	sec += recompute
	e.totalSec += sec
	e.recomputeSec += recompute
	if len(e.pending) > 0 {
		e.blockedSec += sec
	}
	e.steps++
	e.clock += sec
}

// retire releases the batch members still active that reached their
// generation length or the context window (truncated generation: a real
// serving system force-stops at T_max), in batch order. A retired
// request keeps its key in the table with a nil entry.
func (e *Engine) retire(batch []*entry) ([]workload.Request, error) {
	tmax := e.sys.tmax()
	var done []workload.Request
	for _, en := range batch {
		if !en.admitted || (en.gen < en.req.Decode && en.req.Context+en.gen < tmax) {
			continue
		}
		if err := e.release(en); err != nil {
			return nil, err
		}
		e.outstanding -= en.req.Decode - en.gen // T_max truncation leaves a remainder
		e.reqs[en.req.ID] = nil
		done = append(done, en.req)
	}
	return done, nil
}

// leapDistance is the analytic event horizon of a non-empty batch. It
// returns n, how many iterations a leap may run before one may admit,
// complete, truncate or fail to grow, and q, how many of the next
// iterations are quiet: they can neither admit, complete, truncate at
// T_max nor fail to grow, so a call ending after one of them reports no
// admission, completion or preemption. d, the minimum over every active
// request of its tokens to completion and to T_max truncation, counts
// the iteration that completes, and the pool's lockstep growth budget g
// (the next chunk/page allocation that may fail — the preemption
// trigger), probed up to d, counts the iterations before the one that
// may fail. So n is min(d, g), then the SetHorizon clamp, and q is
// min(d-1, g). Both are zero when the next iteration may admit a pending
// request.
func (e *Engine) leapDistance() (n, q int) {
	if e.wouldAdmit() {
		return 0, 0
	}
	tmax := e.sys.tmax()
	d := math.MaxInt
	ids := e.idScratch[:0]
	for _, en := range e.active {
		d = min(d, en.req.Decode-en.gen, tmax-(en.req.Context+en.gen))
		ids = append(ids, en.req.ID)
	}
	e.idScratch = ids
	n = d
	if d > 1 {
		n = e.pool.GrowBudget(ids, d) // next allocation boundary (chunk/page growth)
	}
	q = min(d-1, n)
	if e.horizon > 0 && n > e.horizon {
		n = e.horizon
	}
	return n, q
}

// QuietUntil is a lower bound on the start of the engine's next
// iteration that may admit, complete, truncate or preempt: +Inf when the
// engine is idle, its Clock when that may be the next iteration (a
// queued request may admit, or nothing is admitted yet), and otherwise
// its Clock plus leapDistance's quiet iterations at the stepper's Floor
// for the batch. The bound is reduced by a relative 1e-9, so float
// rounding over q additions to the clock cannot overtake it. It holds
// until the engine's state changes: an enqueue, a withdrawal that
// uncovers an admissible request behind a blocked queue head, or a
// smaller SetTimeScale can lower it.
func (e *Engine) QuietUntil() float64 {
	if e.Idle() {
		return math.Inf(1)
	}
	if len(e.active) == 0 {
		return e.clock
	}
	_, q := e.leapDistance()
	if q == 0 {
		return e.clock
	}
	t := e.clock + float64(q)*e.sys.stepper.Floor(len(e.active))*e.timeScale
	return max(e.clock, t-t*1e-9)
}

// SetHorizon clamps every subsequent Leap to at most n iterations
// (0 removes the clamp; 1 prices one iteration per call). Results
// remain bit-identical at any clamp; only the aggregation granularity
// changes.
func (e *Engine) SetHorizon(n int) {
	if n < 0 {
		n = 0
	}
	e.horizon = n
}

// Energy returns the attention and FC energy accrued across every
// iteration so far, on the backend's energy model (zero breakdowns for
// backends outside it, e.g. the GPU baseline).
func (e *Engine) Energy() (attn, fc energy.Breakdown) { return e.attnE, e.fcE }

// Progress is the number of tokens a queued or admitted request has
// generated so far (zero for unknown or retired IDs). It persists
// across preemption — the tokens were emitted; only the KV behind them
// is gone — which is exactly the state a migration has to move.
func (e *Engine) Progress(reqID int) int {
	if en := e.reqs[reqID]; en != nil {
		return en.gen
	}
	return 0
}

// FreeKVBytes is the KV pool capacity not currently reserved — the
// headroom a fleet placement policy ranks replicas by.
func (e *Engine) FreeKVBytes() int64 {
	return e.pool.CapacityBytes() - e.pool.ReservedBytes()
}

// HasHeadroom reports whether the pool could admit the request right
// now at the serving horizon (its full generation length, clamped to
// T_max) — the same predicate admission itself uses, exposed so a fleet
// scheduler can check a destination replica before handing work to it.
// Queue order still applies at actual admission.
func (e *Engine) HasHeadroom(r workload.Request) bool {
	return e.pool.CanAdmit(e.reach(r))
}

// Withdraw removes a pending (not active) request from the queue and
// returns it with its generation progress, dropping its entry from this
// engine so it can be enqueued elsewhere — the sending side of a fleet
// KV migration or steal. The canonical migration victim is a request
// the engine just preempted (it sits at the head of the queue with its
// progress intact); withdrawing it instead of letting it re-admit
// trades the recompute charge for the caller's transfer cost. A steal
// withdraws the request PeekStealable returned.
func (e *Engine) Withdraw(reqID int) (workload.Request, int, error) {
	en := e.reqs[reqID]
	if en == nil {
		return workload.Request{}, 0, fmt.Errorf("cluster %s: cannot withdraw unknown request %d",
			e.sys.cfg.Name, reqID)
	}
	if en.admitted {
		return workload.Request{}, 0, fmt.Errorf("cluster %s: cannot withdraw active request %d",
			e.sys.cfg.Name, reqID)
	}
	for i, p := range e.pending {
		if p == en {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			break
		}
	}
	e.outstanding -= en.req.Decode - en.gen
	delete(e.reqs, reqID)
	return en.req, en.gen, nil
}

// SetTimeScale sets the duration multiplier applied to every priced
// decode iteration and KV recompute charge from the next engine call on
// (1 restores native speed). The fleet's transient-slowdown fault mode
// drives it: a degraded replica's iterations take factor-times longer,
// which re-prices migration-vs-recompute decisions live. Scaling never
// changes which iteration admits, generates or retires — only how long
// it takes — so leap equivalence is unaffected.
func (e *Engine) SetTimeScale(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	e.timeScale = factor
}

// LostWork is one request a crashed engine abandoned: the request plus
// the tokens it had generated before the crash. The KV behind the
// progress is gone — re-admission anywhere must recompute it.
type LostWork struct {
	Req workload.Request
	Gen int
}

// FailAll crashes the engine: every active and pending request is
// withdrawn (actives first in admission order, then the queue in FIFO
// order), all KV is dropped, and every entry is cleared so the lost
// requests can be re-enqueued here or elsewhere after recovery. It
// returns the abandoned requests with their generation progress and the
// live KV bytes that were lost. Aggregate counters (busy seconds,
// generated tokens, peaks) survive — the work happened; only its
// product is gone.
func (e *Engine) FailAll() ([]LostWork, int64, error) {
	liveLost := e.pool.LiveBytes()
	var lost []LostWork
	for _, en := range e.active {
		lost = append(lost, LostWork{Req: en.req, Gen: en.gen})
		if err := e.pool.Release(en.req.ID); err != nil {
			return nil, 0, fmt.Errorf("cluster %s: crash release of request %d: %w", e.sys.cfg.Name, en.req.ID, err)
		}
	}
	for _, en := range e.pending {
		lost = append(lost, LostWork{Req: en.req, Gen: en.gen})
	}
	e.active, e.pending = e.active[:0], nil
	e.headUsed = 0
	clear(e.reqs)
	e.outstanding = 0
	return lost, liveLost, nil
}

// PeekStealable returns the newest pending request that has made no
// generation progress — the cheapest request for another replica to take
// over, since only its prompt KV has to move and no recompute is
// forgone — without removing it. Requests with progress or a pending
// recompute are skipped; they are migration candidates, not steal
// candidates. A scheduler peeks before committing to a steal, so it can
// check the destination's headroom while the request is still safely
// queued, and then removes it with Withdraw.
func (e *Engine) PeekStealable() (workload.Request, bool) {
	for i := len(e.pending) - 1; i >= 0; i-- {
		if en := e.pending[i]; en.gen == 0 && !en.recompute {
			return en.req, true
		}
	}
	return workload.Request{}, false
}
