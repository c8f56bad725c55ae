package cluster

import (
	"context"
	"fmt"
	"math"

	"pimphony/internal/backend"
	"pimphony/internal/energy"
	"pimphony/internal/perfmodel"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// Engine drives a System one decode iteration at a time: the one decode
// loop, which the online serving simulator (internal/serve) steps event
// by event and Run drains over a fixed decode window. An Engine accepts
// requests as they arrive (Enqueue), admits them against the configured
// KV allocator at iteration boundaries, retires each request once it has
// generated its own Decode length (continuous batching), and reports
// per-step events — who was admitted, who generated a token, who
// completed — from which the caller reconstructs per-request admission
// and completion timestamps.
//
// The engine also owns the serving-side failure mode static allocation
// buys its way out of by over-reserving: under DPA, lazy chunk growth
// can exhaust the pool mid-decode. When a request cannot grow, the
// engine preempts — the youngest admitted request is evicted back to
// the head of the queue, its chunks freed, and on re-admission its KV
// cache (prompt plus every token generated so far) is recomputed on the
// decode engine, stalling the iteration by that prefill time.
type Engine struct {
	sys   *System
	ad    *admitter
	grown map[int]int
	seen  map[int]bool
	// preempted marks evicted requests awaiting re-admission; the entry
	// is cleared when the recompute cost is charged.
	preempted map[int]bool
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
	// aggregate (0 = unbounded). The analytic event horizon only knows
	// about this engine's own events; a fleet scheduler that injects
	// external events (migration arrivals, handoffs) mid-drain sets a
	// clamp so a drain leap cannot run arbitrarily far past the next
	// global event, without falling back to SingleStep.
	horizon int
	// timeScale multiplies every priced duration (decode iterations and
	// KV recompute charges) — the fleet's transient-slowdown fault mode.
	// 1 is the identity; scaling changes only durations, never which
	// iteration admits, generates or retires, so leap partitioning (and
	// with it single-step equivalence) is preserved at any scale.
	timeScale float64
	// per-iteration energy accrual on the backend's model (zero for
	// backends outside it, e.g. the GPU); the fleet report derives
	// joules/token from it.
	attnE, fcE energy.Breakdown
	// scratch buffers reused across Step/Leap calls (the step loop's
	// allocation diet): the batch snapshot, the Generated event list,
	// the batch-order token counts the stepper prices, the leap's ID
	// list and its iteration durations.
	batchScratch []workload.Request
	genScratch   []int
	tokScratch   []int
	idScratch    []int
	secScratch   []float64
}

// StepResult reports what one decode iteration did.
type StepResult struct {
	// Seconds is the simulated duration of this iteration — the decode
	// step plus any KV recompute charged for re-admitted preempted
	// requests (RecomputeSeconds); zero when the engine was idle (no
	// admitted requests).
	Seconds float64
	// RecomputeSeconds is the KV-rebuild time charged this step for
	// preempted requests re-entering the batch (already included in
	// Seconds).
	RecomputeSeconds float64
	// Batch is the number of active requests that decoded this step.
	Batch int
	// Admitted lists requests admitted at the start of this step. Their
	// first token is usually generated by this same iteration, but not
	// always: under DPA memory pressure a just-admitted request can
	// freeze before its first Grow — derive first-token timestamps from
	// Generated, not from Admitted.
	Admitted []workload.Request
	// Generated lists the IDs that emitted a token this step. A request
	// out of KV headroom freezes (no token) until memory frees up, so
	// Generated can be shorter than Batch. The slice's backing array is
	// reused by the next Step/Leap call — consume it before stepping
	// again (copy it to retain).
	Generated []int
	// Iterations is the number of decode iterations this result
	// aggregates: 1 for Step, N >= 2 when Leap fast-forwarded a stable
	// batch through N event-free iterations.
	Iterations int
	// IterSeconds lists each aggregated iteration's duration in order
	// (their sum is Seconds) when Iterations > 1, and is nil for
	// single-iteration results. Every ID in Generated emitted one token
	// per iteration; serving callers replay the durations to
	// reconstruct exact per-token timestamps inside a leap. Like
	// Generated, the backing array is reused by the next Step/Leap.
	IterSeconds []float64
	// Preempted lists requests evicted back to the queue this step
	// because the pool could not grow the batch. Their KV chunks are
	// freed; tokens already generated stay generated (the KV behind them
	// is recomputed on re-admission).
	Preempted []workload.Request
	// Completed lists requests retired at the end of this step, their KV
	// memory released: either they finished their generation length, or
	// their KV cache reached the context window (T_max) and generation
	// was truncated — a real serving system force-stops at the window.
	// Callers wanting exact token counts should count Generated events
	// rather than assume Decode tokens per completion.
	Completed []workload.Request
}

// NewEngine builds a step-level serving engine over this system's
// admission policy and performance model. Every registered backend is
// servable: the engine admits against the backend's allocator (DPA
// chunks, static T_max regions, or the GPU's paged pool) and prices
// iterations through the backend's Stepper, so the GPU baseline gets the
// same admission, preemption and serving metrics as the PIM systems.
func (s *System) NewEngine() (*Engine, error) {
	grown := make(map[int]int)
	ad, err := s.newAdmitter(grown)
	if err != nil {
		return nil, err
	}
	return &Engine{sys: s, ad: ad, grown: grown, seen: make(map[int]bool),
		preempted: make(map[int]bool), timeScale: 1}, nil
}

// Enqueue appends a request to the FCFS admission queue. Requests must
// have a positive generation length (Decode) — it is the completion
// condition — and a unique ID within this engine's lifetime.
func (e *Engine) Enqueue(r workload.Request) error {
	if r.Decode <= 0 {
		return fmt.Errorf("cluster %s: request %d needs Decode > 0 to serve", e.sys.cfg.Name, r.ID)
	}
	if r.Context >= e.sys.tmax() {
		return fmt.Errorf("cluster %s: request %d context %d cannot emit a token within T_max %d",
			e.sys.cfg.Name, r.ID, r.Context, e.sys.tmax())
	}
	if e.seen[r.ID] {
		return fmt.Errorf("cluster %s: duplicate request ID %d", e.sys.cfg.Name, r.ID)
	}
	e.seen[r.ID] = true
	e.ad.pending = append(e.ad.pending, r)
	e.outstanding += r.Decode
	return nil
}

// Active is the number of admitted, still-decoding requests.
func (e *Engine) Active() int { return len(e.ad.active) }

// Pending is the number of enqueued, not-yet-admitted requests.
func (e *Engine) Pending() int { return len(e.ad.pending) }

// Idle reports whether the engine has no work at all.
func (e *Engine) Idle() bool { return len(e.ad.active) == 0 && len(e.ad.pending) == 0 }

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

// AllocName is the configured KV allocation scheme ("static" or "dpa").
func (e *Engine) AllocName() string { return e.ad.alloc.Name() }

// KVPoolBytes is this replica's KV capacity budget (pool after weights,
// capped by Config.KVBudgetBytes).
func (e *Engine) KVPoolBytes() int64 { return e.ad.alloc.CapacityBytes() }

// sampleCapacity updates the live/reserved high-water marks.
func (e *Engine) sampleCapacity() {
	if l := e.ad.alloc.LiveBytes(); l > e.peakLive {
		e.peakLive = l
	}
	if r := e.ad.alloc.ReservedBytes(); r > e.peakReserved {
		e.peakReserved = r
	}
}

// preemptYoungest evicts the most recently admitted request back to the
// head of the queue, freeing its KV chunks. Its generation progress is
// kept — the tokens were already emitted — but the KV behind them must
// be recomputed when it re-admits.
func (e *Engine) preemptYoungest() (workload.Request, error) {
	victim := e.ad.active[len(e.ad.active)-1]
	if err := e.ad.requeueFront(victim.ID); err != nil {
		return workload.Request{}, err
	}
	e.preempted[victim.ID] = true
	e.preemptions++
	return victim, nil
}

// Step admits pending requests FCFS, prices one decode iteration for the
// active batch, grows every request by one token and retires the ones
// that reached their generation length. When a request cannot grow — DPA
// lazy allocation exhausted the pool mid-decode — the engine preempts
// the youngest admitted request and retries, so older requests keep
// making progress. An idle engine (nothing active, nothing admissible)
// returns a zero StepResult; a pending request that cannot be admitted
// even into an empty system is an error, as is a batch that can neither
// generate, complete nor preempt (KV livelock).
func (e *Engine) Step(ctx context.Context) (StepResult, error) {
	s := e.sys
	var res StepResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	before := len(e.ad.active)
	e.ad.fill()
	if admitted := e.ad.active[before:]; len(admitted) > 0 {
		res.Admitted = append([]workload.Request(nil), admitted...)
	}
	// Charge the KV recompute for preempted requests re-entering the
	// batch: the prompt and the tokens generated before eviction are
	// re-prefilled on this engine before the iteration proceeds.
	for _, r := range res.Admitted {
		if e.preempted[r.ID] {
			delete(e.preempted, r.ID)
			rc := s.PrefillSeconds(r.Context + e.grown[r.ID])
			if e.timeScale != 1 {
				rc *= e.timeScale
			}
			res.RecomputeSeconds += rc
		}
	}
	// Snapshot the batch: preemption mutates the active slice mid-loop.
	// (Scratch-backed — the snapshot lives only for this step.)
	batch := append(e.batchScratch[:0], e.ad.active...)
	e.batchScratch = batch
	res.Batch = len(batch)
	res.Iterations = 1
	if len(batch) > e.maxActive {
		e.maxActive = len(batch)
	}
	if len(batch) == 0 {
		if len(e.ad.pending) > 0 {
			r := e.ad.pending[0]
			return res, fmt.Errorf("cluster %s: request %d (context %d, decode %d) does not fit even in an empty system",
				s.cfg.Name, r.ID, r.Context, r.Decode)
		}
		return res, nil // idle
	}
	e.sampleCapacity()
	cost, err := s.iterate(ctx, e.liveTokens(batch))
	if err != nil {
		return res, err
	}
	res.Seconds = e.account(cost, len(batch), res.RecomputeSeconds)
	// Advance every request by one generated token, growing its KV to
	// the exact live token count. A failed Grow (DPA pool exhausted)
	// preempts the youngest admitted request and retries until the
	// grower succeeds or is itself the victim. This growth step is the
	// one part of an iteration fastForward does not share: a leap stays
	// inside the allocator's budget, so it commits one Grow per request
	// that cannot fail.
	res.Generated = e.genScratch[:0]
	for _, r := range batch {
		if !e.ad.isActive(r.ID) {
			continue // evicted earlier this step
		}
		e.grown[r.ID]++
		growErr := e.ad.alloc.Grow(r.ID, r.Context+e.grown[r.ID])
		for growErr != nil && len(e.ad.active) > 1 {
			victim, perr := e.preemptYoungest()
			if perr != nil {
				return res, perr
			}
			res.Preempted = append(res.Preempted, victim)
			if victim.ID == r.ID {
				break // the grower itself lost; its token is not emitted
			}
			growErr = e.ad.alloc.Grow(r.ID, r.Context+e.grown[r.ID])
		}
		if growErr != nil {
			e.grown[r.ID]-- // frozen (sole survivor) or evicted mid-growth
			continue
		}
		res.Generated = append(res.Generated, r.ID)
		e.generated++
		e.outstanding--
	}
	e.genScratch = res.Generated
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
func (e *Engine) liveTokens(batch []workload.Request) []int {
	toks := e.tokScratch[:0]
	for _, r := range batch {
		toks = append(toks, r.Context+e.grown[r.ID])
	}
	e.tokScratch = toks
	return toks
}

// account books one priced iteration over a batch of n requests: the
// utilization counters, energy, the time scale, the totals, blocked time
// and the step count. It returns the iteration's duration, including
// the recompute charge for re-admitted requests.
func (e *Engine) account(cost backend.StepCost, n int, recompute float64) float64 {
	s := e.sys
	e.busy += cost.Stats.Busy
	e.span += cost.Stats.Cycles
	e.channels = cost.Stats.Channels
	e.attnShare += cost.AttnShare
	ae, fe := s.be.IterEnergy(s.env, cost, n)
	e.attnE.Add(ae)
	e.fcE.Add(fe)
	sec := cost.Seconds
	if e.timeScale != 1 {
		sec *= e.timeScale
	}
	sec += recompute
	e.totalSec += sec
	e.recomputeSec += recompute
	if len(e.ad.pending) > 0 {
		e.blockedSec += sec
	}
	e.steps++
	return sec
}

// retire releases the batch members still active that reached their
// generation length or the context window (truncated generation: a real
// serving system force-stops at T_max), in batch order. It collects
// first, because release mutates the active slice.
func (e *Engine) retire(batch []workload.Request) ([]workload.Request, error) {
	tmax := e.sys.tmax()
	var done []workload.Request
	for _, r := range batch {
		if g := e.grown[r.ID]; e.ad.isActive(r.ID) && (g >= r.Decode || r.Context+g >= tmax) {
			done = append(done, r)
		}
	}
	for _, r := range done {
		if err := e.ad.release(r.ID); err != nil {
			return nil, err
		}
		e.outstanding -= r.Decode - e.grown[r.ID] // T_max truncation leaves a remainder
		delete(e.grown, r.ID)
	}
	return done, nil
}

// Leap advances the engine exactly as repeated Step calls would, but
// fast-forwards through stretches where no serving event can occur: when
// the batch is stable (nothing admissible, nothing completing) it
// computes the event horizon analytically and prices N iterations in one
// call against the memoized stepper, skipping the per-step admission
// checks, map traffic and allocator probes. now is the caller's current
// simulated time and until the time it is advancing toward (+Inf to
// drain): the leap stops with the first iteration that ends at or past
// until, mirroring the one-step advance loop, so clocks and event
// timestamps are bit-identical to single stepping. When no leap is
// possible (an event is at most one iteration away), Leap degenerates to
// Step. A SetHorizon clamp additionally caps the iteration count, for
// callers that inject events the analytic horizon cannot see.
func (e *Engine) Leap(ctx context.Context, now, until float64) (StepResult, error) {
	n := e.leapDistance()
	if n < 2 {
		return e.Step(ctx)
	}
	return e.fastForward(ctx, n, now, until)
}

// leapDistance is the analytic event horizon: how many iterations can
// run before an event requires the full Step path. The horizon is the
// minimum over every active request of its tokens to completion, to
// T_max truncation and to the next perfmodel quantization-bucket
// crossing, then the SetHorizon clamp, and over the batch of the
// allocator's lockstep growth budget (the next chunk/page allocation —
// the preemption trigger), which the allocator need only probe up to the
// bound so far. Zero when the engine is idle or the next iteration may
// admit a pending request.
func (e *Engine) leapDistance() int {
	ad := e.ad
	if len(ad.active) == 0 || ad.wouldAdmit() {
		return 0
	}
	tmax := e.sys.tmax()
	n := math.MaxInt
	ids := e.idScratch[:0]
	for _, r := range ad.active {
		g := e.grown[r.ID]
		tok := r.Context + g
		if d := r.Decode - g; d < n {
			n = d // next completion
		}
		if d := tmax - tok; d < n {
			n = d // T_max truncation
		}
		if end := perfmodel.BucketEnd(tok); end != math.MaxInt {
			if d := end - tok + 1; d < n {
				n = d // quantization-bucket crossing
			}
		}
		ids = append(ids, r.ID)
	}
	e.idScratch = ids
	if e.horizon > 0 && n > e.horizon {
		n = e.horizon
	}
	if n < 2 {
		return n
	}
	return ad.alloc.GrowBudget(ids, n) // next allocation boundary (chunk/page growth)
}

// fastForward prices n event-free iterations in one pass. The per-step
// bookkeeping collapses to a token-slice increment and the stepper
// call; growth is committed as one batched Grow per request at
// the end (within the allocator's budget, so it cannot allocate or
// fail), followed by the same retire check a naive step ends with.
func (e *Engine) fastForward(ctx context.Context, n int, now, until float64) (StepResult, error) {
	s := e.sys
	var res StepResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	batch := append(e.batchScratch[:0], e.ad.active...)
	e.batchScratch = batch
	res.Batch = len(batch)
	e.sampleCapacity()
	// Materialize token counts once; the per-iteration advance is a
	// slice increment instead of per-request map traffic.
	toks := e.liveTokens(batch)
	res.IterSeconds = e.secScratch[:0]
	for i := 0; i < n && (i == 0 || now < until); i++ {
		cost, err := s.iterate(ctx, toks)
		if err != nil {
			return res, err
		}
		sec := e.account(cost, len(batch), 0)
		res.IterSeconds = append(res.IterSeconds, sec)
		res.Seconds += sec
		now += sec
		for j := range toks {
			toks[j]++
		}
	}
	e.secScratch = res.IterSeconds
	res.Iterations = len(res.IterSeconds)
	iters := res.Iterations
	e.generated += iters * len(batch)
	e.outstanding -= iters * len(batch)
	res.Generated = e.genScratch[:0]
	for i, r := range batch {
		e.grown[r.ID] += iters
		if err := e.ad.alloc.Grow(r.ID, toks[i]); err != nil {
			return res, fmt.Errorf("cluster %s: in-budget leap growth failed for request %d: %w",
				s.cfg.Name, r.ID, err)
		}
		res.Generated = append(res.Generated, r.ID)
	}
	e.genScratch = res.Generated
	e.sampleCapacity()
	// A leap usually ends on a completion or truncation boundary, but an
	// allocation or bucket horizon — or the until clamp — can end it with
	// everyone still decoding.
	done, err := e.retire(batch)
	if err != nil {
		return res, err
	}
	res.Completed = done
	return res, nil
}

// SetHorizon clamps every subsequent Leap to at most n iterations
// (0 removes the clamp). The clamp bounds how far a drain-phase leap
// can overshoot an externally-injected event — a fleet scheduler's
// migration arrival or KV handoff — that the engine's own analytic
// horizon cannot see. Results remain bit-identical to single stepping
// at any clamp; only the aggregation granularity changes.
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

// Progress is the number of tokens a request has generated so far
// (zero for unknown IDs). It persists across preemption — the tokens
// were emitted; only the KV behind them is gone — which is exactly the
// state a migration has to move.
func (e *Engine) Progress(reqID int) int { return e.grown[reqID] }

// FreeKVBytes is the KV pool capacity not currently reserved — the
// headroom a fleet placement policy ranks replicas by.
func (e *Engine) FreeKVBytes() int64 {
	return e.ad.alloc.CapacityBytes() - e.ad.alloc.ReservedBytes()
}

// HasHeadroom reports whether the allocator could admit the request
// right now at the serving horizon (its full generation length, clamped
// to T_max) — the same predicate admission itself uses, exposed so a
// fleet scheduler can check a destination replica before handing work
// to it. Queue order still applies at actual admission.
func (e *Engine) HasHeadroom(r workload.Request) bool {
	return e.ad.alloc.CanAdmit(e.ad.horizon(r))
}

// EnqueueResumed enqueues a request that has already generated gen
// tokens elsewhere and arrives with its KV cache intact — the receiving
// side of a fleet KV migration. It shares Enqueue's validation, seeds
// the request's progress, and — unlike a preempted re-admission — does
// not mark the request for a recompute charge: the KV was moved, not
// lost. On admission the request occupies Context+gen tokens of KV
// (admission reads the progress map) and decodes its remaining
// Decode-gen tokens.
func (e *Engine) EnqueueResumed(r workload.Request, gen int) error {
	if gen < 0 || gen >= r.Decode {
		return fmt.Errorf("cluster %s: resumed request %d has progress %d outside [0, %d)",
			e.sys.cfg.Name, r.ID, gen, r.Decode)
	}
	if r.Context+gen >= e.sys.tmax() {
		return fmt.Errorf("cluster %s: resumed request %d at %d tokens cannot emit a token within T_max %d",
			e.sys.cfg.Name, r.ID, r.Context+gen, e.sys.tmax())
	}
	if err := e.Enqueue(r); err != nil {
		return err
	}
	if gen > 0 {
		e.grown[r.ID] = gen
		e.outstanding -= gen // only the remaining tokens are owed here
	}
	return nil
}

// Withdraw removes a pending (not active) request from the queue and
// returns it with its generation progress, clearing every trace of it
// from this engine so it can be enqueued elsewhere — the sending side
// of a fleet KV migration. The canonical victim is a request the
// engine just preempted (it sits at the head of the queue with its
// progress intact); withdrawing it instead of letting it re-admit
// trades the recompute charge for the caller's transfer cost.
func (e *Engine) Withdraw(reqID int) (workload.Request, int, error) {
	if e.ad.isActive(reqID) {
		return workload.Request{}, 0, fmt.Errorf("cluster %s: cannot withdraw active request %d",
			e.sys.cfg.Name, reqID)
	}
	for i, r := range e.ad.pending {
		if r.ID != reqID {
			continue
		}
		e.ad.pending = append(e.ad.pending[:i], e.ad.pending[i+1:]...)
		gen := e.grown[reqID]
		e.outstanding -= r.Decode - gen
		delete(e.grown, reqID)
		delete(e.preempted, reqID)
		delete(e.seen, reqID)
		return r, gen, nil
	}
	return workload.Request{}, 0, fmt.Errorf("cluster %s: cannot withdraw unknown request %d",
		e.sys.cfg.Name, reqID)
}

// SetTimeScale sets the duration multiplier applied to every priced
// decode iteration and KV recompute charge from the next engine call on
// (1 restores native speed). The fleet's transient-slowdown fault mode
// drives it: a degraded replica's iterations take factor-times longer,
// which re-prices migration-vs-recompute decisions live. Scaling never
// changes which iteration admits, generates or retires — only how long
// it takes — so leap/single-step equivalence is unaffected.
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
// order), all KV is dropped, and every per-request trace is cleared so
// the lost requests can be re-enqueued here or elsewhere after
// recovery. It returns the abandoned requests with their generation
// progress and the live KV bytes that were lost. Aggregate counters
// (busy seconds, generated tokens, peaks) survive — the work happened;
// only its product is gone.
func (e *Engine) FailAll() ([]LostWork, int64, error) {
	liveLost := e.ad.alloc.LiveBytes()
	var lost []LostWork
	actives := append([]workload.Request(nil), e.ad.active...)
	for _, r := range actives {
		lost = append(lost, LostWork{Req: r, Gen: e.grown[r.ID]})
		if err := e.ad.release(r.ID); err != nil {
			return nil, 0, fmt.Errorf("cluster %s: crash release of request %d: %w", e.sys.cfg.Name, r.ID, err)
		}
	}
	for _, r := range e.ad.pending {
		lost = append(lost, LostWork{Req: r, Gen: e.grown[r.ID]})
	}
	e.ad.pending = nil
	clear(e.grown)
	clear(e.seen)
	clear(e.preempted)
	e.outstanding = 0
	return lost, liveLost, nil
}

// EnqueueRecompute enqueues a request that generated gen tokens
// elsewhere but arrives with no KV — the re-admission path after a
// replica crash. It shares EnqueueResumed's validation and progress
// seeding, and marks the request preempted so admission charges the
// full KV rebuild (prompt plus the gen tokens already generated), the
// same recompute pricing the preemption path uses.
func (e *Engine) EnqueueRecompute(r workload.Request, gen int) error {
	if err := e.EnqueueResumed(r, gen); err != nil {
		return err
	}
	e.preempted[r.ID] = true
	return nil
}

// PeekStealable returns the request StealNewest would remove — the
// newest pending request with no generation progress — without
// removing it. A scheduler peeks before committing to a steal, so it
// can check the destination's headroom (and whether the source would
// admit the request itself) while the request is still safely queued.
func (e *Engine) PeekStealable() (workload.Request, bool) {
	for i := len(e.ad.pending) - 1; i >= 0; i-- {
		r := e.ad.pending[i]
		if e.grown[r.ID] > 0 || e.preempted[r.ID] {
			continue
		}
		return r, true
	}
	return workload.Request{}, false
}

// StealNewest removes and returns the newest pending request that has
// made no generation progress — the cheapest request for another
// replica to take over, since only its prompt KV has to move and no
// recompute is forgone. Preempted requests (progress > 0) are skipped;
// they are migration candidates, not steal candidates. Returns false
// when nothing is stealable.
func (e *Engine) StealNewest() (workload.Request, bool) {
	for i := len(e.ad.pending) - 1; i >= 0; i-- {
		r := e.ad.pending[i]
		if e.grown[r.ID] > 0 || e.preempted[r.ID] {
			continue
		}
		e.ad.pending = append(e.ad.pending[:i], e.ad.pending[i+1:]...)
		e.outstanding -= r.Decode // zero progress by selection
		delete(e.seen, r.ID)
		return r, true
	}
	return workload.Request{}, false
}
