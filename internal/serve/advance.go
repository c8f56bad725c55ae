package serve

import (
	"context"

	"pimphony/internal/cluster"
	"pimphony/internal/workload"
)

// record tracks one request's lifecycle timestamps.
type record struct {
	req     workload.Request
	arrival float64
	session int     // the arrival's session key, for session-affine placement
	first   float64 // end of the iteration that produced token 1
	done    float64 // end of the iteration that produced the last token
	tokens  int     // tokens actually generated (Decode, unless truncated at T_max)
	replica int
	prefill float64
	// retries counts crash-loss re-admissions (faults.go); failed marks a
	// request whose retry budget ran out — it never completes and is
	// excluded from the latency samples.
	retries int
	failed  bool
}

// replica is one decode engine plus its private clock.
type replica struct {
	sys   *cluster.System
	eng   *cluster.Engine
	clock float64
	// iterScratch backs apply's single-iteration view of a plain Step
	// result, reused across steps.
	iterScratch []float64
}

// tracker owns the per-request records and the replica-advancement
// machinery — how an engine is driven and how its event stream becomes
// per-token timestamps. It is the half of the simulator that does not
// know about routing, so placement, handoff and migration policies can
// differ while the advancement semantics — and therefore every
// timestamp — stay shared and byte-identical.
type tracker struct {
	recs       map[int]*record
	singleStep bool
}

// step advances a replica by one engine call — a single decode
// iteration, or a multi-iteration leap bounded by t (the time the
// replica is advancing toward) — and stamps the resulting events with
// the replica's clock. The engine result is returned so the scheduler
// can react to per-step events (migration decisions, completions).
func (tk *tracker) step(ctx context.Context, r *replica, t float64) (cluster.StepResult, error) {
	var res cluster.StepResult
	var err error
	if tk.singleStep {
		res, err = r.eng.Step(ctx)
	} else {
		res, err = r.eng.Leap(ctx, r.clock, t)
	}
	if err != nil {
		return res, err
	}
	if res.Batch == 0 {
		return res, nil // idle; the caller advances the clock to the next event
	}
	tk.apply(res, r)
	return res, nil
}

// apply folds one engine result — single-iteration or an aggregated
// leap — into the per-request records. Replaying IterSeconds keeps
// every per-token timestamp identical to single stepping: the clock
// accumulates iteration by iteration, and a request's first token is
// stamped at the end of the iteration that produced it (its token count
// reaching one — not the first==0 sentinel, which a first iteration
// ending at simulated time exactly zero would leave unset for later
// tokens to re-stamp).
func (tk *tracker) apply(res cluster.StepResult, r *replica) {
	iters := res.IterSeconds
	if iters == nil {
		iters = r.iterScratch[:0]
		iters = append(iters, res.Seconds)
		r.iterScratch = iters
	}
	// The clock accumulates iteration by iteration (the float addition
	// order is what keeps leaps bit-identical to single stepping), but
	// the per-request fold factors out: a leap has no mid-leap batch
	// changes, so every Generated id gains exactly len(iters) tokens and
	// a request's count can only reach one on the leap's first iteration.
	end := r.clock
	firstEnd := end
	for i, d := range iters {
		end += d
		if i == 0 {
			firstEnd = end
		}
	}
	n := len(iters)
	for _, id := range res.Generated {
		rec := tk.recs[id]
		if rec.tokens == 0 {
			rec.first = firstEnd
		}
		rec.tokens += n
	}
	for _, q := range res.Completed {
		tk.recs[q.ID].done = end
	}
	r.clock = end
}
