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

// tracker owns the per-request records and how an engine call becomes
// per-token timestamps. It is the half of the simulator that does not
// know about routing, so placement, handoff and migration policies can
// differ while every timestamp — read off the engine's clock — stays
// shared and byte-identical.
type tracker struct {
	recs map[int]*record
}

// step advances an engine by one call — a single decode iteration, or a
// multi-iteration leap bounded by until and, for its quiet iterations,
// by quiet (see cluster.Engine.Leap) — and stamps the resulting events.
// The engine result is returned so the scheduler can react to per-call
// events (migration decisions, completions).
func (tk *tracker) step(ctx context.Context, eng *cluster.Engine, until, quiet float64) (cluster.StepResult, error) {
	res, err := eng.Leap(ctx, until, quiet)
	if err != nil {
		return res, err
	}
	tk.apply(res, eng.Clock())
	return res, nil
}

// apply folds one engine call into the per-request records; end is the
// engine's clock after the call. A call has no mid-call batch changes,
// so every Generated id gains res.Iterations tokens, and a request's
// count can only reach one on the call's first iteration: its first
// token is stamped at res.FirstEnd. The token count decides, not the
// first==0 sentinel, which a first iteration ending at simulated time
// exactly zero would leave unset for later tokens to re-stamp.
// Completions are stamped at the call's end.
func (tk *tracker) apply(res cluster.StepResult, end float64) {
	for _, id := range res.Generated {
		rec := tk.recs[id]
		if rec.tokens == 0 {
			rec.first = res.FirstEnd
		}
		rec.tokens += res.Iterations
	}
	for _, q := range res.Completed {
		tk.recs[q.ID].done = end
	}
}
