package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Arrival is one request tagged with its arrival time in an online
// serving trace. The batch window (cluster.System.RunCtx) ignores time;
// the serving simulator (internal/serve) admits requests only once the
// simulated clock reaches At.
type Arrival struct {
	Req Request
	// At is the arrival time in seconds since the start of the trace.
	At float64
	// Session groups requests that belong to one conversation; the
	// session-affinity load-balancing policy routes all requests of a
	// session to the same replica (their KV prefixes could be reused).
	Session int
}

// PoissonArrivals samples n arrivals from a Poisson process with the
// given rate (requests per second): inter-arrival gaps are exponential
// with mean 1/rate, request sizes come from gen, and each request is
// assigned to one of `sessions` session keys uniformly at random. The
// whole schedule is driven by a deterministic RNG derived from seed, so
// the same (gen seed, rate, sessions, n, seed) tuple always yields the
// same schedule — latency tables built from it are reproducible in CI.
func PoissonArrivals(gen *Generator, rate float64, sessions, n int, seed int64) ([]Arrival, error) {
	switch {
	case gen == nil:
		return nil, fmt.Errorf("workload: PoissonArrivals needs a generator")
	case !positiveFinite(rate):
		return nil, fmt.Errorf("workload: arrival rate must be positive and finite, got %g", rate)
	case sessions <= 0:
		return nil, fmt.Errorf("workload: session count must be positive, got %d", sessions)
	case n < 0:
		return nil, fmt.Errorf("workload: arrival count must be non-negative, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	arr := make([]Arrival, n)
	clock := 0.0
	for i := range arr {
		clock += rng.ExpFloat64() / rate
		arr[i] = Arrival{Req: gen.Next(), At: clock, Session: rng.Intn(sessions)}
	}
	return arr, nil
}

// positiveFinite reports whether x is a usable rate or duration: above
// zero and finite. NaN fails every comparison, so a plain x <= 0 check
// lets it through.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// MultiTurnSpec describes a multi-turn conversation workload: sessions
// whose follow-up turns re-send the whole conversation so far, so each
// turn's context is the previous turn's context plus everything
// generated plus the new user prompt — the KV cache of a session keeps
// re-extending, the long-context growth pattern chat serving must
// absorb.
type MultiTurnSpec struct {
	// Sessions is the number of conversations.
	Sessions int
	// Turns is the number of turns per conversation (later turns are
	// dropped if MaxContext would be exceeded).
	Turns int
	// Rate is the session-start rate in sessions per second (Poisson).
	Rate float64
	// ThinkMean is the mean think time in seconds between a turn's
	// arrival and the next turn of the same session (exponential).
	ThinkMean float64
	// PromptMin/PromptMax bound the extra user-prompt tokens a
	// follow-up turn appends (uniform).
	PromptMin, PromptMax int
	// MaxContext, when positive, drops the rest of a session once a
	// turn's context plus its generation would exceed it (a serving
	// system cannot admit past the model's window anyway).
	MaxContext int
}

// Validate reports inconsistent specs.
func (s MultiTurnSpec) Validate() error {
	switch {
	case s.Sessions <= 0 || s.Turns <= 0:
		return fmt.Errorf("workload: multi-turn needs positive Sessions and Turns")
	case !positiveFinite(s.Rate):
		return fmt.Errorf("workload: multi-turn session rate must be positive and finite, got %g", s.Rate)
	case !(s.ThinkMean >= 0) || math.IsInf(s.ThinkMean, 1):
		return fmt.Errorf("workload: think time must be non-negative and finite, got %g", s.ThinkMean)
	case s.PromptMin < 0 || s.PromptMax < s.PromptMin:
		return fmt.Errorf("workload: prompt-delta bounds [%d,%d] out of range", s.PromptMin, s.PromptMax)
	}
	return nil
}

// MultiTurnArrivals builds a deterministic multi-turn conversation
// schedule: session starts form a Poisson process at spec.Rate, turn-0
// contexts come from gen, and every follow-up turn re-extends its
// session's context by the previous generation plus a fresh prompt
// delta, arriving one exponential think time after the previous turn.
// Arrivals are returned sorted by time (sessions interleave); request
// IDs are session*Turns+turn, so a session's KV growth can be traced
// back from the ID.
func MultiTurnArrivals(gen *Generator, spec MultiTurnSpec, seed int64) ([]Arrival, error) {
	if gen == nil {
		return nil, fmt.Errorf("workload: MultiTurnArrivals needs a generator")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var arr []Arrival
	start := 0.0
	for s := 0; s < spec.Sessions; s++ {
		start += rng.ExpFloat64() / spec.Rate
		at := start
		ctx := gen.SampleContext()
		for turn := 0; turn < spec.Turns; turn++ {
			dec := gen.SampleDecode()
			if spec.MaxContext > 0 && ctx+dec > spec.MaxContext {
				break // the conversation outgrew the window
			}
			arr = append(arr, Arrival{
				Req:     Request{ID: s*spec.Turns + turn, Context: ctx, Decode: dec},
				At:      at,
				Session: s,
			})
			ctx += dec + spec.PromptMin + rng.Intn(spec.PromptMax-spec.PromptMin+1)
			at += rng.ExpFloat64() * spec.ThinkMean
		}
	}
	if len(arr) == 0 {
		return nil, fmt.Errorf("workload: every session outgrew MaxContext %d on turn 0", spec.MaxContext)
	}
	sort.Slice(arr, func(i, j int) bool {
		if arr[i].At != arr[j].At {
			return arr[i].At < arr[j].At
		}
		return arr[i].Req.ID < arr[j].Req.ID
	})
	return arr, nil
}

// OfferedRate is the empirical arrival rate of a schedule: requests per
// second over the span from time zero to the last arrival. It is the
// serving simulator's x-axis when plotting latency–throughput curves.
func OfferedRate(arr []Arrival) float64 {
	if len(arr) == 0 {
		return 0
	}
	last := arr[len(arr)-1].At
	if last <= 0 {
		return 0
	}
	return float64(len(arr)) / last
}
