// Rate-modulated arrival processes: traffic whose intensity changes
// over the schedule, unlike the rate-stationary Poisson/heavy-tailed
// generators. Production serving traffic is bursty on short horizons
// (an MMPP captures burst/lull alternation) and diurnal on long ones
// (a day-curve swings between a night trough and a daytime peak); both
// are what make static provisioning wasteful and SLO-driven
// autoscaling worth simulating.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// MMPPSpec parameterizes a two-state Markov-modulated Poisson process:
// arrivals follow a Poisson process whose rate alternates between a
// burst state and a lull state, with exponentially distributed dwell
// times in each. It is the standard parsimonious model for bursty
// request traffic — overdispersed relative to a Poisson process of the
// same mean rate (index of dispersion > 1).
type MMPPSpec struct {
	// RateHigh / RateLow are the arrival rates (requests/second) in the
	// burst and lull states. RateHigh must be positive and finite;
	// RateLow may be zero (complete silence between bursts) but not
	// negative.
	RateHigh, RateLow float64
	// DwellHigh / DwellLow are the mean dwell times (seconds) in each
	// state, positive and finite; actual dwells are exponential.
	DwellHigh, DwellLow float64
}

// maxSwitchesPerArrival bounds an MMPP's expected state switches per
// arrival. The sampler steps the clock once per switch, so a dwell far
// below the arrival gap (mmpp:2:1e-300) would spin through ~1e300
// switches, each moving the clock by less than its ULP. Every study
// schedule sits far below the bound (mmpp:6:8 at 3 req/s expects 0.04).
const maxSwitchesPerArrival = 1e4

// Validate reports inconsistent specs.
func (s MMPPSpec) Validate() error {
	switch {
	case !positiveFinite(s.RateHigh):
		return fmt.Errorf("workload: MMPP burst rate must be positive and finite, got %g", s.RateHigh)
	case !(s.RateLow >= 0):
		return fmt.Errorf("workload: MMPP lull rate must be non-negative, got %g", s.RateLow)
	case s.RateLow > s.RateHigh:
		return fmt.Errorf("workload: MMPP lull rate %g above burst rate %g", s.RateLow, s.RateHigh)
	case !positiveFinite(s.DwellHigh) || !positiveFinite(s.DwellLow):
		return fmt.Errorf("workload: MMPP dwell times must be positive and finite, got %g/%g", s.DwellHigh, s.DwellLow)
	case s.switchesPerArrival() > maxSwitchesPerArrival:
		return fmt.Errorf("workload: MMPP dwells %g/%g s are far below the arrival gap: %.3g expected state switches per arrival, want at most %g",
			s.DwellHigh, s.DwellLow, s.switchesPerArrival(), float64(maxSwitchesPerArrival))
	}
	return nil
}

// switchesPerArrival is the expected number of state switches per
// arrival: a high/low cycle (two switches) carries
// RateHigh·DwellHigh + RateLow·DwellLow arrivals on average.
func (s MMPPSpec) switchesPerArrival() float64 {
	return 2 / (s.RateHigh*s.DwellHigh + s.RateLow*s.DwellLow)
}

// MMPPArrivals samples n arrivals from the modulated process. The
// schedule starts in the lull state. Like PoissonArrivals, the whole
// schedule is driven by one deterministic RNG derived from seed — the
// same (gen seed, spec, sessions, n, seed) tuple always yields the
// same schedule, byte for byte, so tables built from it are
// reproducible at any sweep parallelism.
func MMPPArrivals(gen *Generator, spec MMPPSpec, sessions, n int, seed int64) ([]Arrival, error) {
	switch {
	case gen == nil:
		return nil, fmt.Errorf("workload: MMPPArrivals needs a generator")
	case sessions <= 0:
		return nil, fmt.Errorf("workload: session count must be positive, got %d", sessions)
	case n < 0:
		return nil, fmt.Errorf("workload: arrival count must be non-negative, got %d", n)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rates := [2]float64{spec.RateLow, spec.RateHigh}
	dwells := [2]float64{spec.DwellLow, spec.DwellHigh}
	state := 0 // lull first: the day starts quiet
	clock := 0.0
	stateEnd := rng.ExpFloat64() * dwells[state]
	arr := make([]Arrival, n)
	for i := range arr {
		for {
			// Candidate gap at the current state's rate; a candidate past
			// the state boundary is discarded and redrawn in the next
			// state — valid by memorylessness of the exponential. A zero
			// lull rate yields an infinite gap, i.e. silence until the
			// burst resumes.
			gap := math.Inf(1)
			if rates[state] > 0 {
				gap = rng.ExpFloat64() / rates[state]
			}
			if clock+gap > stateEnd {
				clock = stateEnd
				state = 1 - state
				stateEnd = clock + rng.ExpFloat64()*dwells[state]
				continue
			}
			clock += gap
			break
		}
		arr[i] = Arrival{Req: gen.Next(), At: clock, Session: rng.Intn(sessions)}
	}
	return arr, nil
}

// DiurnalSpec parameterizes a sinusoidal day-curve: the arrival rate
// swings around BaseRate with the given amplitude over one period,
// starting at the trough (the compressed day begins at night). It is
// the non-stationary load shape that makes fixed provisioning pay for
// peak capacity all day.
type DiurnalSpec struct {
	// BaseRate is the mean arrival rate (requests/second) over a full
	// period.
	BaseRate float64
	// Amplitude is the peak swing as a fraction of BaseRate, in [0, 1]:
	// the rate runs from BaseRate*(1-Amplitude) at the trough to
	// BaseRate*(1+Amplitude) at the peak. Zero degenerates to a
	// stationary Poisson process.
	Amplitude float64
	// PeriodSeconds is the length of one simulated day.
	PeriodSeconds float64
}

// Validate reports inconsistent specs.
func (s DiurnalSpec) Validate() error {
	switch {
	case !positiveFinite(s.BaseRate):
		return fmt.Errorf("workload: diurnal base rate must be positive and finite, got %g", s.BaseRate)
	case !(s.Amplitude >= 0 && s.Amplitude <= 1):
		return fmt.Errorf("workload: diurnal amplitude must be in [0,1], got %g", s.Amplitude)
	case !positiveFinite(s.PeriodSeconds):
		return fmt.Errorf("workload: diurnal period must be positive and finite, got %g", s.PeriodSeconds)
	case math.IsInf(s.peak(), 1):
		// Thinning draws candidates at the peak rate: an infinite one
		// never accepts a candidate.
		return fmt.Errorf("workload: diurnal peak rate %g·(1+%g) overflows", s.BaseRate, s.Amplitude)
	}
	return nil
}

// peak is the highest instantaneous rate, at the crest of the curve.
func (s DiurnalSpec) peak() float64 { return s.BaseRate * (1 + s.Amplitude) }

// Rate is the instantaneous arrival rate at time t.
func (s DiurnalSpec) Rate(t float64) float64 {
	return s.BaseRate * (1 + s.Amplitude*math.Sin(2*math.Pi*t/s.PeriodSeconds-math.Pi/2))
}

// maxRejectsPerArrival bounds thinning's run of rejected candidates.
// An amplitude at or near 1 drops the trough rate to about zero, so over
// a long period the sampler would crawl through an astronomical number
// of candidates before its first acceptance (diurnal:1e12:1 at 4 req/s
// expects ~3e8). Every study schedule uses amplitude 0.9, whose
// acceptance never falls below 1/19, so no run comes near the bound.
const maxRejectsPerArrival = 1_000_000

// DiurnalArrivals samples n arrivals from the non-homogeneous Poisson
// process by thinning: candidates are drawn at the peak rate and
// accepted with probability Rate(t)/peak. Deterministic for a given
// seed, like every schedule builder in this package. It fails once the
// rate turns NaN, where a period far below the clock pushes the phase
// past float64 and thinning would reject every candidate, and after
// maxRejectsPerArrival rejections in a row.
func DiurnalArrivals(gen *Generator, spec DiurnalSpec, sessions, n int, seed int64) ([]Arrival, error) {
	switch {
	case gen == nil:
		return nil, fmt.Errorf("workload: DiurnalArrivals needs a generator")
	case sessions <= 0:
		return nil, fmt.Errorf("workload: session count must be positive, got %d", sessions)
	case n < 0:
		return nil, fmt.Errorf("workload: arrival count must be non-negative, got %d", n)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	peak := spec.peak()
	clock := 0.0
	arr := make([]Arrival, n)
	for i := range arr {
		for rejects := 0; ; rejects++ {
			if rejects == maxRejectsPerArrival {
				return nil, fmt.Errorf("workload: diurnal thinning rejected %d candidates in a row at t=%g s (amplitude %g, period %g s)",
					rejects, clock, spec.Amplitude, spec.PeriodSeconds)
			}
			clock += rng.ExpFloat64() / peak
			rate := spec.Rate(clock)
			if math.IsNaN(rate) {
				return nil, fmt.Errorf("workload: diurnal rate is NaN at t=%g s (period %g s)", clock, spec.PeriodSeconds)
			}
			// rng.Float64 is in [0,1), so an amplitude-zero spec accepts
			// every candidate and degenerates to PoissonArrivals' shape.
			if rng.Float64()*peak <= rate {
				break
			}
		}
		arr[i] = Arrival{Req: gen.Next(), At: clock, Session: rng.Intn(sessions)}
	}
	return arr, nil
}

// ArrivalsByFlag builds an arrival schedule from the -arrivals CLI
// grammar, mirroring GeneratorByFlag's syntax. rate is the mean
// arrival rate every process is normalised to:
//
//	"" or "poisson"              stationary Poisson
//	"mmpp:<burst>[:<dwell-s>]"   two-state MMPP: the burst state runs at
//	                             burst times the lull state's rate, equal
//	                             mean dwells (default 8 s), scaled so the
//	                             time-averaged rate is rate
//	"diurnal:<period-s>[:<amp>]" sinusoidal day-curve with mean rate,
//	                             amplitude amp (default 0.8)
func ArrivalsByFlag(spec string, gen *Generator, rate float64, sessions, n int, seed int64) ([]Arrival, error) {
	if !positiveFinite(rate) {
		return nil, fmt.Errorf("workload: arrival rate must be positive and finite, got %g", rate)
	}
	if spec == "" || spec == "poisson" {
		return PoissonArrivals(gen, rate, sessions, n, seed)
	}
	if rest, ok := strings.CutPrefix(spec, "mmpp:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) > 2 {
			return nil, fmt.Errorf("workload: bad arrivals %q (want mmpp:<burst>[:<dwell-s>])", spec)
		}
		burst, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || !(burst >= 1) || math.IsInf(burst, 1) {
			return nil, fmt.Errorf("workload: bad arrivals %q: burst factor must be finite and >= 1", spec)
		}
		dwell := 8.0
		if len(parts) == 2 {
			if dwell, err = strconv.ParseFloat(parts[1], 64); err != nil || !positiveFinite(dwell) {
				return nil, fmt.Errorf("workload: bad arrivals %q: dwell must be positive, finite seconds", spec)
			}
		}
		// Lull at rate/burst, burst at rate*burst, then both scaled so
		// the equal-dwell time average is exactly rate.
		mean := (burst + 1/burst) / 2
		return MMPPArrivals(gen, MMPPSpec{
			RateHigh:  rate * burst / mean,
			RateLow:   rate / burst / mean,
			DwellHigh: dwell,
			DwellLow:  dwell,
		}, sessions, n, seed)
	}
	if rest, ok := strings.CutPrefix(spec, "diurnal:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) > 2 {
			return nil, fmt.Errorf("workload: bad arrivals %q (want diurnal:<period-s>[:<amp>])", spec)
		}
		period, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || !positiveFinite(period) {
			return nil, fmt.Errorf("workload: bad arrivals %q: period must be positive, finite seconds", spec)
		}
		amp := 0.8
		if len(parts) == 2 {
			if amp, err = strconv.ParseFloat(parts[1], 64); err != nil || !(amp >= 0 && amp <= 1) {
				return nil, fmt.Errorf("workload: bad arrivals %q: amplitude must be in [0,1]", spec)
			}
		}
		return DiurnalArrivals(gen, DiurnalSpec{BaseRate: rate, Amplitude: amp, PeriodSeconds: period}, sessions, n, seed)
	}
	return nil, fmt.Errorf("workload: unknown arrivals process %q (want poisson, mmpp:<burst>[:<dwell>], diurnal:<period>[:<amp>])", spec)
}
