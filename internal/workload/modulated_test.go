package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func modGen(t *testing.T, seed int64) *Generator {
	t.Helper()
	gen, err := HeavyTailed(256, 8192, 1.2, seed)
	if err != nil {
		t.Fatalf("HeavyTailed: %v", err)
	}
	return gen
}

// dispersionIndex is the variance-to-mean ratio of arrival counts in
// fixed windows — 1 for a Poisson process, > 1 for bursty traffic.
func dispersionIndex(arr []Arrival, window float64) float64 {
	last := arr[len(arr)-1].At
	bins := make([]float64, int(last/window)+1)
	for _, a := range arr {
		bins[int(a.At/window)]++
	}
	var mean float64
	for _, c := range bins {
		mean += c
	}
	mean /= float64(len(bins))
	var varc float64
	for _, c := range bins {
		varc += (c - mean) * (c - mean)
	}
	varc /= float64(len(bins))
	return varc / mean
}

func TestMMPPDeterminism(t *testing.T) {
	spec := MMPPSpec{RateHigh: 8, RateLow: 0.5, DwellHigh: 5, DwellLow: 5}
	a, err := MMPPArrivals(modGen(t, 3), spec, 4, 500, 11)
	if err != nil {
		t.Fatalf("MMPPArrivals: %v", err)
	}
	b, err := MMPPArrivals(modGen(t, 3), spec, 4, 500, 11)
	if err != nil {
		t.Fatalf("MMPPArrivals: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different MMPP schedules")
	}
	c, err := MMPPArrivals(modGen(t, 3), spec, 4, 500, 12)
	if err != nil {
		t.Fatalf("MMPPArrivals: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical MMPP schedules")
	}
}

func TestMMPPSchedule(t *testing.T) {
	spec := MMPPSpec{RateHigh: 8, RateLow: 0.5, DwellHigh: 5, DwellLow: 5}
	arr, err := MMPPArrivals(modGen(t, 3), spec, 4, 2000, 11)
	if err != nil {
		t.Fatalf("MMPPArrivals: %v", err)
	}
	for i, a := range arr {
		if a.At < 0 {
			t.Fatalf("arrival %d at negative time %g", i, a.At)
		}
		if i > 0 && a.At < arr[i-1].At {
			t.Fatalf("arrivals not sorted at %d (%g after %g)", i, a.At, arr[i-1].At)
		}
	}
	// Empirical rate near the dwell-weighted mean.
	want := spec.MeanRate()
	got := OfferedRate(arr)
	if got < 0.7*want || got > 1.3*want {
		t.Errorf("empirical rate %g, want within 30%% of mean %g", got, want)
	}
	// Overdispersion: the modulated process must be visibly burstier
	// than a Poisson process of the same mean rate.
	poisson, err := PoissonArrivals(modGen(t, 3), want, 4, 2000, 11)
	if err != nil {
		t.Fatalf("PoissonArrivals: %v", err)
	}
	di, dp := dispersionIndex(arr, 2), dispersionIndex(poisson, 2)
	if di < 1.5 || di < 2*dp {
		t.Errorf("MMPP dispersion index %g vs Poisson %g; want bursty (>= 1.5 and >= 2x Poisson)", di, dp)
	}
}

func TestMMPPErrors(t *testing.T) {
	gen := modGen(t, 3)
	ok := MMPPSpec{RateHigh: 8, RateLow: 0.5, DwellHigh: 5, DwellLow: 5}
	if _, err := MMPPArrivals(nil, ok, 4, 10, 1); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := MMPPArrivals(gen, ok, 0, 10, 1); err == nil {
		t.Error("zero sessions accepted")
	}
	if _, err := MMPPArrivals(gen, ok, 4, -1, 1); err == nil {
		t.Error("negative count accepted")
	}
	for _, bad := range []MMPPSpec{
		{RateHigh: 0, RateLow: 0, DwellHigh: 5, DwellLow: 5},
		{RateHigh: 4, RateLow: -1, DwellHigh: 5, DwellLow: 5},
		{RateHigh: 4, RateLow: 8, DwellHigh: 5, DwellLow: 5},
		{RateHigh: 4, RateLow: 1, DwellHigh: 0, DwellLow: 5},
	} {
		if _, err := MMPPArrivals(gen, bad, 4, 10, 1); err == nil {
			t.Errorf("invalid spec %+v accepted", bad)
		}
	}
}

func TestMMPPSilentLull(t *testing.T) {
	// A zero lull rate must not loop or misorder: arrivals cluster
	// entirely inside burst dwells.
	spec := MMPPSpec{RateHigh: 10, RateLow: 0, DwellHigh: 2, DwellLow: 2}
	arr, err := MMPPArrivals(modGen(t, 3), spec, 4, 200, 5)
	if err != nil {
		t.Fatalf("MMPPArrivals: %v", err)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].At < arr[i-1].At {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
}

func TestDiurnalDeterminism(t *testing.T) {
	spec := DiurnalSpec{BaseRate: 4, Amplitude: 0.9, PeriodSeconds: 60}
	a, err := DiurnalArrivals(modGen(t, 3), spec, 4, 500, 11)
	if err != nil {
		t.Fatalf("DiurnalArrivals: %v", err)
	}
	b, err := DiurnalArrivals(modGen(t, 3), spec, 4, 500, 11)
	if err != nil {
		t.Fatalf("DiurnalArrivals: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different diurnal schedules")
	}
	c, err := DiurnalArrivals(modGen(t, 3), spec, 4, 500, 12)
	if err != nil {
		t.Fatalf("DiurnalArrivals: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical diurnal schedules")
	}
}

func TestDiurnalShape(t *testing.T) {
	spec := DiurnalSpec{BaseRate: 4, Amplitude: 0.9, PeriodSeconds: 60}
	arr, err := DiurnalArrivals(modGen(t, 3), spec, 4, 2000, 11)
	if err != nil {
		t.Fatalf("DiurnalArrivals: %v", err)
	}
	// Peak half-periods (phase [0.25, 0.75) of each day, around the
	// sine's maximum at phase 0.5) must out-arrive trough halves.
	var peak, trough float64
	for i, a := range arr {
		if a.At < 0 || (i > 0 && a.At < arr[i-1].At) {
			t.Fatalf("bad arrival time at %d", i)
		}
		phase := math.Mod(a.At, spec.PeriodSeconds) / spec.PeriodSeconds
		if phase >= 0.25 && phase < 0.75 {
			peak++
		} else {
			trough++
		}
	}
	if peak < 1.5*trough {
		t.Errorf("peak-half arrivals %g vs trough-half %g; want day-curve concentration (>= 1.5x)", peak, trough)
	}
	// The thinning must preserve the mean rate.
	got := OfferedRate(arr)
	if got < 0.7*spec.BaseRate || got > 1.3*spec.BaseRate {
		t.Errorf("empirical rate %g, want within 30%% of base %g", got, spec.BaseRate)
	}
	// Instantaneous rate bounds.
	if r := spec.Rate(0); r > 0.11*spec.BaseRate {
		t.Errorf("trough rate %g, want ~BaseRate*(1-Amplitude)=%g", r, spec.BaseRate*(1-spec.Amplitude))
	}
}

func TestDiurnalErrors(t *testing.T) {
	gen := modGen(t, 3)
	for _, bad := range []DiurnalSpec{
		{BaseRate: 0, Amplitude: 0.5, PeriodSeconds: 60},
		{BaseRate: 4, Amplitude: -0.1, PeriodSeconds: 60},
		{BaseRate: 4, Amplitude: 1.1, PeriodSeconds: 60},
		{BaseRate: 4, Amplitude: 0.5, PeriodSeconds: 0},
	} {
		if _, err := DiurnalArrivals(gen, bad, 4, 10, 1); err == nil {
			t.Errorf("invalid spec %+v accepted", bad)
		}
	}
	if _, err := DiurnalArrivals(nil, DiurnalSpec{BaseRate: 4, Amplitude: 0.5, PeriodSeconds: 60}, 4, 10, 1); err == nil {
		t.Error("nil generator accepted")
	}
}

func TestArrivalsByFlag(t *testing.T) {
	for _, spec := range []string{"", "poisson", "mmpp:4", "mmpp:4:2", "diurnal:60", "diurnal:60:0.5"} {
		arr, err := ArrivalsByFlag(spec, modGen(t, 3), 4, 4, 50, 9)
		if err != nil {
			t.Errorf("ArrivalsByFlag(%q): %v", spec, err)
			continue
		}
		if len(arr) != 50 {
			t.Errorf("ArrivalsByFlag(%q): %d arrivals, want 50", spec, len(arr))
		}
		// Byte-determinism across calls, the property sweeps rely on.
		again, err := ArrivalsByFlag(spec, modGen(t, 3), 4, 4, 50, 9)
		if err != nil || !reflect.DeepEqual(arr, again) {
			t.Errorf("ArrivalsByFlag(%q) not deterministic", spec)
		}
	}
	for _, bad := range []string{"mmpp", "mmpp:0.5", "mmpp:4:0", "mmpp:4:2:9", "diurnal", "diurnal:0", "diurnal:60:2", "weibull:3"} {
		if _, err := ArrivalsByFlag(bad, modGen(t, 3), 4, 4, 50, 9); err == nil {
			t.Errorf("ArrivalsByFlag(%q): want error", bad)
		}
	}
}

func TestMMPPMeanRateNormalisation(t *testing.T) {
	// The mmpp:<burst> grammar promises a time-averaged rate equal to
	// the -rate argument.
	arr, err := ArrivalsByFlag("mmpp:4:2", modGen(t, 3), 6, 4, 4000, 21)
	if err != nil {
		t.Fatalf("ArrivalsByFlag: %v", err)
	}
	got := OfferedRate(arr)
	if got < 0.75*6 || got > 1.25*6 {
		t.Errorf("empirical mmpp rate %g, want ~6", got)
	}
}

// TestNonFiniteArrivalInputs feeds NaN and infinite rates, bursts,
// dwells, periods and amplitudes to every schedule builder, plus an
// MMPP dwell so far below the arrival gap that each state switch moves
// the clock by less than its ULP. NaN passes any x <= 0 check, and
// before these checks some of the inputs hung the samplers, so each
// case runs against a deadline: a regression fails here instead of
// hanging the suite.
func TestNonFiniteArrivalInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type buildCase struct {
		name  string
		build func(*Generator) ([]Arrival, error)
	}
	mmpp := func(name string, spec MMPPSpec) buildCase {
		return buildCase{name, func(gen *Generator) ([]Arrival, error) { return MMPPArrivals(gen, spec, 4, 10, 1) }}
	}
	diurnal := func(name string, spec DiurnalSpec) buildCase {
		return buildCase{name, func(gen *Generator) ([]Arrival, error) { return DiurnalArrivals(gen, spec, 4, 10, 1) }}
	}
	multiTurn := func(name string, spec MultiTurnSpec) buildCase {
		return buildCase{name, func(gen *Generator) ([]Arrival, error) { return MultiTurnArrivals(gen, spec, 1) }}
	}
	cases := []buildCase{
		{"poisson rate nan", func(gen *Generator) ([]Arrival, error) { return PoissonArrivals(gen, nan, 4, 10, 1) }},
		{"poisson rate inf", func(gen *Generator) ([]Arrival, error) { return PoissonArrivals(gen, inf, 4, 10, 1) }},
		mmpp("mmpp burst rate nan", MMPPSpec{RateHigh: nan, RateLow: 1, DwellHigh: 5, DwellLow: 5}),
		mmpp("mmpp burst rate inf", MMPPSpec{RateHigh: inf, RateLow: 1, DwellHigh: 5, DwellLow: 5}),
		mmpp("mmpp lull rate nan", MMPPSpec{RateHigh: 4, RateLow: nan, DwellHigh: 5, DwellLow: 5}),
		mmpp("mmpp dwell nan", MMPPSpec{RateHigh: 4, RateLow: 1, DwellHigh: nan, DwellLow: 5}),
		mmpp("mmpp dwell inf", MMPPSpec{RateHigh: 4, RateLow: 1, DwellHigh: 5, DwellLow: inf}),
		diurnal("diurnal base rate nan", DiurnalSpec{BaseRate: nan, Amplitude: 0.5, PeriodSeconds: 60}),
		diurnal("diurnal base rate inf", DiurnalSpec{BaseRate: inf, Amplitude: 0.5, PeriodSeconds: 60}),
		diurnal("diurnal amplitude nan", DiurnalSpec{BaseRate: 4, Amplitude: nan, PeriodSeconds: 60}),
		diurnal("diurnal period nan", DiurnalSpec{BaseRate: 4, Amplitude: 0.5, PeriodSeconds: nan}),
		diurnal("diurnal period inf", DiurnalSpec{BaseRate: 4, Amplitude: 0.5, PeriodSeconds: inf}),
		mmpp("mmpp dwell far below the arrival gap", MMPPSpec{RateHigh: 1.6, RateLow: 0.4, DwellHigh: 1e-300, DwellLow: 1e-300}),
		multiTurn("multi-turn rate nan", MultiTurnSpec{Sessions: 2, Turns: 2, Rate: nan, ThinkMean: 0.1, PromptMax: 64, MaxContext: 4096}),
		multiTurn("multi-turn think inf", MultiTurnSpec{Sessions: 2, Turns: 2, Rate: 1, ThinkMean: inf, PromptMax: 64, MaxContext: 4096}),
	}
	for _, spec := range []string{"mmpp:nan", "mmpp:inf", "mmpp:2:nan", "mmpp:2:inf", "mmpp:2:1e-300", "diurnal:nan", "diurnal:inf", "diurnal:10:nan"} {
		cases = append(cases, buildCase{spec, func(gen *Generator) ([]Arrival, error) {
			return ArrivalsByFlag(spec, gen, 4, 4, 10, 1)
		}})
	}
	for _, spec := range []string{"poisson", "mmpp:4", "diurnal:60"} {
		for _, rate := range []float64{nan, inf} {
			cases = append(cases, buildCase{fmt.Sprintf("%s at rate %g", spec, rate), func(gen *Generator) ([]Arrival, error) {
				return ArrivalsByFlag(spec, gen, rate, 4, 10, 1)
			}})
		}
	}
	for _, c := range cases {
		gen := modGen(t, 3)
		done := make(chan error, 1)
		go func() {
			_, err := c.build(gen)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: accepted", c.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: still sampling after 5 s", c.name)
		}
	}
}
