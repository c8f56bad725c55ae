package workload

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestPoissonDeterminism is the reproducibility contract of the serving
// tables: the same seed must yield the same schedule (sizes, times and
// sessions), and a different seed must not.
func TestPoissonDeterminism(t *testing.T) {
	mk := func(genSeed, arrSeed int64) []Arrival {
		arr, err := PoissonArrivals(NewGenerator(QMSum(), genSeed), 4, 8, 100, arrSeed)
		if err != nil {
			t.Fatal(err)
		}
		return arr
	}
	a, b := mk(7, 11), mk(7, 11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seeds diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := mk(7, 12)
	same := true
	for i := range a {
		if a[i].At != c[i].At {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different arrival seeds produced identical schedules")
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate, n = 8.0, 4000
	arr, err := PoissonArrivals(NewGenerator(Musique(), 1), rate, 4, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != n {
		t.Fatalf("got %d arrivals, want %d", len(arr), n)
	}
	prev := 0.0
	for i, a := range arr {
		if a.At <= prev {
			t.Fatalf("arrival %d not strictly increasing: %g after %g", i, a.At, prev)
		}
		prev = a.At
		if a.Session < 0 || a.Session >= 4 {
			t.Fatalf("arrival %d session %d out of range", i, a.Session)
		}
		if a.Req.ID != i {
			t.Fatalf("arrival %d carries request ID %d", i, a.Req.ID)
		}
	}
	// The empirical rate should be close to the configured one.
	if got := OfferedRate(arr); math.Abs(got-rate)/rate > 0.1 {
		t.Errorf("offered rate %.2f, want ~%g", got, rate)
	}
}

func TestPoissonErrors(t *testing.T) {
	gen := NewGenerator(QMSum(), 1)
	cases := []struct {
		name string
		run  func() ([]Arrival, error)
	}{
		{"nil generator", func() ([]Arrival, error) { return PoissonArrivals(nil, 1, 1, 1, 1) }},
		{"zero rate", func() ([]Arrival, error) { return PoissonArrivals(gen, 0, 1, 1, 1) }},
		{"negative rate", func() ([]Arrival, error) { return PoissonArrivals(gen, -2, 1, 1, 1) }},
		{"zero sessions", func() ([]Arrival, error) { return PoissonArrivals(gen, 1, 0, 1, 1) }},
		{"negative count", func() ([]Arrival, error) { return PoissonArrivals(gen, 1, 1, -1, 1) }},
	}
	for _, c := range cases {
		if _, err := c.run(); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if arr, err := PoissonArrivals(gen, 1, 1, 0, 1); err != nil || len(arr) != 0 {
		t.Errorf("zero arrivals should be fine: %v, %v", arr, err)
	}
}

func TestOfferedRateEdges(t *testing.T) {
	if r := OfferedRate(nil); r != 0 {
		t.Errorf("empty schedule rate = %g", r)
	}
	if r := OfferedRate([]Arrival{{At: 0}}); r != 0 {
		t.Errorf("zero-span schedule rate = %g", r)
	}
	if r := OfferedRate([]Arrival{{At: 1}, {At: 2}}); r != 1 {
		t.Errorf("rate = %g, want 1", r)
	}
}

// TestByNameAllTraces pins the lookup for every Table II trace and the
// error path's message content.
func TestByNameAllTraces(t *testing.T) {
	for _, want := range All() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Errorf("ByName(%s): %v", want.Name, err)
			continue
		}
		if got != want {
			t.Errorf("ByName(%s) = %+v, want %+v", want.Name, got, want)
		}
	}
	_, err := ByName("qmsum") // lookup is exact, not case-folded
	if err == nil {
		t.Fatal("lowercase alias should not resolve")
	}
	if !strings.Contains(err.Error(), `"qmsum"`) {
		t.Errorf("error should quote the unknown name: %v", err)
	}
}

func TestGeneratorByFlag(t *testing.T) {
	g, err := GeneratorByFlag("QMSum", 1)
	if err != nil || g.trace.Name != "QMSum" {
		t.Fatalf("GeneratorByFlag(QMSum) = %v, %v", g, err)
	}
	g, err = GeneratorByFlag("uniform:4096", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := g.Next(); r.Context != 4096 {
		t.Errorf("uniform:4096 produced %d", r.Context)
	}
	// Past 2^53 the float sampler cannot return the count exactly.
	for _, bad := range []string{"nope", "uniform:", "uniform:x", "uniform:-3", "uniform:0",
		"uniform:9007199254740993", "uniform:9223372036854775807"} {
		if _, err := GeneratorByFlag(bad, 1); err == nil {
			t.Errorf("%q should error", bad)
		}
	}
}

func TestSummarizeSingleAndEven(t *testing.T) {
	one := Summarize([]Request{{Context: 42}})
	if one.Mean != 42 || one.Std != 0 || one.Min != 42 || one.Max != 42 || one.Median != 42 || one.N != 1 {
		t.Errorf("single-request summary wrong: %+v", one)
	}
	// Even count: Median is the upper of the two middle values
	// (nearest-rank at index n/2 of the sorted sample).
	even := Summarize([]Request{{Context: 10}, {Context: 20}, {Context: 30}, {Context: 40}})
	if even.Median != 30 {
		t.Errorf("even-count median = %d, want 30", even.Median)
	}
	if even.Mean != 25 || even.Min != 10 || even.Max != 40 || even.N != 4 {
		t.Errorf("even-count summary wrong: %+v", even)
	}
}

func multiTurnSpec() MultiTurnSpec {
	return MultiTurnSpec{
		Sessions:   6,
		Turns:      4,
		Rate:       2,
		ThinkMean:  0.5,
		PromptMin:  64,
		PromptMax:  256,
		MaxContext: 32000,
	}
}

func TestMultiTurnArrivals(t *testing.T) {
	gen := NewGenerator(QMSum(), 11)
	gen.DecodeLen = 32
	arr, err := MultiTurnArrivals(gen, multiTurnSpec(), 12)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic: same inputs, same schedule.
	gen2 := NewGenerator(QMSum(), 11)
	gen2.DecodeLen = 32
	arr2, err := MultiTurnArrivals(gen2, multiTurnSpec(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(arr, arr2) {
		t.Fatal("multi-turn schedule not deterministic")
	}
	// Sorted by time, unique IDs.
	seen := map[int]bool{}
	for i, a := range arr {
		if i > 0 && a.At < arr[i-1].At {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if seen[a.Req.ID] {
			t.Fatalf("duplicate ID %d", a.Req.ID)
		}
		seen[a.Req.ID] = true
	}
	// Within a session, each turn re-extends the context by at least
	// the previous generation plus the minimum prompt delta, and stays
	// under MaxContext.
	bySession := map[int][]Arrival{}
	for _, a := range arr {
		bySession[a.Session] = append(bySession[a.Session], a)
	}
	if len(bySession) != 6 {
		t.Fatalf("%d sessions, want 6", len(bySession))
	}
	spec := multiTurnSpec()
	for s, turns := range bySession {
		sort.Slice(turns, func(i, j int) bool { return turns[i].Req.ID < turns[j].Req.ID })
		for i, a := range turns {
			if a.Req.Context+a.Req.Decode > spec.MaxContext {
				t.Errorf("session %d turn %d exceeds MaxContext", s, i)
			}
			if i == 0 {
				continue
			}
			prev := turns[i-1]
			if a.Req.Context < prev.Req.Context+prev.Req.Decode+spec.PromptMin {
				t.Errorf("session %d turn %d context %d did not re-extend (prev %d+%d)",
					s, i, a.Req.Context, prev.Req.Context, prev.Req.Decode)
			}
			if a.At < prev.At {
				t.Errorf("session %d turn %d arrives before its predecessor", s, i)
			}
		}
	}
}

func TestMultiTurnTruncatesAtMaxContext(t *testing.T) {
	gen := Uniform(10000, 1)
	gen.DecodeLen = 2000
	spec := multiTurnSpec()
	spec.MaxContext = 13000 // turn 0 (10000+2000) fits, turn 1 (12064+2000) does not
	arr, err := MultiTurnArrivals(gen, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != spec.Sessions {
		t.Fatalf("%d arrivals, want one turn per session (%d)", len(arr), spec.Sessions)
	}
	spec.MaxContext = 11000 // even turn 0 outgrows it
	if _, err := MultiTurnArrivals(gen, spec, 5); err == nil {
		t.Error("all-truncated schedule should error")
	}
}

func TestMultiTurnSpecErrors(t *testing.T) {
	gen := Uniform(100, 1)
	if _, err := MultiTurnArrivals(nil, multiTurnSpec(), 1); err == nil {
		t.Error("nil generator should fail")
	}
	cases := []func(*MultiTurnSpec){
		func(s *MultiTurnSpec) { s.Sessions = 0 },
		func(s *MultiTurnSpec) { s.Turns = 0 },
		func(s *MultiTurnSpec) { s.Rate = 0 },
		func(s *MultiTurnSpec) { s.ThinkMean = -1 },
		func(s *MultiTurnSpec) { s.PromptMin = -1 },
		func(s *MultiTurnSpec) { s.PromptMax = s.PromptMin - 1 },
	}
	for i, mut := range cases {
		spec := multiTurnSpec()
		mut(&spec)
		if _, err := MultiTurnArrivals(gen, spec, 1); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
}
