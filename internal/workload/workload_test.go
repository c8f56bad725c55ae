package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// validate reports inconsistent trace statistics.
func validate(t Trace) error {
	switch {
	case t.Mean <= 0 || t.Std < 0:
		return fmt.Errorf("workload %s: mean/std out of range", t.Name)
	case t.Min <= 0 || t.Max < t.Min:
		return fmt.Errorf("workload %s: min/max out of range", t.Name)
	case t.Mean < float64(t.Min) || t.Mean > float64(t.Max):
		return fmt.Errorf("workload %s: mean outside [min,max]", t.Name)
	}
	return nil
}

func TestTracesValidate(t *testing.T) {
	for _, tr := range All() {
		if err := validate(tr); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	tr, err := ByName("QMSum")
	if err != nil || tr.Suite != "LongBench" {
		t.Fatalf("ByName(QMSum) = %+v, %v", tr, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown trace should error")
	}
}

// TestTable2Reproduction checks that sampled statistics land near the
// paper's Table II values. The normal fit is truncated, which biases the
// sample mean slightly; we allow 15% on mean and 35% on std.
func TestTable2Reproduction(t *testing.T) {
	for _, tr := range All() {
		g := NewGenerator(tr, 42)
		st := Summarize(g.Batch(4000))
		if rel := math.Abs(st.Mean-tr.Mean) / tr.Mean; rel > 0.15 {
			t.Errorf("%s: sample mean %.0f vs table %.0f (%.1f%% off)", tr.Name, st.Mean, tr.Mean, 100*rel)
		}
		if tr.Std > 0 {
			if rel := math.Abs(st.Std-tr.Std) / tr.Std; rel > 0.35 {
				t.Errorf("%s: sample std %.0f vs table %.0f (%.1f%% off)", tr.Name, st.Std, tr.Std, 100*rel)
			}
		}
		if st.Min < tr.Min || st.Max > tr.Max {
			t.Errorf("%s: sample range [%d,%d] escapes table range [%d,%d]",
				tr.Name, st.Min, st.Max, tr.Min, tr.Max)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGenerator(QMSum(), 7).Batch(100)
	b := NewGenerator(QMSum(), 7).Batch(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generators with same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := NewGenerator(QMSum(), 8).Batch(100)
	same := true
	for i := range a {
		if a[i].Context != c[i].Context {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRequestIDsAreSequential(t *testing.T) {
	g := NewGenerator(Musique(), 1)
	for i := 0; i < 10; i++ {
		if r := g.Next(); r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
	}
}

// Property: samples always respect the trace's truncation bounds.
func TestSampleBoundsProperty(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		tr := All()[int(which)%4]
		g := NewGenerator(tr, seed)
		for i := 0; i < 50; i++ {
			c := g.SampleContext()
			if c < tr.Min || c > tr.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestThreeSigma(t *testing.T) {
	g := ThreeSigma(65536, 3)
	st := Summarize(g.Batch(2000))
	if math.Abs(st.Mean-65536)/65536 > 0.05 {
		t.Errorf("3-sigma mean %.0f, want ~65536", st.Mean)
	}
	if st.Min < 65536/2 || st.Max > 3*65536/2 {
		t.Errorf("3-sigma range [%d,%d] out of bounds", st.Min, st.Max)
	}
}

func TestUniform(t *testing.T) {
	g := Uniform(4096, 1)
	for _, r := range g.Batch(10) {
		if r.Context != 4096 {
			t.Fatalf("uniform generator produced %d", r.Context)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if st := Summarize(nil); st.N != 0 || st.Mean != 0 {
		t.Fatalf("empty summary should be zero, got %+v", st)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	reqs := []Request{{Context: 10}, {Context: 20}, {Context: 30}}
	st := Summarize(reqs)
	if st.Mean != 20 || st.Min != 10 || st.Max != 30 || st.Median != 20 || st.N != 3 {
		t.Fatalf("unexpected summary %+v", st)
	}
	want := math.Sqrt(200.0 / 3.0)
	if math.Abs(st.Std-want) > 1e-9 {
		t.Fatalf("std = %f, want %f", st.Std, want)
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	bad := []Trace{
		{Name: "a", Mean: -1, Std: 1, Min: 1, Max: 2},
		{Name: "b", Mean: 10, Std: 1, Min: 5, Max: 4},
		{Name: "c", Mean: 100, Std: 1, Min: 1, Max: 50},
		{Name: "d", Mean: 10, Std: -2, Min: 1, Max: 50},
	}
	for _, tr := range bad {
		if err := validate(tr); err == nil {
			t.Errorf("trace %s should fail validation", tr.Name)
		}
	}
}

func TestHeavyTailedBoundsAndDeterminism(t *testing.T) {
	mk := func() *Generator {
		g, err := HeavyTailed(2048, 30000, 1.1, 9)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk().Batch(4000), mk().Batch(4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("heavy-tailed generator not deterministic")
	}
	tr := mk().trace
	if err := validate(tr); err != nil {
		t.Fatalf("synthetic trace stats invalid: %v", err)
	}
	small, big := 0, 0
	for _, r := range a {
		if r.Context < 2048 || r.Context > 30000 {
			t.Fatalf("context %d outside [2048,30000]", r.Context)
		}
		if r.Context < 2*2048 {
			small++
		}
		if r.Context > 15000 {
			big++
		}
	}
	// Power-law shape: the bulk sits near the minimum, yet the tail is
	// populated — a truncated normal with these bounds has essentially
	// no mass at both extremes at once.
	if small < len(a)/2 {
		t.Errorf("only %d/%d requests near the minimum; not heavy-bodied", small, len(a))
	}
	if big == 0 {
		t.Error("no requests in the tail; not heavy-tailed")
	}
	mean := boundedParetoMean(2048, 30000, 1.1)
	if got := Summarize(a).Mean; got < 0.9*mean || got > 1.1*mean {
		t.Errorf("sample mean %.0f far from analytic %.0f", got, mean)
	}
	// Alpha = 1 uses the closed-form log mean; sanity-check it too.
	if m := boundedParetoMean(100, 1000, 1); m <= 100 || m >= 1000 {
		t.Errorf("alpha=1 mean %.1f outside bounds", m)
	}
}

func TestHeavyTailedErrors(t *testing.T) {
	if _, err := HeavyTailed(0, 100, 1.2, 1); err == nil {
		t.Error("zero min should fail")
	}
	if _, err := HeavyTailed(100, 100, 1.2, 1); err == nil {
		t.Error("max == min should fail")
	}
	if _, err := HeavyTailed(100, 200, 0, 1); err == nil {
		t.Error("zero alpha should fail")
	}
	for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := HeavyTailed(100, 200, alpha, 1); err == nil {
			t.Errorf("alpha %g should fail", alpha)
		}
	}
	// Alphas float64 cannot model: draws outside the bounds (1e-16),
	// draws stuck at the minimum with a +Inf mean (1e-300), and a mean
	// that overflows to NaN (200) or +Inf (95 on [2048, 30000]).
	for _, flag := range []string{"heavy:100-200:1e-16", "heavy:100-200:1e-300", "heavy:100-200:200", "heavy:2048-30000:95"} {
		if _, err := GeneratorByFlag(flag, 1); err == nil {
			t.Errorf("%q should fail", flag)
		}
	}
	// The smallest modelled alpha and the perfbench tail still build.
	for _, flag := range []string{"heavy:100-200:0x1p-26", "heavy:2048-30000:1.1"} {
		if _, err := GeneratorByFlag(flag, 1); err != nil {
			t.Errorf("%q: %v", flag, err)
		}
	}
}

func TestGeneratorByFlagHeavy(t *testing.T) {
	g, err := GeneratorByFlag("heavy:1024-8192", 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr := g.trace; tr.Min != 1024 || tr.Max != 8192 {
		t.Errorf("bounds [%d,%d], want [1024,8192]", tr.Min, tr.Max)
	}
	if _, err := GeneratorByFlag("heavy:1024-8192:2.5", 3); err != nil {
		t.Errorf("explicit alpha rejected: %v", err)
	}
	for _, bad := range []string{"heavy:1024", "heavy:a-b", "heavy:1024-8192:x", "heavy:8192-1024",
		"heavy:100-200:NaN", "heavy:100-200:+Inf"} {
		if _, err := GeneratorByFlag(bad, 3); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

// FuzzGeneratorByFlag: a trace flag either fails as a flag or yields a
// generator whose mean is finite and whose mean and sampled contexts are
// positive and inside the trace's [Min, Max].
func FuzzGeneratorByFlag(f *testing.F) {
	for _, seed := range []string{"QMSum", "uniform:4096", "heavy:1024-8192", "heavy:1024-8192:2.5",
		"heavy:100-200:NaN", "heavy:100-200:+Inf", "uniform:9223372036854775807",
		"heavy:100-200:1e-16", "heavy:100-200:1e-300", "heavy:100-200:200", "heavy:2048-30000:95"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, flag string) {
		g, err := GeneratorByFlag(flag, 1)
		if err != nil {
			return
		}
		if m := g.trace.Mean; !(m >= float64(g.trace.Min) && m <= float64(g.trace.Max)) {
			t.Fatalf("%q: mean %g outside [%d, %d]", flag, m, g.trace.Min, g.trace.Max)
		}
		for i := 0; i < 16; i++ {
			if c := g.SampleContext(); c <= 0 || c < g.trace.Min || c > g.trace.Max {
				t.Fatalf("%q: context %d outside [%d, %d]", flag, c, g.trace.Min, g.trace.Max)
			}
		}
	})
}
