package serve

import (
	"context"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pimphony/internal/sweep"
	"pimphony/internal/workload"
)

// testStudy is a study mixing the load-balanced shorthand with a fixed
// and an autoscaled, faulted fleet, every scenario on a stateful
// placement (round-robin cursors, the SLO scaler's cooldowns). The
// fleets pair a fast replica with slow ones, so a scenario that reused
// a placement or autoscaler across renders would start the second
// render from the first one's cursor or cooldown and render
// differently.
func testStudy() Study {
	arrivals := func() ([]workload.Arrival, error) {
		gen := workload.NewGenerator(workload.QMSum(), 42)
		gen.DecodeLen = 6
		return workload.PoissonArrivals(gen, 50, 8, 15, 7)
	}
	slo := SLO{TTFT: 0.1, TBT: 0.025}
	st := Study{
		Title:   "study",
		Labels:  []string{"placement", "repl", "req/s"},
		Columns: []string{"tok/s", "goodput", "retained%", "ttft-p99", "migr", "ups", "crashes", "j/tok"},
	}
	for _, pol := range []string{"round-robin", "least-tokens", "session"} {
		for _, r := range []int{1, 2} {
			st.Scenarios = append(st.Scenarios, Scenario{
				Labels: []any{pol, r, 50.0},
				Config: func() (Config, error) {
					p, err := PolicyByName(pol)
					return Config{System: testSystem(), Replicas: r, Policy: p, SLO: slo}, err
				},
				Arrivals: arrivals,
			})
		}
	}
	slow := testSystem()
	slow.Modules, slow.TP = 4, 4
	fixed := []ReplicaSpec{
		{System: testSystem(), Count: 1, Role: RoleDecode},
		{System: slow, Count: 1, Role: RoleDecode},
	}
	scaled := []ReplicaSpec{
		{System: testSystem(), Count: 1, Role: RoleDecode, Min: 1, WarmupSeconds: 0.01},
		{System: slow, Count: 2, Role: RoleDecode, WarmupSeconds: 0.01},
	}
	st.Scenarios = append(st.Scenarios,
		Scenario{
			Labels: []any{"round-robin-fit", 2, 50.0},
			Config: func() (Config, error) {
				return Config{Fleet: fixed, SLO: slo, Placement: RoundRobinFit()}, nil
			},
			Arrivals: arrivals,
			Baseline: 6,
		},
		Scenario{
			Labels: []any{"round-robin-fit+slo", 3, 50.0},
			Config: func() (Config, error) {
				return Config{Fleet: scaled, SLO: slo, Placement: RoundRobinFit(), Autoscaler: NewSLOScaler(),
					Faults: &FaultPlan{Seed: 3, MaxRetries: -1, Groups: []FaultGroup{{Spec: -1, MTBFSeconds: 0.1, MTTRSeconds: 0.02}}}}, nil
			},
			Arrivals: arrivals,
			Baseline: 6,
		})
	return st
}

// TestStudyParallelEquivalence is the serving tables' determinism
// contract: one Study value rendered sequentially and then on eight
// workers gives the same bytes. Rendering the same value twice also
// catches a scenario whose Config builder hands out a stateful
// placement or autoscaler instead of a fresh one.
func TestStudyParallelEquivalence(t *testing.T) {
	st := testStudy()
	prev := sweep.SetDefault(1)
	defer sweep.SetDefault(prev)
	seq, err := st.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sweep.SetDefault(8)
	par, err := st.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel table diverges from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
	if len(seq.Rows) != len(st.Scenarios) || len(seq.Headers) != len(st.Labels)+len(st.Columns) {
		t.Fatalf("table is %d rows x %d columns for %d scenarios", len(seq.Rows), len(seq.Headers), len(st.Scenarios))
	}
	for i, row := range seq.Rows {
		switch {
		case i < 6 && (row[7] != "0" || row[8] != "0" || row[9] != "0"):
			t.Errorf("row %d: shorthand run has fleet or fault cells %v, want zeros", i, row[7:10])
		case i == 6 && row[5] != "100.0":
			t.Errorf("row %d: baseline row retains %s%%, want 100.0", i, row[5])
		case i == 7 && (row[8] == "0" || row[9] == "0"):
			t.Errorf("row %d: autoscaled, faulted run reports %s scale-ups and %s crashes", i, row[8], row[9])
		}
	}
}

// TestStudyErrors: a malformed study fails before anything runs, and a
// scenario builder's error (an unknown policy name) reaches the caller
// with its text intact.
func TestStudyErrors(t *testing.T) {
	for name, mutate := range map[string]func(*Study){
		"unknown column":    func(s *Study) { s.Columns = append(s.Columns, "nope") },
		"negative baseline": func(s *Study) { s.Scenarios[1].Baseline = -1 },
		"baseline past end": func(s *Study) { s.Scenarios[0].Baseline = len(s.Scenarios) },
		"missing label":     func(s *Study) { s.Scenarios[2].Labels = s.Scenarios[2].Labels[:2] },
		"extra header":      func(s *Study) { s.Labels = append(s.Labels, "extra") },
		"unknown policy": func(s *Study) {
			s.Scenarios[3].Config = func() (Config, error) {
				p, err := PolicyByName("nope")
				return Config{System: testSystem(), Replicas: 1, Policy: p}, err
			}
		},
	} {
		st := testStudy()
		mutate(&st)
		_, err := st.Table(context.Background())
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if name == "unknown policy" && !strings.HasPrefix(err.Error(), `serve: unknown policy "nope"`) {
			t.Errorf("%s: error %q does not keep the builder's text", name, err)
		}
	}
}

// TestColumnsInGlossary: every registered column header is a bold term
// (alone or in an " / "-separated group) under docs/EXPERIMENTS.md's
// metrics glossary, so a new column cannot ship undocumented.
func TestColumnsInGlossary(t *testing.T) {
	doc, err := os.ReadFile("../../docs/EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, glossary, ok := strings.Cut(string(doc), "\n## Metrics glossary\n")
	if !ok {
		t.Fatal(`docs/EXPERIMENTS.md has no "## Metrics glossary" section`)
	}
	if end := strings.Index(glossary, "\n## "); end >= 0 {
		glossary = glossary[:end]
	}
	terms := map[string]bool{}
	for _, m := range regexp.MustCompile(`\*\*([^*]+)\*\*`).FindAllStringSubmatch(glossary, -1) {
		for _, term := range strings.Split(m[1], " / ") {
			terms[strings.TrimSpace(term)] = true
		}
	}
	var missing []string
	for h := range columns {
		if !terms[h] {
			missing = append(missing, h)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("columns without a metrics glossary entry in docs/EXPERIMENTS.md: %v", missing)
	}
}
