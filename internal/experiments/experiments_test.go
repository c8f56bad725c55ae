package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pimphony/internal/backend"
	"pimphony/internal/sweep"
)

// useGrids applies the -short grid selection for one test.
func useGrids(t *testing.T) {
	prev := SetShort(testing.Short())
	t.Cleanup(func() { SetShort(prev) })
}

// resultCache memoizes experiment results per (id, grid mode) so the
// band-pinning tests reuse what TestAllExperimentsRun already computed
// instead of regenerating multi-second system studies.
var (
	resultMu    sync.Mutex
	resultCache = map[string]*Result{}
)

func runCached(t *testing.T, id string) *Result {
	t.Helper()
	key := fmt.Sprintf("%s/short=%v", id, Short())
	resultMu.Lock()
	res, ok := resultCache[key]
	resultMu.Unlock()
	if ok {
		return res
	}
	res, err := Run(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	resultMu.Lock()
	resultCache[key] = res
	resultMu.Unlock()
	return res
}

// TestAllExperimentsRun executes every registered experiment end to end
// and sanity-checks that tables are populated. This is the integration
// test tying the whole stack together; the experiments are independent,
// so the subtests run in parallel on top of each driver's own sweep
// parallelism.
func TestAllExperimentsRun(t *testing.T) {
	useGrids(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res := runCached(t, id)
			if res.ID != id {
				t.Errorf("result ID %q != %q", res.ID, id)
			}
			if len(res.Tables) == 0 {
				t.Fatalf("%s produced no tables", id)
			}
			for _, tb := range res.Tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", id, tb.Title)
				}
				if len(tb.Headers) == 0 {
					t.Errorf("%s: table %q has no headers", id, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Errorf("%s: ragged row in %q", id, tb.Title)
					}
				}
			}
			if out := res.String(); !strings.Contains(out, id) {
				t.Errorf("%s: rendering lacks the id", id)
			}
		})
	}
}

func TestUnknownID(t *testing.T) {
	_, err := Run("nope")
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
	if !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error should name the unknown id: %v", err)
	}
}

// TestIDsSortedAndStable pins the registry enumeration: sorted order,
// no duplicates, and identical across calls (cmd/pimphony-bench's 'all'
// mode and the benchmark harness both rely on it).
func TestIDsSortedAndStable(t *testing.T) {
	ids := IDs()
	if len(ids) == 0 {
		t.Fatal("registry is empty")
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("IDs not sorted: %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %q", id)
		}
		seen[id] = true
	}
	again := IDs()
	if len(again) != len(ids) {
		t.Fatalf("IDs changed between calls: %d vs %d", len(again), len(ids))
	}
	for i := range ids {
		if again[i] != ids[i] {
			t.Errorf("IDs()[%d] unstable: %q vs %q", i, again[i], ids[i])
		}
	}
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			t.Errorf("id %q not resolvable via registry", id)
		}
	}
}

// TestParallelMatchesSequential is the determinism contract of the sweep
// refactor: for a representative slice of drivers (system-study ladder,
// (TP,PP) grid, microbenchmark) and every serving study, the rendered
// output under parallelism=8 must be byte-identical to a parallelism=1
// run.
// The scaled-down grids keep it cheap; grid size is orthogonal to the
// ordering guarantees under test.
func TestParallelMatchesSequential(t *testing.T) {
	prevShort := SetShort(true)
	t.Cleanup(func() { SetShort(prevShort) })
	for _, id := range []string{"fig8", "fig13", "fig15", "fig19", "serve", "capacity", "fleet", "autoscale", "megafleet", "resilience"} {
		id := id
		t.Run(id, func(t *testing.T) {
			prev := sweep.SetDefault(1)
			seqRes, seqErr := Run(id)
			sweep.SetDefault(8)
			parRes, parErr := Run(id)
			sweep.SetDefault(prev)
			if seqErr != nil || parErr != nil {
				t.Fatalf("seq err %v, par err %v", seqErr, parErr)
			}
			seq, par := seqRes.String(), parRes.String()
			if seq != par {
				t.Errorf("parallel output diverges from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
			}
		})
	}
}

// TestShortGridsShrink guards the -short CI lane: the scaled-down grids
// must actually be smaller than the full ones, while keeping every
// column.
func TestShortGridsShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("needs both grid settings; the full lane covers it")
	}
	prev := SetShort(false)
	fullRes := runCached(t, "fig15")
	SetShort(true)
	shortRes, err := Run("fig15")
	SetShort(prev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shortRes.Tables {
		s, f := shortRes.Tables[i], fullRes.Tables[i]
		if len(s.Rows) == 0 || len(s.Rows) >= len(f.Rows) {
			t.Errorf("table %q: short grid has %d rows vs full %d; want a non-empty strict subset",
				s.Title, len(s.Rows), len(f.Rows))
		}
		if len(s.Headers) != len(f.Headers) {
			t.Errorf("table %q: short grid changed the columns", s.Title)
		}
	}
}

// TestFig7PinsPaperNumbers extracts the Fig. 7 cycle counts and pins them
// to the paper's 34 (static) and 22 (DCS).
func TestFig7PinsPaperNumbers(t *testing.T) {
	useGrids(t)
	res := runCached(t, "fig7")
	got := map[string]string{}
	for _, row := range res.Tables[0].Rows {
		got[row[0]] = row[1]
	}
	if got["static"] != "34" {
		t.Errorf("static = %s cycles, paper says 34", got["static"])
	}
	if got["dcs"] != "22" {
		t.Errorf("dcs = %s cycles, paper says 22", got["dcs"])
	}
}

// TestFig13SpeedupBands checks the headline speedups stay in credible
// bands relative to the paper (shape, not absolute numbers).
func TestFig13SpeedupBands(t *testing.T) {
	if testing.Short() {
		t.Skip("system study")
	}
	res := runCached(t, "fig13")
	for _, row := range res.Tables[0].Rows {
		sp, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", row[len(row)-1])
		}
		if sp < 1.2 {
			t.Errorf("%s/%s: full-stack speedup %.2fx is implausibly low", row[0], row[1], sp)
		}
		// The paper tops out at 11.3x; our baseline enforces stricter
		// single-channel KV locality, so the 72B-GQA extreme overshoots
		// (documented in the fig17 driver notes). Anything beyond 50x would
		// indicate a modelling bug rather than that divergence.
		if sp > 50 {
			t.Errorf("%s/%s: full-stack speedup %.2fx is implausibly high", row[0], row[1], sp)
		}
	}
}

// TestFig19Bands checks the capacity-utilization split matches the
// paper's direction and rough magnitudes.
func TestFig19Bands(t *testing.T) {
	useGrids(t)
	res := runCached(t, "fig19")
	for _, row := range res.Tables[0].Rows {
		st, _ := strconv.ParseFloat(row[2], 64)
		dpa, _ := strconv.ParseFloat(row[3], 64)
		if dpa <= st {
			t.Errorf("%s: DPA util %.1f%% should beat static %.1f%%", row[0], dpa, st)
		}
		if st > 60 {
			t.Errorf("%s: static util %.1f%% too high (paper: 31.0-40.5%%)", row[0], st)
		}
		if dpa < 55 {
			t.Errorf("%s: DPA util %.1f%% too low (paper: ~75.6%%)", row[0], dpa)
		}
	}
}

// TestCapacityGapBands pins the headline of the online capacity study:
// at every (rate, replica) point of both tables, DPA admits strictly
// more concurrent long-context requests than static at the same KV
// budget, and never less goodput. Static, which cannot over-admit, must
// never preempt.
func TestCapacityGapBands(t *testing.T) {
	useGrids(t)
	res := runCached(t, "capacity")
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	for _, tb := range res.Tables {
		type row struct{ maxAct, preempt, goodput float64 }
		static := map[string]row{}
		for _, r := range tb.Rows {
			// Columns: alloc repl req/s max-act preempt blocked-s
			// recomp-s peak-live peak-resv tok/s goodput ...
			key := r[1] + "@" + r[2]
			v := row{maxAct: parse(r[3]), preempt: parse(r[4]), goodput: parse(r[10])}
			switch r[0] {
			case "static":
				if v.preempt != 0 {
					t.Errorf("%s: static preempted %g times; T_max reservation cannot over-admit", tb.Title, v.preempt)
				}
				static[key] = v
			case "dpa":
				st, ok := static[key]
				if !ok {
					t.Fatalf("%s: dpa row %v has no static counterpart", tb.Title, r)
				}
				if v.maxAct <= st.maxAct {
					t.Errorf("%s @ %s: DPA max-active %g not strictly above static %g at the same budget",
						tb.Title, key, v.maxAct, st.maxAct)
				}
				if v.goodput < st.goodput {
					t.Errorf("%s @ %s: DPA goodput %g below static %g", tb.Title, key, v.goodput, st.goodput)
				}
			default:
				t.Fatalf("%s: unknown alloc %q", tb.Title, r[0])
			}
		}
	}
}

// TestFig18Bands checks DCS beats ping-pong on every attention setting.
func TestFig18Bands(t *testing.T) {
	useGrids(t)
	res := runCached(t, "fig18")
	for _, row := range res.Tables[0].Rows {
		gain, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad gain cell %q", row[3])
		}
		if gain < 1.0 {
			t.Errorf("%s: DCS should not lose to ping-pong (gain %.2f)", row[0], gain)
		}
		if gain > 3.0 {
			t.Errorf("%s: DCS gain %.2fx implausible (paper: up to 1.4x)", row[0], gain)
		}
	}
}

// TestCatalogListsEverything: the shared -list body must name every
// registered backend and every experiment with a description, and run
// the mid-section hook between them.
func TestCatalogListsEverything(t *testing.T) {
	var b strings.Builder
	Catalog(&b, func(w io.Writer) { fmt.Fprintln(w, "MID-SECTION") })
	out := b.String()
	for _, name := range backend.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("catalog misses backend %q", name)
		}
	}
	for _, id := range IDs() {
		if !strings.Contains(out, id) {
			t.Errorf("catalog misses experiment %q", id)
		}
		if Description(id) == "" {
			t.Errorf("experiment %q has no description", id)
		}
	}
	mid := strings.Index(out, "MID-SECTION")
	if mid < 0 || mid < strings.Index(out, "pim-only") || mid > strings.Index(out, "experiments (") {
		t.Error("mid-section hook not rendered between backends and experiments")
	}
}
