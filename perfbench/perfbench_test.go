package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pimphony/internal/cluster"
	"pimphony/internal/core"
	"pimphony/internal/serve"
	"pimphony/internal/workload"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 7.5}, 0.625, 8.875},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestVerdicts(t *testing.T) {
	runS := metricDef{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "sim_tok_per_s", Unit: "tok/s", Better: "higher", Bound: 0.10}
	tight := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{7, 13, 10, 8, 12}
	for _, c := range []struct {
		name      string
		m         metricDef
		base, cur []float64
		want      string
	}{
		{"same", runS, tight, tight, unchanged},
		{"within bound", runS, tight, scaled(tight, 1.05), unchanged},
		{"slower", runS, tight, scaled(tight, 1.3), worse},
		{"faster", runS, tight, scaled(tight, 0.7), improved},
		{"higher rate", rate, tight, scaled(tight, 1.3), improved},
		{"lower rate", rate, tight, scaled(tight, 0.7), worse},
		{"wide and overlapping", runS, wide, scaled(wide, 1.2), unresolved},
		{"wide but separated", runS, wide, scaled(wide, 3), worse},
	} {
		got := verdict(summarize(c.m, c.base), summarize(c.m, c.cur))
		if got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// syntheticSet builds a one-workload set from run_s samples.
func syntheticSet(runS []float64, digest string, tokS float64) *setFile {
	e2e := map[string]summary{}
	for _, m := range endToEnd {
		xs := make([]float64, len(runS))
		for i, r := range runS {
			xs[i] = r
			if m.Name == "sim_tok_per_s" {
				xs[i] = 1e6 / r
			}
		}
		e2e[m.Name] = summarize(m, xs)
	}
	return &setFile{Schema: setSchema, Workloads: map[string]*workloadResult{
		"w": {Runs: len(runS), Correct: true, Digest: digest, EndToEnd: e2e,
			PerLayer: map[string]float64{"model.tok_s": tokS, "kernels.self_pct": 50}},
	}}
}

func TestCompareSets(t *testing.T) {
	base := syntheticSet([]float64{1, 1.01, 0.99, 1, 1}, "abc", 100)
	var out bytes.Buffer
	if compareSets(&out, base, syntheticSet([]float64{1, 1.01, 0.99, 1.005, 1}, "abc", 100)) {
		t.Errorf("identical sets flagged as regressed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "digest identical") || strings.Contains(out.String(), worse) {
		t.Errorf("unexpected comparison:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(&out, base, syntheticSet([]float64{2, 2.02, 1.98, 2, 2}, "abc", 100)) {
		t.Errorf("a 2x slowdown was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), worse) {
		t.Errorf("no worse verdict:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(&out, base, syntheticSet([]float64{1, 1, 1, 1, 1}, "def", 101)) {
		t.Errorf("a changed digest was not flagged:\n%s", out.String())
	}
	for _, want := range []string{"digest differs", "model.tok_s differs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}

// hotSink keeps spinHot's work from being optimised away.
var hotSink uint64

// spinHot is a known CPU-bound function for the profile-fold test.
func spinHot(d time.Duration) {
	deadline := time.Now().Add(d)
	acc := uint64(1469598103934665603)
	for time.Now().Before(deadline) {
		for i := 0; i < 1<<14; i++ {
			acc ^= uint64(i)
			acc *= 1099511628211
		}
	}
	hotSink = acc
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	spinHot(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, hot int64
	for i, stack := range p.stacks {
		total += p.weights[i]
		if len(stack) > 0 && strings.HasSuffix(stack[0].name, ".spinHot") {
			hot += p.weights[i]
		}
	}
	if total < 10 {
		t.Skipf("only %d samples", total)
	}
	if float64(hot) < 0.5*float64(total) {
		t.Errorf("spinHot is the leaf of %d of %d samples, want most", hot, total)
	}
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("shares sum to %.2f%%, want 100", sum)
	}
	// The test binary's package main is this repository's code.
	if shares["other"] < 50 {
		t.Errorf("other = %.1f%%, want the spinning test function's share: %v", shares["other"], shares)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		f    frame
		want string
		repo bool
	}{
		{frame{"pimphony/internal/kernels.(*Config).QKT", "/x/internal/kernels/kernels.go"}, "kernels", true},
		{frame{"pimphony/internal/isa.Encode", "/x/internal/isa/isa.go"}, "kernels", true},
		{frame{"pimphony/internal/perfmodel.(*Service).Price", "/x/internal/perfmodel/perfmodel.go"}, "perfmodel", true},
		{frame{"pimphony/internal/serve.(*spine).run", "/x/internal/serve/des.go"}, "serve.des", true},
		{frame{"pimphony/internal/serve.(*views).touch", "/x/internal/serve/views.go"}, "serve.sched", true},
		{frame{"pimphony/internal/serve.radixSortFloat64", "/x/internal/serve/foldsort.go"}, "serve.fold", true},
		{frame{"pimphony/internal/serve.foldReport", "/x/internal/serve/serve.go"}, "serve.fold", true},
		{frame{"pimphony/internal/serve.Run", "/x/internal/serve/serve.go"}, "other", true},
		{frame{"pimphony/internal/compiler.Compile", "/x/internal/compiler/compiler.go"}, "other", true},
		{frame{"main.measure", "/x/perfbench/child.go"}, "other", true},
		{frame{"runtime.mallocgc", "/go/src/runtime/malloc.go"}, "", false},
	} {
		got, ok := layerOf(c.f)
		if got != c.want || ok != c.repo {
			t.Errorf("layerOf(%s) = %q, %v; want %q, %v", c.f.name, got, ok, c.want, c.repo)
		}
	}
}

// validReport is a self-consistent serving report for three arrivals.
func validReport() (*serve.Report, []workload.Arrival) {
	arrivals := []workload.Arrival{
		{Req: workload.Request{ID: 0, Context: 1000, Decode: 4}, At: 0},
		{Req: workload.Request{ID: 1, Context: 2000, Decode: 4}, At: 1},
		{Req: workload.Request{ID: 2, Context: 3000, Decode: 4}, At: 2},
	}
	q := serve.Quantiles{Mean: 0.2, P50: 0.1, P95: 0.3, P99: 0.4}
	rep := &serve.Report{
		Requests: 3, Tokens: 12, GoodTokens: 12, Throughput: 4, Goodput: 4,
		TTFT: q, TBT: q, E2E: q,
		PerReplica: []serve.ReplicaStats{{Requests: 2, Tokens: 8}, {Requests: 1, Tokens: 4}},
	}
	return rep, arrivals
}

func TestValidatorsRejectCorruptReports(t *testing.T) {
	rep, arrivals := validReport()
	if out := foldServing(rep, arrivals); len(out.problems) > 0 {
		t.Fatalf("valid report rejected: %v", out.problems)
	}
	for _, c := range []struct {
		name    string
		corrupt func(r *serve.Report, a *[]workload.Arrival)
	}{
		{"p50 above p99", func(r *serve.Report, _ *[]workload.Arrival) { r.TTFT.P50 = 1 }},
		{"negative tbt", func(r *serve.Report, _ *[]workload.Arrival) { r.TBT.P50 = -1 }},
		{"missing request", func(r *serve.Report, _ *[]workload.Arrival) { r.Requests = 2 }},
		{"request on no replica", func(r *serve.Report, _ *[]workload.Arrival) { r.PerReplica[1].Requests = 0 }},
		{"extra arrival", func(_ *serve.Report, a *[]workload.Arrival) {
			*a = append(*a, workload.Arrival{Req: workload.Request{ID: 3, Context: 1, Decode: 1}, At: 3})
		}},
		{"too many tokens", func(r *serve.Report, _ *[]workload.Arrival) {
			r.Tokens, r.PerReplica[0].Tokens = 20, 16
		}},
		{"goodput above throughput", func(r *serve.Report, _ *[]workload.Arrival) { r.Goodput = 5 }},
		{"unaccounted failure", func(r *serve.Report, _ *[]workload.Arrival) { r.Faults = &serve.FaultStats{Failed: 1} }},
	} {
		r, a := validReport()
		c.corrupt(r, &a)
		if out := foldServing(r, a); len(out.problems) == 0 {
			t.Errorf("%s: corrupted report passed the checks", c.name)
		}
	}
}

func TestLadderChecks(t *testing.T) {
	var pts []*ladderPoint
	var reps []*cluster.Report
	for _, st := range core.Stages() {
		pts = append(pts, &ladderPoint{preset: ladderPresets[0], stage: st, cfg: core.Config{Name: "cent"}})
		reps = append(reps, &cluster.Report{Throughput: 100, Batch: 1, Steps: 4, CapacityUtil: 1})
	}
	reps[len(reps)-1].Throughput = 400
	fold := func() *outcome {
		out := &outcome{values: map[string]float64{}}
		cp := append([]*cluster.Report(nil), reps...)
		foldLadder(pts, cp, out)
		return out
	}
	if out := fold(); len(out.problems) > 0 || out.values["model.speedup_x"] != 4 {
		t.Fatalf("valid ladder: problems %v, speedup %v", out.problems, out.values["model.speedup_x"])
	}
	reps[len(reps)-1].Throughput = 110 // 1.1x: below the band
	if out := fold(); len(out.problems) == 0 {
		t.Error("a CENT speedup below the band passed")
	}
	reps[len(reps)-1].Throughput = math.NaN()
	if out := fold(); len(out.problems) == 0 || out.failed == 0 {
		t.Error("a NaN throughput passed")
	}
}

func TestShrunkWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		a := measure(ctx, w, 1, true, false, time.Now())
		b := measure(ctx, w, 1, true, false, time.Now())
		if a.Failed > 0 || len(a.Problems) > 0 {
			t.Errorf("%s: %d of %d failed: %v", w.name, a.Failed, a.Attempted, a.Problems)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digest changed between calls: %.12s vs %.12s", w.name, a.Digest, b.Digest)
		}
		for _, m := range endToEnd {
			if _, ok := a.Values[m.Name]; !ok && m.Name != "peak_rss_mb" {
				t.Errorf("%s: no %s", w.name, m.Name)
			}
		}
		if a.Values["run_s"] <= 0 || a.Values["cluster.sim_tokens"] <= 0 {
			t.Errorf("%s: nothing simulated: %v", w.name, a.Values)
		}
	}
}

func TestChildRunsUntracedUnlessAsked(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(time.Now(), childArgs("fleet-diurnal", 1, false), &stdout, &stderr); code != 0 {
		t.Fatalf("child exited %d: %s", code, stderr.String())
	}
	res, err := lastJSONLine(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.Traced || res.Values["cluster.warm_s"] != 0 || res.Failed != 0 {
		t.Errorf("untraced child: traced=%v warm=%v failed=%d %v", res.Traced, res.Values["cluster.warm_s"], res.Failed, res.Problems)
	}
}

func TestTracedRun(t *testing.T) {
	w, err := workloadByName("fleet-diurnal")
	if err != nil {
		t.Fatal(err)
	}
	r := measure(context.Background(), w, 1, true, true, time.Now())
	if r.Failed > 0 || len(r.Problems) > 0 {
		t.Fatalf("traced run failed: %v", r.Problems)
	}
	var sum float64
	for _, l := range layers {
		sum += r.Values[l+".self_pct"]
	}
	if sum != 0 && math.Abs(sum-100) > 1 {
		t.Errorf("shares sum to %.2f%%", sum)
	}
	if r.Values["cluster.warm_s"] <= 0 {
		t.Errorf("no warm re-run time: %v", r.Values)
	}
	names := map[string]bool{}
	for _, s := range r.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"workload.gen", "serve.run", "cluster.warm"} {
		if !names[want] {
			t.Errorf("no %s span in %v", want, r.Spans)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		inputs := func(seed int64) [32]byte {
			p, err := w.prepare(seed, true, &tracer{t0: time.Now()})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return p.inputs
		}
		if inputs(1) != inputs(1) {
			t.Errorf("%s: seed 1 gives different inputs on two calls", w.name)
		}
		if inputs(1) == inputs(2) {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", w.name)
		}
	}
}

func TestSpreadOrder(t *testing.T) {
	reqs := workload.NewGenerator(workload.QMSum(), 3).Batch(64)
	out := spreadOrder(reqs)
	ids := func(rs []workload.Request) []int {
		var xs []int
		for _, r := range rs {
			xs = append(xs, r.ID)
		}
		sort.Ints(xs)
		return xs
	}
	if !slices.Equal(ids(reqs), ids(out)) {
		t.Fatalf("spreadOrder changed the request set")
	}
	sorted := append([]workload.Request(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Context < sorted[j].Context })
	// The first eight requests are the eight octile ranks.
	for i, want := range []int{0, 32, 16, 48, 8, 40, 24, 56} {
		if out[i].ID != sorted[want].ID {
			t.Errorf("position %d holds rank of request %d, want rank %d", i, out[i].ID, want)
		}
	}
}

func TestResultLine(t *testing.T) {
	set := syntheticSet([]float64{1, 1, 1}, "abc", 100)
	for _, traced := range []bool{false, true} {
		data, err := json.Marshal(result(set, traced))
		if err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(data, &line); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(sortedKeys(line), ","); got != "attempted,correct,failed,metrics" {
			t.Errorf("result keys = %s", got)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, m := range want {
			if v, ok := metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s = %+v", traced, m.Name, v)
			}
		}
	}
}

func TestChromeTrace(t *testing.T) {
	t0 := time.Now()
	set := syntheticSet([]float64{1}, "abc", 100)
	wr := set.Workloads["w"]
	wr.runs = []*childResult{
		{Seed: 1, StartUnixNano: t0.Add(time.Millisecond).UnixNano(), Spans: []span{{Name: "serve.run", StartUs: 10, DurUs: 100}}},
		{Seed: 1, Traced: true, StartUnixNano: t0.Add(time.Second).UnixNano(),
			Values: map[string]float64{"kernels.self_pct": 60, "other.self_pct": 40}, Spans: []span{{Name: "serve.run", StartUs: 10, DurUs: 100}}},
	}
	wr.wall = []childWall{{start: t0, dur: 500 * time.Millisecond}, {start: t0.Add(time.Second), dur: time.Second}}
	data, err := json.Marshal(chromeTrace(set, []string{"w"}, t0))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	runIDs := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
		if args, ok := e["args"].(map[string]any); ok && e["ph"] == "X" {
			runIDs[args["run_id"].(string)]++
		}
	}
	if phases["X"] != 4 || phases["C"] != 1 || phases["M"] != 2 {
		t.Errorf("event phases = %v", phases)
	}
	if runIDs["w#0"] != 2 || runIDs["w#1"] != 2 {
		t.Errorf("spans per run id = %v", runIDs)
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	check := func(list string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", list, len(got), len(want))
			return
		}
		for i := range got {
			w := want[i]
			w.kind = 0
			if got[i] != w {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", list, i, got[i], w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
