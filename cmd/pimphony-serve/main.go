// Command pimphony-serve runs the online serving simulator: a Poisson
// arrival stream of long-context requests is load-balanced across one or
// more continuous-batching PIM decode replicas, and the SLO metrics —
// p50/p95/p99 TTFT and TBT, goodput under the configured SLO — are
// printed as a latency–throughput table. Comma-separated -rate,
// -replicas and -policy values sweep the cross product through the
// parallel sweep engine; the table is byte-identical at any -parallel
// setting (every simulation is deterministic given -seed).
//
// The -alloc and -kv-budget flags pick the KV allocation scheme (static
// T_max reservation vs DPA lazy chunks) and cap the per-replica KV pool;
// -capacity renders the Static-vs-DPA capacity gap table (admission,
// preemption and pool high-water marks) instead of the latency curve.
// -turns switches the workload to multi-turn conversations whose
// contexts re-extend every turn.
//
// The -system flag resolves through the backend table: every system
// organisation is servable, including the GPU
// baseline (admitted against its paged pool) and the DIMM-PIM system;
// -list enumerates backends and experiments.
//
// The -fleet flag replaces the homogeneous replica set with a
// heterogeneous fleet under the global scheduler: comma-separated
// backend:role:count[:kv=GiB][:alloc=static|dpa] specs (roles prefill,
// decode, unified), routed by a -placement policy, with KV handoffs
// and migrations priced over the -ic-gbps/-ic-lat-us interconnect.
//
// The -arrivals flag swaps the stationary Poisson stream for a bursty
// process at the same time-averaged -rate: a two-state MMPP
// (mmpp:<burst>[:<dwell-s>]) or a sinusoidal day curve
// (diurnal:<period-s>[:<amp>]). In fleet mode, -autoscale runs the
// fleet under an autoscaling policy instead of fixed: each spec keeps
// -min-online replicas always on, scale-ups pay -warmup seconds before
// capacity lands, and the table reports the provisioning-economics
// axes (time-weighted online replicas, joules/token, $/Mtok,
// SLO-compliant tokens per dollar) next to the latency metrics.
//
// Examples:
//
//	pimphony-serve -list
//	pimphony-serve -system cent -model 7b-32k -trace QMSum
//	pimphony-serve -system gpu -rate 50,100 -replicas 1,2
//	pimphony-serve -rate 50,100,200 -replicas 1,2,4 -policy round-robin,least-tokens
//	pimphony-serve -rate 100 -policy session -sessions 4 -slo-ttft 50
//	pimphony-serve -capacity -kv-budget 32 -trace heavy:2048-30000 -rate 32,96
//	pimphony-serve -alloc static -kv-budget 32 -turns 3 -think 0.2
//	pimphony-serve -fleet neupims:prefill:1,cent:decode:3:kv=32 -trace heavy:1024-24000 -rate 2,4,8 -slo-ttft 1000
//	pimphony-serve -fleet cent:unified:4:kv=24 -placement kv-headroom,least-tokens-fit -rate 4
//	pimphony-serve -fleet cent:unified:4:kv=24 -arrivals diurnal:60:0.9 -rate 3 -autoscale fixed,slo -slo-ttft 2500
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"pimphony/internal/cluster"
	"pimphony/internal/core"
	"pimphony/internal/experiments"
	"pimphony/internal/model"
	"pimphony/internal/profiling"
	"pimphony/internal/serve"
	"pimphony/internal/sweep"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// printCatalog renders the shared backend/experiment catalog with the
// serving-specific policy lists between the sections.
func printCatalog() {
	experiments.Catalog(os.Stdout, func(w io.Writer) {
		fmt.Fprintln(w, "\nload-balancing policies (-policy):")
		fmt.Fprintf(w, "  %s\n", strings.Join(serve.PolicyNames(), ", "))
		fmt.Fprintln(w, "\nfleet placement policies (-placement, with -fleet):")
		fmt.Fprintf(w, "  %s\n", strings.Join(serve.PlacementNames(), ", "))
		fmt.Fprintln(w, "\nfleet replica roles (-fleet backend:role:count[:kv=GiB][:alloc=static|dpa]):")
		fmt.Fprintln(w, "  prefill — prompt processing only; hands KV to a decode replica over the interconnect")
		fmt.Fprintln(w, "  decode  — continuous-batching decode only; receives KV from prefill replicas (without them, prompts are prefilled outside the fleet)")
		fmt.Fprintln(w, "  unified — prefills and decodes locally (no handoff transfer)")
		fmt.Fprintln(w, "\nfleet autoscaling policies (-autoscale, with -fleet; 'fixed' keeps every replica online):")
		fmt.Fprintf(w, "  %s\n", strings.Join(serve.AutoscalerNames(), ", "))
		fmt.Fprintln(w, "\narrival processes (-arrivals, time-averaged to -rate):")
		fmt.Fprintln(w, "  poisson, mmpp:<burst>[:<dwell-s>], diurnal:<period-s>[:<amp>]")
		fmt.Fprintln(w, "\nfault injection (-mtbf/-mttr/-fault-mode/-retries, with -fleet; seeded from -seed):")
		fmt.Fprintln(w, "  crash — replica fails, loses its KV, in-flight requests retry with exponential backoff")
		fmt.Fprintln(w, "  slow  — transient 2x iteration-time slowdown; placement and stealing route around it")
		fmt.Fprintln(w, "  link  — transient 4x interconnect degradation; migration re-prices against recompute")
	})
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", f, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q in %q", f, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	system := flag.String("system", "cent", "system backend: a registry name or preset alias; see -list")
	modelName := flag.String("model", "7b-32k", "model: 7b-32k, 7b-128k-gqa, 72b-32k, 72b-128k-gqa")
	traceName := flag.String("trace", "QMSum", "workload: QMSum, Musique, multifieldqa, Loogle-SD, or uniform:<tokens>")
	decode := flag.Int("decode", 32, "generation length per request (tokens)")
	n := flag.Int("n", 48, "number of requests in the arrival schedule")
	rates := flag.String("rate", "50,100,200", "arrival rate(s) in requests/second (comma-separated sweeps)")
	arrivals := flag.String("arrivals", "poisson", "arrival process: poisson, mmpp:<burst>[:<dwell-s>], diurnal:<period-s>[:<amp>] (time-averaged to -rate)")
	replicas := flag.String("replicas", "1", "replica count(s) behind the load balancer (comma-separated sweeps)")
	policies := flag.String("policy", "round-robin,least-tokens",
		fmt.Sprintf("load-balancing policy(ies), comma-separated; known: %s", strings.Join(serve.PolicyNames(), ", ")))
	sessions := flag.Int("sessions", 8, "number of conversation sessions arrivals are drawn from")
	sloTTFT := flag.Float64("slo-ttft", 100, "TTFT SLO in milliseconds (0 disables)")
	sloTBT := flag.Float64("slo-tbt", 25, "TBT SLO in milliseconds (0 disables)")
	prefill := flag.Bool("prefill", false, "add offloaded prompt-prefill latency to TTFT/E2E")
	alloc := flag.String("alloc", "", "KV allocation scheme: static or dpa (default dpa; comma-separated or empty sweeps static,dpa in -capacity mode)")
	kvBudget := flag.Float64("kv-budget", 0, "per-replica KV capacity budget in GiB (0 = the full pool left after weights)")
	capacity := flag.Bool("capacity", false, "render the Static-vs-DPA capacity gap table (admission/preemption/pool peaks) instead of the latency curve")
	fleet := flag.String("fleet", "", "heterogeneous fleet specs, comma-separated backend:role:count[:kv=GiB][:alloc=static|dpa]; replaces -system/-replicas/-policy with the global scheduler")
	placements := flag.String("placement", "kv-headroom",
		fmt.Sprintf("fleet placement policy(ies), comma-separated sweeps; known: %s", strings.Join(serve.PlacementNames(), ", ")))
	autoscale := flag.String("autoscale", "",
		fmt.Sprintf("fleet mode: autoscaling policy(ies), comma-separated sweeps of fixed, %s (empty = the fixed fleet table)", strings.Join(serve.AutoscalerNames(), ", ")))
	warmup := flag.Float64("warmup", 2, "fleet autoscaling: seconds a scaled-up replica warms before it can serve")
	minOnline := flag.Int("min-online", 1, "fleet autoscaling: replicas per spec that start online (the rest are standby)")
	migrate := flag.Bool("migrate", true, "fleet mode: migrate preempted KV to a replica with headroom when the transfer is cheaper than recompute")
	steal := flag.Bool("steal", true, "fleet mode: idle replicas steal queued requests from overloaded ones")
	icGbps := flag.Float64("ic-gbps", 64, "fleet interconnect bandwidth in GiB/s (0 disables transfers: unified fleets only)")
	icLatUs := flag.Float64("ic-lat-us", 2, "fleet interconnect latency in microseconds")
	mtbf := flag.Float64("mtbf", 0, "fleet fault injection: mean seconds between failures per decode replica (0 disables)")
	mttr := flag.Float64("mttr", 2, "fleet fault injection: mean seconds to recover a failed replica")
	faultMode := flag.String("fault-mode", "crash", "fleet fault injection: crash (lose KV, retry), slow (2x iteration slowdown), or link (4x interconnect degradation)")
	retries := flag.Int("retries", 3, "fleet fault injection: per-request retry budget after a crash (-1 = unlimited)")
	turns := flag.Int("turns", 1, "turns per conversation; >1 switches to multi-turn sessions (-sessions conversations whose contexts re-extend per turn; -rate becomes the session-start rate)")
	think := flag.Float64("think", 0.2, "mean think time in seconds between turns of a session (multi-turn only)")
	seed := flag.Int64("seed", 42, "RNG seed for request sizes and arrival times")
	parallel := flag.Int("parallel", 0, "sweep worker bound, 0 = GOMAXPROCS (1 reproduces fully sequential runs)")
	csv := flag.Bool("csv", false, "emit CSV instead of the aligned table")
	list := flag.Bool("list", false, "list registered backends and experiments with descriptions, then exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		printCatalog()
		return
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	// fatal/fatalf flush the profiles before exiting (log.Fatal skips
	// defers).
	fatal := func(v ...any) { stopProf(); log.Fatal(v...) }
	fatalf := func(format string, v ...any) { stopProf(); log.Fatalf(format, v...) }

	sweep.SetDefault(*parallel)
	m, err := model.ByFlag(*modelName)
	if err != nil {
		fatal(err)
	}
	preset, err := core.PresetByFlag(*system)
	if err != nil {
		fatal(err)
	}
	sysCfg := preset.Make(m, core.PIMphony())
	budget, err := budgetBytes(*kvBudget)
	if err != nil {
		fatalf("-kv-budget: %v", err)
	}
	if budget > 0 {
		sysCfg.KVBudgetBytes = budget
	}
	// NaN fails every comparison, so "-mtbf nan" would otherwise run
	// fault-free without a word. The fault plan and the fleet would
	// reject the rest only when the first table row runs, in their own
	// field names, and a NaN -mttr or -warmup not at all while faults or
	// autoscaling are off.
	if !(*mtbf >= 0) || math.IsInf(*mtbf, 1) {
		fatalf("-mtbf must be a non-negative number of seconds (0 disables) and finite, got %g", *mtbf)
	}
	if !(*mttr >= 0) || math.IsInf(*mttr, 1) {
		fatalf("-mttr must be a non-negative, finite number of seconds, got %g", *mttr)
	}
	if !(*warmup >= 0) || math.IsInf(*warmup, 1) {
		fatalf("-warmup must be a non-negative, finite number of seconds, got %g", *warmup)
	}
	// The fault plan reads any negative budget as unlimited, so "-retries
	// -5" would otherwise run with no budget at all.
	if *retries < -1 {
		fatalf("-retries must be a retry count or -1 for unlimited, got %d", *retries)
	}
	// A count below 1 would otherwise run the single-turn schedule
	// without a word.
	if *turns < 1 {
		fatalf("-turns must be at least 1, got %d", *turns)
	}
	// The library would reject these only when the first table row
	// runs: an SLO in its own seconds, a zero generation length as its
	// first request's, and no requests as an empty schedule.
	if !(*sloTTFT >= 0) || math.IsInf(*sloTTFT, 1) {
		fatalf("-slo-ttft must be a non-negative, finite number of milliseconds (0 disables), got %g", *sloTTFT)
	}
	if !(*sloTBT >= 0) || math.IsInf(*sloTBT, 1) {
		fatalf("-slo-tbt must be a non-negative, finite number of milliseconds (0 disables), got %g", *sloTBT)
	}
	if *decode < 1 {
		fatalf("-decode must be at least 1 token, got %d", *decode)
	}
	if *turns == 1 && *n < 1 {
		fatalf("-n must be at least 1 request, got %d", *n)
	}
	// The fleet would reject these only when its first table row runs,
	// in its own units. 0 GiB/s is no fabric and +Inf free transfers.
	if !(*icGbps >= 0) {
		fatalf("-ic-gbps must be a non-negative bandwidth in GiB/s (0 = no fabric), got %g", *icGbps)
	}
	if !(*icLatUs >= 0) || math.IsInf(*icLatUs, 1) {
		fatalf("-ic-lat-us must be a non-negative, finite latency in µs, got %g", *icLatUs)
	}
	// Probe whether the backend owns its allocator (the GPU's paged
	// pool): the -alloc/-capacity static-vs-dpa toggles act through the
	// technique-selected allocator and are inapplicable there — derived
	// from the backend's admission semantics, not its name, so a future
	// fixed-allocator backend is caught too.
	probe, err := cluster.New(sysCfg)
	if err != nil {
		fatal(err)
	}
	fixedAlloc := probe.FixedAllocator()

	rateList, err := splitFloats(*rates)
	if err != nil {
		fatal(err)
	}
	replList, err := splitInts(*replicas)
	if err != nil {
		fatal(err)
	}

	// One deterministic schedule per rate: the request sequence (sizes,
	// sessions) is identical across rates; only the timestamps change.
	// The arrival process gets a derived seed so the size and timing
	// RNG streams are independent, not copies of one another. The
	// -arrivals grammar picks the process (stationary Poisson, MMPP
	// bursts, diurnal day curve) at the same time-averaged rate. With
	// -turns > 1 the schedule is -sessions multi-turn conversations
	// instead, each turn re-extending its session's context.
	arrFlag := strings.TrimSpace(*arrivals)
	if *turns > 1 && arrFlag != "" && arrFlag != "poisson" {
		fatalf("-arrivals %s does not apply to multi-turn sessions: the session-start process is Poisson and turn timing comes from -think", arrFlag)
	}
	mkArrivals := func(rate float64) ([]workload.Arrival, error) {
		gen, err := workload.GeneratorByFlag(strings.TrimSpace(*traceName), *seed)
		if err != nil {
			return nil, err
		}
		gen.DecodeLen = *decode
		if *turns > 1 {
			return workload.MultiTurnArrivals(gen, workload.MultiTurnSpec{
				Sessions:   *sessions,
				Turns:      *turns,
				Rate:       rate,
				ThinkMean:  *think,
				PromptMin:  64,
				PromptMax:  512,
				MaxContext: m.ContextWindow - *decode,
			}, *seed+1)
		}
		return workload.ArrivalsByFlag(arrFlag, gen, rate, *sessions, *n, *seed+1)
	}

	slo := serve.SLO{TTFT: *sloTTFT / 1e3, TBT: *sloTBT / 1e3}
	workDesc := fmt.Sprintf("%d requests", *n)
	if *turns > 1 {
		workDesc = fmt.Sprintf("%d sessions x %d turns", *sessions, *turns)
	}

	render := func(st serve.Study) {
		t, err := st.Table(context.Background())
		if err != nil {
			fatal(err)
		}
		if *csv {
			fmt.Print(t.CSV())
			return
		}
		fmt.Print(t.String())
	}

	if *fleet != "" {
		if *capacity {
			fatal("-fleet and -capacity are mutually exclusive")
		}
		if *prefill {
			fatal("-prefill does not apply in fleet mode: prefill and unified replicas price their own prompts (prefill replicas the KV handoff too), and a decode-only fleet's prompts are prefilled outside it")
		}
		policySet := false
		flag.Visit(func(f *flag.Flag) { policySet = policySet || f.Name == "policy" || f.Name == "replicas" })
		if policySet {
			fatal("-policy/-replicas do not apply in fleet mode; the fleet shape comes from -fleet and routing from -placement")
		}
		specs, err := parseFleetSpecs(*fleet, m, budget)
		if err != nil {
			fatal(err)
		}
		ic := timing.Interconnect{BytesPerSecond: *icGbps * float64(1<<30), LatencySeconds: *icLatUs * 1e-6}
		// -mtbf compiles a recurring fault schedule over every decode
		// replica, seeded from -seed so the timeline is reproducible.
		var faults *serve.FaultPlan
		if *mtbf > 0 {
			fm, err := serve.FaultModeByName(strings.TrimSpace(*faultMode))
			if err != nil {
				fatal(err)
			}
			faults = &serve.FaultPlan{
				Seed: uint64(*seed),
				Groups: []serve.FaultGroup{{
					Spec: -1, Mode: fm, MTBFSeconds: *mtbf, MTTRSeconds: *mttr,
					Slowdown: 2, LinkFactor: 4,
				}},
				MaxRetries:     *retries,
				BackoffSeconds: 0.25,
			}
		}
		if *autoscale != "" {
			// The autoscale table has no placement column: like -capacity
			// with -policy, it sweeps policies under one placement.
			if strings.Contains(*placements, ",") {
				fatalf("-autoscale sweeps autoscaling policies under a single -placement; got %q", *placements)
			}
			// Decode-capable specs keep -min-online replicas always on
			// and pay -warmup per scale-up; prefill replicas are not
			// autoscaled (Min/WarmupSeconds are decode-pool knobs).
			ascSpecs := make([]serve.ReplicaSpec, len(specs))
			copy(ascSpecs, specs)
			for i := range ascSpecs {
				if ascSpecs[i].Role != serve.RolePrefill {
					ascSpecs[i].Min = *minOnline
					ascSpecs[i].WarmupSeconds = *warmup
				}
			}
			base := serve.Config{Fleet: ascSpecs, SLO: slo, Interconnect: ic, Migrate: *migrate, Steal: *steal, Faults: faults}
			st := experiments.AutoscaleLayout
			st.Title = fmt.Sprintf("autoscale %s / %s / %s / %s — %s, decode %d, min %d, warm-up %gs, SLO ttft<=%gms tbt<=%gms (ttft-p95 in ms)",
				strings.TrimSpace(*fleet), m.Name, strings.TrimSpace(*traceName), arrFlag, workDesc, *decode, *minOnline, *warmup, *sloTTFT, *sloTBT)
			for _, mode := range strings.Split(*autoscale, ",") {
				if mode = strings.TrimSpace(mode); mode == "" {
					mode = "fixed"
				}
				for _, rate := range rateList {
					name := arrFlag
					if name == "" {
						name = "poisson"
					}
					if len(rateList) > 1 {
						name = fmt.Sprintf("%s@%g", name, rate)
					}
					st.Scenarios = append(st.Scenarios, serve.Scenario{
						Labels:   []any{name, mode, serve.RoleSummary(ascSpecs)},
						Config:   experiments.FleetConfig(base, strings.TrimSpace(*placements), mode),
						Arrivals: func() ([]workload.Arrival, error) { return mkArrivals(rate) },
					})
				}
			}
			render(st)
			return
		}
		base := serve.Config{Fleet: specs, SLO: slo, Interconnect: ic, Migrate: *migrate, Steal: *steal, Faults: faults}
		st := experiments.FleetLayout
		st.Title = fmt.Sprintf("fleet %s / %s / %s — %s, decode %d, ic %ggbps+%gus, SLO ttft<=%gms tbt<=%gms (latencies in ms)",
			strings.TrimSpace(*fleet), m.Name, strings.TrimSpace(*traceName), workDesc, *decode, *icGbps, *icLatUs, *sloTTFT, *sloTBT)
		for _, pl := range strings.Split(*placements, ",") {
			pl = strings.TrimSpace(pl)
			for _, rate := range rateList {
				st.Scenarios = append(st.Scenarios, serve.Scenario{
					Labels:   []any{pl, serve.RoleSummary(specs), rate},
					Config:   experiments.FleetConfig(base, pl, "fixed"),
					Arrivals: func() ([]workload.Arrival, error) { return mkArrivals(rate) },
				})
			}
		}
		render(st)
		return
	}

	if *autoscale != "" {
		fatal("-autoscale requires fleet mode (set -fleet); the homogeneous replica set is fixed")
	}
	if *mtbf > 0 {
		fatal("-mtbf requires fleet mode (set -fleet); fault injection targets fleet replicas")
	}

	if *capacity {
		if *prefill {
			fatal("-prefill is not supported in -capacity mode (the capacity table reports decode-side latencies only)")
		}
		if fixedAlloc {
			fatalf("-capacity compares the static and dpa KV allocators; the %s backend admits against its own fixed pool", sysCfg.Backend)
		}
		allocList := strings.TrimSpace(*alloc)
		if allocList == "" {
			allocList = "static,dpa"
		}
		// The capacity table sweeps allocators under one fixed policy:
		// a multi-policy sweep would need a policy column it does not
		// have. The curve-mode default (two policies) silently becomes
		// round-robin; an explicit multi-policy list is an error.
		policySet := false
		flag.Visit(func(f *flag.Flag) { policySet = policySet || f.Name == "policy" })
		policy := "round-robin"
		if policySet {
			if strings.Contains(*policies, ",") {
				fatalf("-capacity sweeps allocators under a single -policy; got %q", *policies)
			}
			policy = strings.TrimSpace(*policies)
		}
		st := experiments.CapacityLayout
		st.Title = fmt.Sprintf("capacity %s / %s / %s — %s, decode %d, KV budget %s, SLO ttft<=%gms tbt<=%gms (latencies in ms)",
			*system, m.Name, strings.TrimSpace(*traceName), workDesc, *decode, budgetDesc(sysCfg.KVBudgetBytes), *sloTTFT, *sloTBT)
		for _, al := range strings.Split(allocList, ",") {
			al = strings.TrimSpace(al)
			for _, r := range replList {
				for _, rate := range rateList {
					st.Scenarios = append(st.Scenarios, serve.Scenario{
						Labels: []any{al, r, rate},
						Config: func() (serve.Config, error) {
							cfg := sysCfg
							switch al {
							case "static":
								cfg.Tech.DPA = false
							case "dpa":
								cfg.Tech.DPA = true
							default:
								return serve.Config{}, fmt.Errorf("serve: unknown allocator %q (static, dpa)", al)
							}
							return experiments.Balanced(serve.Config{System: cfg, Replicas: r, SLO: slo}, policy)()
						},
						Arrivals: func() ([]workload.Arrival, error) { return mkArrivals(rate) },
					})
				}
			}
		}
		render(st)
		return
	}

	switch strings.TrimSpace(*alloc) {
	case "", "dpa":
		sysCfg.Tech.DPA = true
	case "static":
		sysCfg.Tech.DPA = false
	default:
		fatalf("unknown allocator %q (static, dpa; comma-separated sweeps need -capacity)", *alloc)
	}
	if fixedAlloc && strings.TrimSpace(*alloc) != "" {
		fatalf("-alloc selects the technique KV allocator; the %s backend always admits against its own fixed pool", sysCfg.Backend)
	}
	st := experiments.CurveLayout
	st.Title = fmt.Sprintf("serving %s / %s / %s — %s, decode %d, SLO ttft<=%gms tbt<=%gms (latencies in ms)",
		*system, m.Name, strings.TrimSpace(*traceName), workDesc, *decode, *sloTTFT, *sloTBT)
	for _, pol := range strings.Split(*policies, ",") {
		pol = strings.TrimSpace(pol)
		for _, r := range replList {
			for _, rate := range rateList {
				st.Scenarios = append(st.Scenarios, serve.Scenario{
					Labels:   []any{pol, r, rate},
					Config:   experiments.Balanced(serve.Config{System: sysCfg, Replicas: r, SLO: slo, IncludePrefill: *prefill}, pol),
					Arrivals: func() ([]workload.Arrival, error) { return mkArrivals(rate) },
				})
			}
		}
	}
	render(st)
}

// budgetBytes converts a KV budget in GiB to bytes. Zero keeps the
// whole pool; anything else must come to a finite budget of at least
// one byte, since cluster.Config reads 0 bytes as the whole pool.
func budgetBytes(gib float64) (int64, error) {
	b := gib * (1 << 30)
	if gib != 0 && !(b >= 1 && b < math.MaxInt64) {
		return 0, fmt.Errorf("KV budget %g GiB is neither 0 (the whole pool) nor a finite budget of at least one byte", gib)
	}
	return int64(b), nil
}

// budgetDesc renders the KV budget for titles.
func budgetDesc(b int64) string {
	if b <= 0 {
		return "full pool"
	}
	return fmt.Sprintf("%.3g GiB/replica", float64(b)/float64(1<<30))
}

// parseFleetSpecs parses the -fleet grammar: comma-separated
// backend:role:count specs with optional :kv=GiB and :alloc=static|dpa
// suffixes in any order. defBudget (from -kv-budget, 0 = full pool)
// applies to specs without an explicit kv= override.
func parseFleetSpecs(s string, m model.Config, defBudget int64) ([]serve.ReplicaSpec, error) {
	var specs []serve.ReplicaSpec
	for _, raw := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(raw), ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("fleet spec %q: want backend:role:count[:kv=GiB][:alloc=static|dpa]", raw)
		}
		preset, err := core.PresetByFlag(parts[0])
		if err != nil {
			return nil, fmt.Errorf("fleet spec %q: %w", raw, err)
		}
		var role serve.Role
		switch strings.ToLower(strings.TrimSpace(parts[1])) {
		case "prefill", "pre":
			role = serve.RolePrefill
		case "decode", "dec":
			role = serve.RoleDecode
		case "unified", "uni":
			role = serve.RoleUnified
		default:
			return nil, fmt.Errorf("fleet spec %q: unknown role %q (prefill, decode, unified)", raw, parts[1])
		}
		count, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("fleet spec %q: bad replica count %q", raw, parts[2])
		}
		cfg := preset.Make(m, core.PIMphony())
		if defBudget > 0 {
			cfg.KVBudgetBytes = defBudget
		}
		for _, opt := range parts[3:] {
			opt = strings.TrimSpace(opt)
			switch {
			case strings.HasPrefix(opt, "kv="):
				gib, err := strconv.ParseFloat(opt[len("kv="):], 64)
				if err != nil || !(gib > 0) {
					return nil, fmt.Errorf("fleet spec %q: bad KV budget %q", raw, opt)
				}
				if cfg.KVBudgetBytes, err = budgetBytes(gib); err != nil {
					return nil, fmt.Errorf("fleet spec %q: %w", raw, err)
				}
			case strings.HasPrefix(opt, "alloc="):
				switch opt[len("alloc="):] {
				case "static":
					cfg.Tech.DPA = false
				case "dpa":
					cfg.Tech.DPA = true
				default:
					return nil, fmt.Errorf("fleet spec %q: unknown allocator %q (static, dpa)", raw, opt)
				}
			default:
				return nil, fmt.Errorf("fleet spec %q: unknown option %q (kv=GiB, alloc=static|dpa)", raw, opt)
			}
		}
		specs = append(specs, serve.ReplicaSpec{System: cfg, Count: count, Role: role})
	}
	return specs, nil
}
