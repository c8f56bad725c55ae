// Command perfbench is the repository's benchmark. It times the
// simulator's public entry points (core.NewSystem / System.ServeCtx and
// serve.Run) on four seeded workloads, each repetition in a fresh child
// process so that every run pays the cold kernel pricing a command-line
// user pays, checks every output, and reports end-to-end medians plus a
// traced run's per-layer attribution. See README.md.
//
//	bash perfbench/run.sh --workload batch-ladder --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh -seed 1 -out .bench_build/set1.json
//	bash perfbench/run.sh -compare .bench_build/set1.json .bench_build/set2.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	t0 := time.Now()
	os.Exit(run(t0, os.Args[1:], os.Stdout, os.Stderr))
}

func run(t0 time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 25, "measuring time per workload, in seconds (at least 3 repetitions run)")
	trace := fs.Int("trace", 1, "1: add a traced run per workload and print its per-layer metrics; 0: print end-to-end metrics")
	out := fs.String("out", "", "also write the set (quartiles, samples, per-layer values, digests) to this JSON file")
	traceOut := fs.String("trace-out", ".bench_build/perfbench-trace.json", "Chrome trace-event file written by a traced set")
	compare := fs.Bool("compare", false, "compare two set files: -compare base.json new.json")
	child := fs.Bool("child", false, "measure one repetition in this process (the parent starts these)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two set files")
			return 2
		}
		base, err := loadSet(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		cur, err := loadSet(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if compareSets(stdout, base, cur) {
			return 1
		}
		return 0
	case *child:
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		res := measure(ctx, w, *seed, false, *trace == 1, t0)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	if *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	var order []string
	if *name == "all" {
		for _, w := range workloads {
			order = append(order, w.name)
		}
	} else {
		if _, err := workloadByName(*name); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		order = []string{*name}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	set := &setFile{Schema: setSchema, Seed: *seed, Seconds: *seconds, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), Workloads: map[string]*workloadResult{}}
	for _, n := range order {
		wr := measureWorkload(ctx, exe, n, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		set.Workloads[n] = wr
		report(stdout, n, wr)
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if *trace == 1 {
		if err := writeJSON(*traceOut, chromeTrace(set, order, t0)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %s\n", *traceOut)
	}
	res := result(set, *trace == 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints a workload's summary for a person.
func report(w io.Writer, name string, wr *workloadResult) {
	fmt.Fprintf(w, "%s: %d runs, %d/%d operations failed, correct=%v, digest %.16s\n",
		name, wr.Runs, wr.Failed, wr.Attempted, wr.Correct, wr.Digest)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, m := range endToEnd {
		s := wr.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-16s %12.6g %-6s q1 %.6g q3 %.6g spread %.2f%% (bound %.0f%%) n=%d\n",
			m.Name, s.Median, m.Unit, s.Q1, s.Q3, 100*s.spread(), 100*m.Bound, s.N)
	}
	for _, m := range perLayer {
		if v, ok := wr.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "  %-28s %12.6g %s\n", m.Name, v, m.Unit)
		}
	}
}
