// Command pimphony-sim runs end-to-end decode simulations with explicit
// knobs, printing throughput, utilization and energy. Comma-separated
// -system/-model/-trace values sweep the full cross product through the
// parallel sweep engine and print one summary row per point. The
// -system flag resolves through the backend table: any system
// organisation (pim-only, xpu+pim, gpu, dimm-pim) or its preset
// alias (cent, neupims, a100, l3) is accepted; -list enumerates them.
// A candidate whose prompt already fills the model's context window is
// an error (pair long traces such as Loogle-SD with a 128K model), and a
// request that reaches the window mid-run stops there.
//
// Examples:
//
//	pimphony-sim -list
//	pimphony-sim -system cent -model 7b-32k -trace QMSum
//	pimphony-sim -system neupims -model 72b-128k-gqa -trace multifieldqa -tcp=false
//	pimphony-sim -system cent,gpu,dimm-pim -model 7b-32k,7b-128k-gqa -trace QMSum -parallel 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pimphony/internal/backend"
	"pimphony/internal/core"
	"pimphony/internal/experiments"
	"pimphony/internal/model"
	"pimphony/internal/profiling"
	"pimphony/internal/sweep"
	"pimphony/internal/tablefmt"
	"pimphony/internal/workload"
)

// point is one (system, model, trace) grid cell.
type point struct {
	system string
	cfg    core.Config
	trace  string
	reqs   []workload.Request
}

func main() {
	system := flag.String("system", "cent", "system backend(s): registry names or preset aliases; see -list (comma-separated sweeps the grid)")
	modelName := flag.String("model", "7b-32k", "model(s): 7b-32k, 7b-128k-gqa, 72b-32k, 72b-128k-gqa (comma-separated)")
	traceName := flag.String("trace", "QMSum", "workload(s): QMSum, Musique, multifieldqa, Loogle-SD, or uniform:<tokens> (comma-separated)")
	tcp := flag.Bool("tcp", true, "enable token-centric partitioning")
	dcs := flag.Bool("dcs", true, "enable dynamic command scheduling")
	dpa := flag.Bool("dpa", true, "enable dynamic PIM access (lazy KV allocation)")
	tp := flag.Int("tp", 0, "override tensor parallelism, together with -pp (0 = preset)")
	pp := flag.Int("pp", 0, "override pipeline parallelism, together with -tp (0 = preset)")
	window := flag.Int("window", 8, "decode steps to simulate (positive)")
	pool := flag.Int("pool", 64, "candidate request pool size (positive)")
	seed := flag.Int64("seed", 42, "workload RNG seed")
	parallel := flag.Int("parallel", 0, "worker bound per sweep level, 0 = GOMAXPROCS (nested sweeps each apply their own bound; 1 reproduces fully sequential runs)")
	list := flag.Bool("list", false, "list registered backends and experiments with descriptions, then exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		experiments.Catalog(os.Stdout, nil)
		return
	}
	if err := checkSizes(*tp, *pp, *window, *pool); err != nil {
		log.Fatal(err)
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	// fatal flushes the profiles before exiting (log.Fatal skips defers).
	fatal := func(v ...any) { stopProf(); log.Fatal(v...) }

	sweep.SetDefault(*parallel)
	tech := core.Technique{TCP: *tcp, DCS: *dcs, DPA: *dpa}

	// One request pool per trace, shared read-only by every (system,
	// model) cell of the grid.
	poolByTrace := map[string][]workload.Request{}
	for _, tName := range strings.Split(*traceName, ",") {
		tName = strings.TrimSpace(tName)
		if _, ok := poolByTrace[tName]; ok {
			continue
		}
		gen, err := workload.GeneratorByFlag(tName, *seed)
		if err != nil {
			fatal(err)
		}
		poolByTrace[tName] = gen.Batch(*pool)
	}

	var pts []point
	for _, sysName := range strings.Split(*system, ",") {
		preset, err := core.PresetByFlag(sysName)
		if err != nil {
			fatal(err)
		}
		for _, mName := range strings.Split(*modelName, ",") {
			m, err := model.ByFlag(strings.TrimSpace(mName))
			if err != nil {
				fatal(err)
			}
			cfg := preset.Make(m, tech)
			if *tp > 0 {
				cfg.TP, cfg.PP = *tp, *pp
			}
			cfg.DecodeWindow = *window
			for _, tName := range strings.Split(*traceName, ",") {
				tName = strings.TrimSpace(tName)
				pts = append(pts, point{
					system: strings.TrimSpace(sysName),
					cfg:    cfg,
					trace:  tName,
					reqs:   poolByTrace[tName],
				})
			}
		}
	}

	// The grid points are independent simulations; run them through the
	// sweep engine (reports come back in grid order).
	reps, err := sweep.Run(context.Background(), pts, func(ctx context.Context, p point) (*core.Report, error) {
		sys, err := core.NewSystem(p.cfg)
		if err != nil {
			return nil, err
		}
		return sys.ServeCtx(ctx, p.reqs)
	})
	if err != nil {
		fatal(err)
	}

	if len(pts) == 1 {
		printSingle(pts[0].cfg, reps[0], *tcp, *dcs, *dpa)
		return
	}
	t := tablefmt.New(fmt.Sprintf("sweep — %d points (window %d, pool %d)", len(pts), *window, *pool),
		"system", "model", "trace", "batch", "tok/s", "tbt-ms", "pim-util%", "cap-util%")
	for i, p := range pts {
		rep := reps[i]
		t.AddRow(p.system, p.cfg.Model.Name, p.trace, rep.Batch, rep.Throughput,
			1e3*rep.TBTSeconds, 100*rep.PIMUtil, 100*rep.CapacityUtil)
	}
	fmt.Print(t.String())
}

// checkSizes rejects size flags the run cannot honour, naming the flag,
// rather than silently running a default in their place.
func checkSizes(tp, pp, window, pool int) error {
	switch {
	case tp < 0:
		return fmt.Errorf("-tp must be non-negative, got %d", tp)
	case pp < 0:
		return fmt.Errorf("-pp must be non-negative, got %d", pp)
	case (tp == 0) != (pp == 0):
		return fmt.Errorf("-tp and -pp override the preset together, got -tp %d -pp %d", tp, pp)
	case window <= 0:
		return fmt.Errorf("-window must be positive, got %d", window)
	case pool <= 0:
		return fmt.Errorf("-pool must be positive, got %d", pool)
	}
	return nil
}

func printSingle(cfg core.Config, rep *core.Report, tcp, dcs, dpa bool) {
	fmt.Printf("system           %s (%s)\n", cfg.Name, rep.Backend)
	if cfg.Backend != backend.GPU {
		fmt.Printf("parallelism      TP=%d PP=%d over %d modules\n", cfg.TP, cfg.PP, cfg.Modules)
	}
	fmt.Printf("techniques       TCP=%v DCS=%v DPA=%v\n", tcp, dcs, dpa)
	fmt.Printf("batch            %d requests\n", rep.Batch)
	fmt.Printf("decode window    %d steps in %.3f s\n", rep.Steps, rep.TotalSeconds)
	fmt.Printf("throughput       %.1f tokens/s\n", rep.Throughput)
	if rep.TBTSeconds > 0 {
		fmt.Printf("time/token       %.2f ms (per-request TBT)\n", 1e3*rep.TBTSeconds)
	}
	if rep.PIMUtil > 0 {
		fmt.Printf("PIM MAC util     %.1f%%\n", 100*rep.PIMUtil)
		fmt.Printf("attention share  %.1f%% of iteration time\n", 100*rep.AttnTimeShare)
		fmt.Printf("capacity util    %.1f%%\n", 100*rep.CapacityUtil)
		att := rep.AttnEnergy
		fmt.Printf("attn energy      %.1f uJ (MAC %.0f%%, IO %.0f%%, background %.0f%%, else %.0f%%)\n",
			att.Total()/1e6, 100*att.MAC/att.Total(), 100*att.IO/att.Total(),
			100*att.Background/att.Total(), 100*att.Else/att.Total())
	}
}
