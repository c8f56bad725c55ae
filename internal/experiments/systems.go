package experiments

import (
	"context"
	"fmt"

	"pimphony/internal/cluster"
	"pimphony/internal/core"
	"pimphony/internal/model"
	"pimphony/internal/sweep"
	"pimphony/internal/tablefmt"
	"pimphony/internal/workload"
)

// traceFor pairs each Table I model with its evaluation suite: non-GQA
// models run LongBench, GQA models run LV-Eval (Sec. VIII-A).
func tracesFor(m model.Config) []workload.Trace {
	if m.IsGQA() {
		return []workload.Trace{workload.MultiFieldQA(), workload.LoogleSD()}
	}
	return []workload.Trace{workload.QMSum(), workload.Musique()}
}

// requestPool samples a deterministic candidate pool for a trace.
func requestPool(tr workload.Trace, n int) []workload.Request {
	return workload.NewGenerator(tr, 42).Batch(n)
}

// modelTrace is one (model, trace) sweep point.
type modelTrace struct {
	m  model.Config
	tr workload.Trace
}

// modelTraceGrid crosses each model with its evaluation suite.
func modelTraceGrid(models []model.Config) []modelTrace {
	var pts []modelTrace
	for _, m := range models {
		for _, tr := range tracesFor(m) {
			pts = append(pts, modelTrace{m, tr})
		}
	}
	return pts
}

// incrementalTable runs the +TCP/+DCS/+DPA ladder for one preset across
// its traces, sweeping the independent (model, trace) points in
// parallel.
func incrementalTable(title string, preset func(model.Config, core.Technique) core.Config, models []model.Config, poolSize int) (*tablefmt.Table, error) {
	t := tablefmt.New(title,
		"model", "trace", "baseline", "+TCP", "+DCS", "+DPA", "speedup")
	rows, err := sweep.Run(context.Background(), modelTraceGrid(models),
		func(ctx context.Context, p modelTrace) ([]any, error) {
			reqs := requestPool(p.tr, poolSize)
			stages, err := core.IncrementalStudyCtx(ctx, preset(p.m, core.Baseline()), reqs)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.m.Name, p.tr.Name, err)
			}
			tp := func(i int) float64 { return stages[i].Report.Throughput }
			return []any{p.m.Name, p.tr.Name, tp(0), tp(1), tp(2), tp(3), tp(3) / tp(0)}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return t, nil
}

// Fig13PIMOnly reproduces the PIM-only (CENT-style) throughput study:
// incremental TCP/DCS/DPA bars for all four models on their suites.
func Fig13PIMOnly() (*Result, error) {
	t, err := incrementalTable("Fig. 13 — PIM-only throughput (tokens/s), optimal TP/PP",
		core.CENT, sweepModels(), pool(64))
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig13", Title: "PIM-only system throughput", Tables: []*tablefmt.Table{t},
		Notes: []string{"paper: 2.1-4.5x on non-GQA 32K models, up to 11.3x on GQA 128K models"}}, nil
}

// Fig14XPUPIM reproduces the xPU+PIM (NeuPIMs-style) throughput study.
func Fig14XPUPIM() (*Result, error) {
	t, err := incrementalTable("Fig. 14 — xPU+PIM throughput (tokens/s), optimal TP/PP",
		core.NeuPIMs, sweepModels(), pool(64))
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig14", Title: "xPU+PIM system throughput", Tables: []*tablefmt.Table{t},
		Notes: []string{"paper: up to 8.4x; DPA matters most here (larger batches feed the NPU)"}}, nil
}

// Fig4Utilization reproduces the PIM-utilization preview: CENT vs the
// incremental PIMphony stages under a short (4K-class) and a long
// (32K-class, QMSum) workload, with the static reservation sized to each
// workload's maximum (batch size scales inversely with context).
func Fig4Utilization() (*Result, error) {
	m := model.LLM7B128KGQA() // the paper's LLM-7B-32K-GQA equivalent
	t := tablefmt.New("Fig. 4 — PIM utilization under short and long contexts (CENT, LLM-7B GQA)",
		"workload", "stage", "pim-util%", "eff-batch", "tok/s")
	type utilCase struct {
		label string
		reqs  []workload.Request
		tmax  int
	}
	cases := []utilCase{
		{"4K", workload.ThreeSigma(4096, 7).Batch(pool(192)), 3 * 4096 / 2},
		{"32K(QMSum)", workload.NewGenerator(workload.QMSum(), 7).Batch(pool(192)), 32768},
	}
	groups, err := sweep.Run(context.Background(), cases,
		func(ctx context.Context, c utilCase) ([][]any, error) {
			cfg := core.CENT(m, core.Baseline())
			cfg.TMaxOverride = c.tmax
			stages, err := core.IncrementalStudyCtx(ctx, cfg, c.reqs)
			if err != nil {
				return nil, err
			}
			var rows [][]any
			for _, st := range stages {
				rows = append(rows, []any{c.label, st.Stage, 100 * st.Report.PIMUtil, st.Report.Batch, st.Report.Throughput})
			}
			return rows, nil
		})
	if err != nil {
		return nil, err
	}
	addRowGroups(t, groups)
	return &Result{ID: "fig4", Title: "PIM utilization preview", Tables: []*tablefmt.Table{t},
		Notes: []string{"paper: 48% utilization reduction at 32K for CENT; PIMphony restores it (effective batch 53 with DPA)"}}, nil
}

// Fig15Parallelism sweeps (TP, PP) combinations for the two Fig. 15
// workloads under baseline and full PIMphony.
func Fig15Parallelism() (*Result, error) {
	cases := []modelTrace{
		{model.LLM7B32K(), workload.QMSum()},
		{model.LLM7B128KGQA(), workload.MultiFieldQA()},
	}
	parGrid := []struct{ tp, pp int }{{8, 1}, {4, 2}, {2, 4}, {1, 8}}
	if Short() {
		parGrid = []struct{ tp, pp int }{{8, 1}, {1, 8}}
	}
	type point struct {
		modelTrace
		tp, pp int
		reqs   []workload.Request // shared read-only across the case's points
	}
	var pts []point
	for _, c := range cases {
		reqs := requestPool(c.tr, pool(64))
		for _, par := range parGrid {
			if c.m.Layers%par.pp != 0 || par.tp > c.m.KVHeads() {
				continue
			}
			pts = append(pts, point{c, par.tp, par.pp, reqs})
		}
	}
	t := tablefmt.New("Fig. 15 — throughput across (TP,PP) on CENT (tokens/s)",
		"model", "trace", "tp", "pp", "baseline", "pimphony")
	rows, err := sweep.Run(context.Background(), pts,
		func(ctx context.Context, p point) ([]any, error) {
			reqs := p.reqs
			var tput [2]float64
			for i, tech := range []core.Technique{core.Baseline(), core.PIMphony()} {
				cfg := core.CENT(p.m, tech)
				cfg.TP, cfg.PP = p.tp, p.pp
				sys, err := core.NewSystem(cfg)
				if err != nil {
					return nil, err
				}
				rep, err := sys.ServeCtx(ctx, reqs)
				if err != nil {
					return nil, err
				}
				tput[i] = rep.Throughput
			}
			return []any{p.m.Name, p.tr.Name, p.tp, p.pp, tput[0], tput[1]}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return &Result{ID: "fig15", Title: "Tensor vs pipeline parallelization", Tables: []*tablefmt.Table{t},
		Notes: []string{"paper: TCP lifts TP efficiency; DPA's larger batches make PP viable (20% gain for GQA)"}}, nil
}

// Fig16Energy reproduces the energy breakdowns of CENT vs CENT+PIMphony.
func Fig16Energy() (*Result, error) {
	t := tablefmt.New("Fig. 16 — attention energy breakdown per decode window (CENT)",
		"model", "system", "mac%", "io%", "background%", "else%", "attn-energy-ratio")
	models := []model.Config{model.LLM7B32K(), model.LLM7B128KGQA()}
	groups, err := sweep.Run(context.Background(), models,
		func(ctx context.Context, m model.Config) ([][]any, error) {
			tr := tracesFor(m)[0]
			reqs := requestPool(tr, pool(48))
			var base, full *core.Report
			for _, tech := range []core.Technique{core.Baseline(), core.PIMphony()} {
				sys, err := core.NewSystem(core.CENT(m, tech))
				if err != nil {
					return nil, err
				}
				rep, err := sys.ServeCtx(ctx, reqs)
				if err != nil {
					return nil, err
				}
				if tech.TCP {
					full = rep
				} else {
					base = rep
				}
			}
			var rows [][]any
			for _, row := range []struct {
				name string
				rep  *core.Report
			}{{"cent", base}, {"cent+pimphony", full}} {
				e := row.rep.AttnEnergy
				tot := e.Total()
				// Normalise per generated token for a fair ratio (batches differ).
				perTok := tot / float64(row.rep.Batch*row.rep.Steps)
				basePerTok := base.AttnEnergy.Total() / float64(base.Batch*base.Steps)
				rows = append(rows, []any{m.Name, row.name, 100 * e.MAC / tot, 100 * e.IO / tot,
					100 * e.Background / tot, 100 * e.Else / tot, basePerTok / perTok})
			}
			return rows, nil
		})
	if err != nil {
		return nil, err
	}
	addRowGroups(t, groups)
	return &Result{ID: "fig16", Title: "Energy breakdown", Tables: []*tablefmt.Table{t},
		Notes: []string{"paper: background share collapses 71.5% -> 13.0%; up to 3.46x attention energy reduction"}}, nil
}

// fig17Preset describes one Fig. 17 system family.
type fig17Preset struct {
	name      string
	make      func(model.Config, core.Technique) core.Config
	modBytes  int64
	modsForGB func(gib int) int
	tpOnly    bool // NeuPIMs scales via pure (token-sharded) TP
}

func fig17Presets() []fig17Preset {
	return []fig17Preset{
		{"cent", core.CENT, 16 << 30, func(gib int) int { return gib / 16 }, false},
		{"neupims", core.NeuPIMs, 32 << 30, func(gib int) int { return gib / 32 }, true},
	}
}

// fig17Pair runs one sweep point under baseline and full PIMphony. The
// two techniques are themselves independent simulations, so they nest
// another level of fan-out (halving the critical path of the slowest
// long-context points).
func fig17Pair(ctx context.Context, m model.Config, p fig17Preset, modules, tmax int, reqs []workload.Request) ([2]float64, error) {
	tputs, err := sweep.Run(ctx, []core.Technique{core.Baseline(), core.PIMphony()},
		func(ctx context.Context, tech core.Technique) (float64, error) {
			cfg := p.make(m, tech)
			cfg.Modules = modules
			if p.tpOnly {
				cfg.TP, cfg.PP = cfg.Modules, 1
			} else {
				cfg.TP, cfg.PP = core.OptimalParallelism(m, cfg.Modules)
			}
			cfg.TMaxOverride = tmax
			cfg.DecodeWindow = 2
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return 0, err
			}
			rep, err := sys.ServeCtx(ctx, reqs)
			if err != nil {
				return 0, err
			}
			return rep.Throughput, nil
		})
	if err != nil {
		return [2]float64{}, err
	}
	return [2]float64{tputs[0], tputs[1]}, nil
}

// Fig17Scalability reproduces both panels: throughput vs system capacity
// at 64K mean context, and throughput vs context length (4K - 1M) at
// 512 GiB, for CENT and NeuPIMs, baseline vs PIMphony.
func Fig17Scalability() (*Result, error) {
	m := model.LLM7B128KGQA()
	capTable := tablefmt.New("Fig. 17a — throughput vs capacity (LLM-7B-128K-GQA, 64K±3σ)",
		"system", "capacity-GiB", "modules", "baseline", "pimphony", "speedup")
	gibGrid := []int{128, 256, 512, 1024}
	ctxGrid := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	if Short() {
		gibGrid = []int{128}
		ctxGrid = []int{4 << 10, 16 << 10}
	}
	ctxTable := tablefmt.New("Fig. 17b — throughput vs context length at 512 GiB (LLM-7B-128K-GQA, ±3σ)",
		"system", "context", "baseline", "pimphony", "speedup")
	// Both panels fan out through ONE sweep so the expensive long-context
	// points pack against the cheap capacity points on the worker pool;
	// the first len(capacity grid) results route to Fig. 17a, the rest to
	// Fig. 17b (result order is input order).
	type f17Point struct {
		p     fig17Preset
		isCap bool
		gib   int // capacity panel
		ctx   int // context panel
	}
	var pts []f17Point
	for _, p := range fig17Presets() {
		for _, gib := range gibGrid {
			pts = append(pts, f17Point{p: p, isCap: true, gib: gib})
		}
	}
	capPoints := len(pts)
	for _, p := range fig17Presets() {
		for _, ctx := range ctxGrid {
			pts = append(pts, f17Point{p: p, ctx: ctx})
		}
	}
	rows, err := sweep.Run(context.Background(), pts,
		func(ctx context.Context, pt f17Point) ([]any, error) {
			if pt.isCap {
				reqs := workload.ThreeSigma(64<<10, 9).Batch(pool(64))
				tput, err := fig17Pair(ctx, m, pt.p, pt.p.modsForGB(pt.gib), 3*64<<10/2, reqs)
				if err != nil {
					return nil, err
				}
				return []any{pt.p.name, pt.gib, pt.p.modsForGB(pt.gib), tput[0], tput[1], tput[1] / tput[0]}, nil
			}
			reqs := workload.ThreeSigma(pt.ctx, 13).Batch(pool(64))
			tput, err := fig17Pair(ctx, m, pt.p, pt.p.modsForGB(512), 3*pt.ctx/2, reqs)
			if err != nil {
				return nil, err
			}
			return []any{pt.p.name, pt.ctx, tput[0], tput[1], tput[1] / tput[0]}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(capTable, rows[:capPoints])
	addRows(ctxTable, rows[capPoints:])
	return &Result{ID: "fig17", Title: "Scalability with capacity and context length",
		Tables: []*tablefmt.Table{capTable, ctxTable},
		Notes:  []string{"paper: 46.6x over CENT and 5.0x over NeuPIMs at 1M context; 2.1x even at short contexts"}}, nil
}

// Fig20GPUCompare reproduces the GPU comparison: A100s with
// flash-decoding + paged-attention vs memory-matched PIMphony systems.
func Fig20GPUCompare() (*Result, error) {
	cases := []modelTrace{
		{model.LLM7B32K(), workload.QMSum()},
		{model.LLM72B32K(), workload.QMSum()},
		{model.LLM7B128KGQA(), workload.MultiFieldQA()},
		{model.LLM72B128KGQA(), workload.MultiFieldQA()},
	}
	if Short() {
		cases = []modelTrace{
			{model.LLM7B32K(), workload.QMSum()},
			{model.LLM7B128KGQA(), workload.MultiFieldQA()},
		}
	}
	t := tablefmt.New("Fig. 20 — GPU (A100+FD+PA) vs PIMphony (tokens/s, memory-matched)",
		"model", "trace", "gpu", "cent+pimphony", "neupims+pimphony", "best-vs-gpu")
	rows, err := sweep.Run(context.Background(), cases,
		func(ctx context.Context, c modelTrace) ([]any, error) {
			reqs := requestPool(c.tr, pool(48))
			gpuSys, err := core.NewSystem(core.GPU(c.m))
			if err != nil {
				return nil, err
			}
			gpuRep, err := gpuSys.ServeCtx(ctx, reqs)
			if err != nil {
				return nil, err
			}
			var pims [2]float64
			for i, mk := range []func(model.Config, core.Technique) core.Config{core.CENT, core.NeuPIMs} {
				sys, err := core.NewSystem(mk(c.m, core.PIMphony()))
				if err != nil {
					return nil, err
				}
				rep, err := sys.ServeCtx(ctx, reqs)
				if err != nil {
					return nil, err
				}
				pims[i] = rep.Throughput
			}
			best := pims[0]
			if pims[1] > best {
				best = pims[1]
			}
			return []any{c.m.Name, c.tr.Name, gpuRep.Throughput, pims[0], pims[1], best / gpuRep.Throughput}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return &Result{ID: "fig20", Title: "Throughput comparison with GPU systems", Tables: []*tablefmt.Table{t},
		Notes: []string{"paper: largest gains on non-GQA models; the GPU's FC advantage narrows the 72B gap"}}, nil
}

// SystemsCompare prices every registered system backend — PIM-only
// (CENT), xPU+PIM (NeuPIMs), the A100 GPU baseline, and the DIMM-PIM
// (L3/LoL-PIM-style) organisation — on the shared (model, trace) grid,
// with full PIMphony techniques wherever PIM attention applies. The
// column set is derived from the backend registry, so a newly
// registered backend appears here without touching the driver.
func SystemsCompare() (*Result, error) {
	presets := core.Presets()
	headers := []string{"model", "trace"}
	for _, p := range presets {
		headers = append(headers, p.Backend)
	}
	headers = append(headers, "best-vs-gpu")
	t := tablefmt.New("Systems — decode throughput (tokens/s) across registered backends (PIMphony techniques where applicable)",
		headers...)
	rows, err := sweep.Run(context.Background(), modelTraceGrid(sweepModels()),
		func(ctx context.Context, p modelTrace) ([]any, error) {
			reqs := requestPool(p.tr, pool(48))
			tputs, err := sweep.Run(ctx, presets, func(ctx context.Context, pr core.Preset) (float64, error) {
				sys, err := core.NewSystem(pr.Make(p.m, core.PIMphony()))
				if err != nil {
					return 0, err
				}
				rep, err := sys.ServeCtx(ctx, reqs)
				if err != nil {
					return 0, err
				}
				return rep.Throughput, nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.m.Name, p.tr.Name, err)
			}
			row := []any{p.m.Name, p.tr.Name}
			var gpuTput, best float64
			for i, pr := range presets {
				row = append(row, tputs[i])
				if pr.Backend == cluster.GPUSystem {
					gpuTput = tputs[i]
				} else if tputs[i] > best {
					best = tputs[i]
				}
			}
			row = append(row, best/gpuTput)
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return &Result{ID: "systems", Title: "Cross-backend system comparison", Tables: []*tablefmt.Table{t},
		Notes: []string{
			"columns follow the backend registry; dimm-pim trades internal bandwidth per GiB for an all-KV DIMM pool (weights on the host GPU)",
			"gpu throughput can exceed the PIM systems on short-context non-GQA mixes where FC dominates; the PIM backends win as attention bytes take over",
		}}, nil
}

// AblationPrefill quantifies the prompt-processing (prefill) phase the
// decode-centric evaluation holds fixed: PIM-only systems prefill on their
// weak dense engine, which is why heterogeneous designs (NeuPIMs, Hybe)
// offload prefill to an xPU — the trade-off the paper's related work
// discusses.
func AblationPrefill() (*Result, error) {
	m := model.LLM7B32K()
	t := tablefmt.New("Ablation — prefill time per request (seconds, LLM-7B)",
		"context", "cent(pnm)", "neupims(npu)", "a100x2")
	mk := func(cfg core.Config) (*cluster.System, error) {
		return cluster.New(cfg)
	}
	centSys, err := mk(core.CENT(m, core.PIMphony()))
	if err != nil {
		return nil, err
	}
	neuSys, err := mk(core.NeuPIMs(m, core.PIMphony()))
	if err != nil {
		return nil, err
	}
	gpuSys, err := mk(core.GPU(m))
	if err != nil {
		return nil, err
	}
	rows, err := sweep.Run(context.Background(), []int{4 << 10, 16 << 10, 32 << 10, 128 << 10},
		func(_ context.Context, ctx int) ([]any, error) {
			return []any{ctx, centSys.PrefillSeconds(ctx), neuSys.PrefillSeconds(ctx), gpuSys.PrefillSeconds(ctx)}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return &Result{ID: "abl-prefill", Title: "Prefill-phase cost across systems", Tables: []*tablefmt.Table{t},
		Notes: []string{"decode throughput (Fig. 13/14) excludes prefill; this shows why xPU+PIM splits the phases"}}, nil
}
