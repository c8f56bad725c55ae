package experiments

import (
	"context"
	"fmt"

	"pimphony/internal/compiler"
	"pimphony/internal/memory"
	"pimphony/internal/model"
	"pimphony/internal/sweep"
	"pimphony/internal/tablefmt"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// Table1Models prints the Table I model specifications with derived
// footprints.
func Table1Models() (*Result, error) {
	t := tablefmt.New("Table I — LLM specifications",
		"model", "nl", "nh", "dh", "din", "dffn", "gqa", "cw", "weights-GiB", "kv-KiB/token")
	for _, m := range model.All() {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		t.AddRow(m.Name, m.Layers, m.Heads, m.HeadDim, m.DIn, m.DFFN,
			m.GQAGroup, m.ContextWindow, float64(m.WeightBytes())/(1<<30), float64(m.KVBytesPerToken())/(1<<10))
	}
	return &Result{ID: "tab1", Title: "Model configurations", Tables: []*tablefmt.Table{t}}, nil
}

// Table2Workloads checks the synthetic trace generators against the
// Table II statistics. Sampling the traces is independent work, so the
// per-trace points fan out through the sweep engine.
func Table2Workloads() (*Result, error) {
	t := tablefmt.New("Table II — context-length statistics (paper vs sampled, n=4000)",
		"trace", "suite", "mean(paper)", "mean(sim)", "std(paper)", "std(sim)", "min", "max")
	rows, err := sweep.Run(context.Background(), workload.All(),
		func(_ context.Context, tr workload.Trace) ([]any, error) {
			g := workload.NewGenerator(tr, 42)
			st := workload.Summarize(g.Batch(4000))
			return []any{tr.Name, tr.Suite, tr.Mean, st.Mean, tr.Std, st.Std, st.Min, st.Max}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return &Result{ID: "tab2", Title: "Workload statistics", Tables: []*tablefmt.Table{t}}, nil
}

// Table4Configs prints the evaluated module configurations.
func Table4Configs() (*Result, error) {
	t := tablefmt.New("Table IV — PIMphony module configurations",
		"system", "channels", "module-GiB", "internal-GB/s", "compute")
	cent := timing.AiM16().WithChannels(32).WithCapacity(16 << 30)
	neu := timing.AiM16().WithChannels(32).WithCapacity(32 << 30)
	t.AddRow("CENT", cent.Channels, cent.ModuleBytes()>>30, cent.InternalBandwidth(), "PNM (FC on PIM banks)")
	t.AddRow("NeuPIMs", neu.Channels, neu.ModuleBytes()>>30, neu.InternalBandwidth(), "8 matrix units, 256 TFLOPS")
	return &Result{ID: "tab4", Title: "Module configurations", Tables: []*tablefmt.Table{t}}, nil
}

// Fig2Motivation reproduces the motivation study: compute intensity vs
// context length and memory footprint vs (context, batch).
func Fig2Motivation() (*Result, error) {
	m := model.LLM7B128KGQA()
	a := tablefmt.New("Fig. 2a — compute intensity vs context (LLM-7B GQA, batch 16)",
		"context", "flops/byte")
	for _, ctx := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		a.AddRow(ctx, m.ComputeIntensity(16, ctx))
	}
	b := tablefmt.New("Fig. 2b — memory footprint GiB vs (context, batch); A100 = 80 GiB",
		"context", "batch-1", "batch-8", "batch-32", "batch-8-fits-A100")
	for _, ctx := range []int{4 << 10, 32 << 10, 128 << 10, 1 << 20} {
		f1 := float64(m.MemoryFootprint(1, ctx)) / (1 << 30)
		f8 := float64(m.MemoryFootprint(8, ctx)) / (1 << 30)
		f32 := float64(m.MemoryFootprint(32, ctx)) / (1 << 30)
		b.AddRow(ctx, f1, f8, f32, f8 <= 80)
	}
	return &Result{ID: "fig2", Title: "Long-context decoding characteristics", Tables: []*tablefmt.Table{a, b}}, nil
}

// Fig10InstrFootprint reproduces the instruction-footprint comparison:
// statically unrolled programs grow linearly with context; DPA stays
// constant.
func Fig10InstrFootprint() (*Result, error) {
	tgt := compiler.Target{Dev: timing.AiM16().WithChannels(32), TCP: true}
	c, err := compiler.Compile(model.LLM7B128KGQA(), tgt)
	if err != nil {
		return nil, err
	}
	t := tablefmt.New("Fig. 10c — per-layer attention instruction footprint (bytes)",
		"context", "static-unrolled", "dpa", "ratio")
	dpa := c.DPAFootprint()
	rows, err := sweep.Run(context.Background(), []int{32 << 10, 128 << 10, 512 << 10, 1 << 20},
		func(_ context.Context, ctx int) ([]any, error) {
			st, err := c.StaticFootprint(ctx)
			if err != nil {
				return nil, err
			}
			return []any{ctx, st, dpa, float64(st) / float64(dpa)}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return &Result{ID: "fig10", Title: "DPA instruction-footprint scalability", Tables: []*tablefmt.Table{t},
		Notes: []string{"paper: static instruction streams bloat the command buffer at long context; DPA is ~constant"}}, nil
}

// Fig19Capacity reproduces the capacity-utilization study: static T_max
// reservations vs DPA lazy chunks, per workload, filling a 128 GiB pool.
func Fig19Capacity() (*Result, error) {
	t := tablefmt.New("Fig. 19 — KV capacity utilization at admission saturation (128 GiB pool)",
		"trace", "model", "static-util%", "dpa-util%", "static-batch", "dpa-batch")
	type capCase struct {
		tr workload.Trace
		m  model.Config
	}
	cases := []capCase{
		{workload.QMSum(), model.LLM7B32K()},
		{workload.Musique(), model.LLM7B32K()},
		{workload.MultiFieldQA(), model.LLM7B128KGQA()},
		{workload.LoogleSD(), model.LLM7B128KGQA()},
	}
	rows, err := sweep.Run(context.Background(), cases,
		func(_ context.Context, c capCase) ([]any, error) {
			pool := int64(128<<30) - c.m.WeightBytes()
			bpt := c.m.KVBytesPerToken()
			st, err := memory.NewStatic(pool, bpt, c.m.ContextWindow)
			if err != nil {
				return nil, err
			}
			dpa, err := memory.NewDPA(pool, bpt, memory.DefaultChunkBytes)
			if err != nil {
				return nil, err
			}
			reqs := workload.NewGenerator(c.tr, 21).Batch(512)
			fill := func(a *memory.Pool) int {
				n := 0
				for _, r := range reqs {
					if !a.CanAdmit(r.Context) {
						break
					}
					if a.Admit(r.ID, r.Context) != nil {
						break
					}
					n++
				}
				return n
			}
			sb := fill(st)
			db := fill(dpa)
			return []any{c.tr.Name, c.m.Name, 100 * st.Utilization(), 100 * dpa.Utilization(), sb, db}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return &Result{ID: "fig19", Title: "Capacity utilization with and without DPA", Tables: []*tablefmt.Table{t},
		Notes: []string{"paper: static 31.0-40.5%; DPA average 75.6%"}}, nil
}

// AblationChunkSize sweeps the DPA allocation granularity.
func AblationChunkSize() (*Result, error) {
	m := model.LLM7B128KGQA()
	tr := workload.MultiFieldQA()
	poolBytes := int64(128<<30) - m.WeightBytes()
	t := tablefmt.New("Ablation — DPA chunk size (multifieldqa, 128 GiB pool)",
		"chunk", "pool-util%", "batch", "va2pa-entries/request")
	rows, err := sweep.Run(context.Background(), []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20},
		func(_ context.Context, chunk int64) ([]any, error) {
			a, err := memory.NewDPA(poolBytes, m.KVBytesPerToken(), chunk)
			if err != nil {
				return nil, err
			}
			reqs := workload.NewGenerator(tr, 5).Batch(512)
			n := 0
			var entries int
			for _, r := range reqs {
				if !a.CanAdmit(r.Context) {
					break
				}
				if a.Admit(r.ID, r.Context) != nil {
					break
				}
				entries += a.MappedChunks(r.ID)
				n++
			}
			if n == 0 {
				return nil, fmt.Errorf("chunk %d admitted nothing", chunk)
			}
			return []any{byteSize(chunk), 100 * a.Utilization(), n, entries / n}, nil
		})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	return &Result{ID: "abl-chunk", Title: "DPA chunk-size ablation", Tables: []*tablefmt.Table{t},
		Notes: []string{"the paper's 1 MB chunk balances fragmentation against VA2PA table pressure"}}, nil
}

func byteSize(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMiB", b>>20)
	default:
		return fmt.Sprintf("%dKiB", b>>10)
	}
}
