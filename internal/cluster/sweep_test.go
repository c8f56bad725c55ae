package cluster

import (
	"context"
	"testing"

	"pimphony/internal/model"
	"pimphony/internal/sweep"
	"pimphony/internal/workload"
)

// TestRunCtxCancellation checks a cancelled context aborts the decode
// loop instead of simulating the whole window.
func TestRunCtxCancellation(t *testing.T) {
	m := model.LLM7B32K()
	cfg := centConfig(m, PIMphony())
	cfg.DecodeWindow = 64
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunCtx(ctx, qmsumBatch(16)); err == nil {
		t.Fatal("cancelled context should abort the run")
	}
}

// TestPPParallelStagesMatchSequential pins the parallelized PP
// micro-batch path against an explicit sequential reduction: the same
// config swept at parallelism 1 and 8 must agree bit-for-bit.
func TestPPParallelStagesMatchSequential(t *testing.T) {
	m := model.LLM7B32K()
	cfg := centConfig(m, Baseline())
	cfg.TP, cfg.PP = 1, 8
	reqs := workload.NewGenerator(workload.QMSum(), 5).Batch(6)
	run := func(par int) *Report {
		prev := sweep.SetDefault(par)
		defer sweep.SetDefault(prev)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunCtx(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq, par := run(1), run(8)
	if seq.Throughput != par.Throughput {
		t.Errorf("PP throughput diverges: seq %.9f vs par %.9f", seq.Throughput, par.Throughput)
	}
	if seq.TotalSeconds != par.TotalSeconds {
		t.Errorf("PP total time diverges: seq %.9f vs par %.9f", seq.TotalSeconds, par.TotalSeconds)
	}
	if seq.AttnEnergy != par.AttnEnergy {
		t.Errorf("PP attention energy diverges: %+v vs %+v", seq.AttnEnergy, par.AttnEnergy)
	}
	if seq.PIMUtil != par.PIMUtil {
		t.Errorf("PP utilization diverges: %.9f vs %.9f", seq.PIMUtil, par.PIMUtil)
	}
}
