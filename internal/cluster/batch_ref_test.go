package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pimphony/internal/backend"
	"pimphony/internal/model"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// refRun is the batch decode loop Run used before it became an engine
// drain, kept as the differential oracle. One admission pass forms a
// fixed batch: FCFS with the head-first channel budget, and for the GPU greedy skip-unfit packing with an upfront
// context+window reservation and a horizon not clamped to T_max. The
// window then grows every request one token ahead of its live count
// (the GPU's stays inside its reservation, so it calls no Grow); a
// request whose Grow fails freezes for the rest of the window, yet its
// tokens still count. froze reports whether any Grow failed.
func refRun(s *System, reqs []workload.Request) (rep *Report, froze bool, err error) {
	cfg := s.cfg
	alloc, err := s.newPool()
	if err != nil {
		return nil, false, err
	}
	upfront := s.be.Name() == GPUSystem
	horizon := func(r workload.Request) int {
		need := r.Context + cfg.DecodeWindow
		if !upfront && need > s.tmax() {
			need = s.tmax()
		}
		return need
	}
	var batch []workload.Request
	var headUsed int64
	for pending := reqs; len(pending) > 0; pending = pending[1:] {
		r := pending[0]
		need := horizon(r)
		fits := alloc.CanAdmit(need)
		var headNeed int64
		if fits && s.adm.HeadBudget > 0 {
			reserve := int64(s.tmax())
			if cfg.Tech.DPA {
				reserve = int64(need)
			}
			headNeed = reserve * int64(s.adm.KVHeadsPerModule)
			fits = headUsed+headNeed <= s.adm.HeadBudget
		}
		if !fits {
			if s.adm.PagedEff > 0 {
				continue
			}
			break
		}
		admitTokens := r.Context
		if upfront {
			admitTokens = need
		}
		if alloc.Admit(r.ID, admitTokens) != nil {
			break
		}
		headUsed += headNeed
		batch = append(batch, r)
	}
	if len(batch) == 0 {
		return nil, false, fmt.Errorf("cluster %s: no request fits (pool %d GiB, T_max %d)",
			cfg.Name, alloc.CapacityBytes()>>30, s.tmax())
	}
	capUtil := alloc.Utilization()
	if u := s.adm.PagedEff; u > 0 {
		capUtil = u
	}
	grown := make(map[int]int, len(batch))
	rep = &Report{Config: cfg.Name, Backend: s.be.Name(), Batch: len(batch), Steps: cfg.DecodeWindow, CapacityUtil: capUtil}
	var totalSec, attnShareAcc float64
	var busy, span timing.Cycles
	var channels, generated int
	toks := make([]int, len(batch))
	for step := 0; step < cfg.DecodeWindow; step++ {
		for i, r := range batch {
			toks[i] = r.Context + grown[r.ID]
		}
		var cost backend.StepCost
		s.stepper.Start(toks) // a one-iteration leap
		if err := s.stepper.Next(&cost); err != nil {
			return nil, froze, err
		}
		busy += cost.Stats.Busy
		span += cost.Stats.Cycles
		channels = cost.Stats.Channels
		totalSec += cost.Seconds
		attnShareAcc += cost.AttnShare
		generated += len(batch)
		for _, r := range batch {
			grown[r.ID]++
			if upfront {
				continue // growth stays inside the admission-time reservation
			}
			if alloc.Grow(r.ID, r.Context+grown[r.ID]+1) != nil {
				grown[r.ID]--
				froze = true
			}
		}
		rep.AttnEnergy.Add(cost.AttnEnergy)
		rep.FCEnergy.Add(cost.FCEnergy)
	}
	rep.TotalSeconds = totalSec
	rep.Throughput = float64(generated) / totalSec
	rep.AttnTimeShare = attnShareAcc / float64(cfg.DecodeWindow)
	rep.TBTSeconds = totalSec / float64(cfg.DecodeWindow)
	if span > 0 {
		rep.PIMUtil = float64(busy) / (float64(span) * float64(channels))
	}
	return rep, froze, nil
}

// TestRunMatchesReference holds the engine drain to the batch loop it
// replaced: over backends, technique sets, models, candidate pools,
// windows and KV budgets, every run in which the reference
// never froze a request must produce the same Report field for field,
// and a configuration one side rejects the other must reject with the
// same error.
func TestRunMatchesReference(t *testing.T) {
	dimm := func(m model.Config, tech Technique) Config {
		return Config{Name: "dimm", Backend: DIMMPIM, Dev: timing.DDR5DIMM(),
			Modules: 8, TP: 8, PP: 1, Model: m, Tech: tech}
	}
	gpu := func(m model.Config, _ Technique) Config {
		return Config{Name: "gpu", Backend: GPUSystem, Model: m, GPUs: 2}
	}
	systems := []func(model.Config, Technique) Config{centConfig, neuPIMsConfig, gpu, dimm}
	techs := []Technique{{}, {TCP: true}, {TCP: true, DCS: true}, PIMphony(), {DPA: true}}
	models := []model.Config{model.LLM7B32K(), model.LLM7B128KGQA()}
	pools := []struct {
		name string
		reqs []workload.Request
	}{
		{"QMSum-48", qmsumBatch(48)},
		{"uniform-14K", workload.Uniform(14000, 1).Batch(48)},
		{"uniform-1K", workload.Uniform(1000, 1).Batch(48)},
	}
	var matched, errored, froze int
	for _, mk := range systems {
		for _, tech := range techs {
			for _, m := range models {
				for _, pool := range pools {
					for _, window := range []int{1, 4, 9} {
						for _, budget := range []int64{0, 2048, 8192, 20000} {
							cfg := mk(m, tech)
							cfg.DecodeWindow = window
							cfg.KVBudgetBytes = budget << 20
							point := fmt.Sprintf("%s/%+v/%s/%s/w%d/kv%d",
								cfg.Backend, tech, m.Name, pool.name, window, budget)
							refSys, err := New(cfg)
							if err != nil {
								t.Fatalf("%s: %v", point, err)
							}
							want, frozen, werr := refRun(refSys, pool.reqs)
							sys, err := New(cfg)
							if err != nil {
								t.Fatalf("%s: %v", point, err)
							}
							got, gerr := sys.RunCtx(context.Background(), pool.reqs)
							switch {
							case werr != nil || gerr != nil:
								if fmt.Sprint(werr) != fmt.Sprint(gerr) {
									t.Errorf("%s: reference error %v, Run error %v", point, werr, gerr)
								}
								errored++
							case frozen:
								froze++
							case !reflect.DeepEqual(got, want):
								t.Errorf("%s: Run\n%+v\nreference\n%+v", point, got, want)
							default:
								matched++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs matched, %d errored on both sides, %d froze in the reference", matched, errored, froze)
	if matched == 0 {
		t.Fatal("no run matched: the grid compares nothing")
	}
}
