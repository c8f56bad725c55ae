package serve

import (
	"context"
	"fmt"
	"testing"

	"pimphony/internal/cluster"
	"pimphony/internal/timing"
	"pimphony/internal/workload"
)

// The lookahead oracles. While the scheduler is coupled a replica leaps
// through its quiet iterations past the next-lagging replica's clock,
// which is exact only if an engine call that admits, completes and
// preempts nothing leaves the scheduler nothing to do. The audit below
// checks that claim call by call on the equivalence suites' fleets and
// on larger ones, and the call counter checks that the lookahead pays.

// fleetCase is one fleet run: a fresh configuration per run (placements
// and autoscalers keep state) and its arrival schedule.
type fleetCase struct {
	name string
	cfg  func() Config
	arr  []workload.Arrival
}

// equivTight is the equivalence suites' pim-tight system: a DPA pool
// that two 4,096-token requests exhaust mid-decode.
func equivTight() cluster.Config {
	cfg := testSystem()
	cfg.KVBudgetBytes = 4106 << 20
	return cfg
}

// tightBurst is the equivalence suites' burst of 4,096-token prompts
// decoding 16 tokens each, at 1,000 req/s.
func tightBurst(tb testing.TB, n int) []workload.Arrival {
	gen := workload.Uniform(4096, 5)
	gen.DecodeLen = 16
	arr, err := workload.PoissonArrivals(gen, 1000, 2, n, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return arr
}

// poissonBurst is the equivalence suites' Poisson schedule of QMSum
// prompts decoding 6 tokens each.
func poissonBurst(tb testing.TB, n int, rate float64, seed int64) []workload.Arrival {
	gen := workload.NewGenerator(workload.QMSum(), seed)
	gen.DecodeLen = 6
	arr, err := workload.PoissonArrivals(gen, rate, 4, n, seed+5)
	if err != nil {
		tb.Fatal(err)
	}
	return arr
}

// largeFleets are fleets in which the quiet bound takes its minimum
// over many busy replicas: six migrating and stealing decoders under
// crashes and under slowdowns, and an SLO-autoscaled fleet of eight.
func largeFleets(tb testing.TB) []fleetCase {
	decode6 := func(g FaultGroup) func() Config {
		return func() Config {
			return Config{
				Fleet:        []ReplicaSpec{{System: equivTight(), Count: 6, Role: RoleDecode}},
				Interconnect: timing.DefaultInterconnect(),
				Migrate:      true,
				Steal:        true,
				Faults:       &FaultPlan{Seed: 23, Groups: []FaultGroup{g}, MaxRetries: 3, BackoffSeconds: 0.002},
				SLO:          SLO{TTFT: 1, TBT: 0.2},
			}
		}
	}
	burst := tightBurst(tb, 36)
	return []fleetCase{
		{"decode6-crash", decode6(FaultGroup{Spec: 0, Mode: FaultCrash, MTBFSeconds: 0.5, MTTRSeconds: 0.01}), burst},
		{"decode6-slow", decode6(FaultGroup{Spec: 0, Mode: FaultSlowdown, MTBFSeconds: 0.03, MTTRSeconds: 0.03, Slowdown: 3}), burst},
		{"autoscaled8", func() Config {
			sc := NewSLOScaler()
			sc.CooldownSeconds = 0.2
			return Config{
				Fleet:      []ReplicaSpec{{System: testSystem(), Count: 8, Role: RoleUnified, Min: 1, WarmupSeconds: 0.05}},
				SLO:        SLO{TTFT: 0.3, TBT: 0.2},
				Autoscaler: sc,
			}
		}, poissonBurst(tb, 64, 160, 3)},
	}
}

// equivFleets are the fleets of the fleet, fault and autoscale
// equivalence suites (equiv_test.go, autoscale_test.go).
func equivFleets(tb testing.TB) []fleetCase {
	disagg := func(pl func() Placement, faults *FaultPlan) func() Config {
		return func() Config {
			var fp *FaultPlan
			if faults != nil {
				cp := *faults
				fp = &cp
			}
			return Config{
				Fleet: []ReplicaSpec{
					{System: testSystem(), Count: 1, Role: RolePrefill},
					{System: equivTight(), Count: 2, Role: RoleDecode},
				},
				Interconnect: timing.DefaultInterconnect(),
				Placement:    pl(),
				Migrate:      true,
				Steal:        true,
				Faults:       fp,
				SLO:          SLO{TTFT: 1, TBT: 0.2},
			}
		}
	}
	tight := tightBurst(tb, 10)
	cases := []fleetCase{
		{"fleet/kv-headroom", disagg(KVHeadroom, nil), tight},
		{"fleet/least-tokens-fit", disagg(LeastTokensFit, nil), tight},
		{"fleet/round-robin-fit", disagg(RoundRobinFit, nil), tight},
		{"faulted/disaggregated", disagg(KVHeadroom, &FaultPlan{
			Seed: 17,
			Groups: []FaultGroup{
				{Spec: 1, Mode: FaultCrash, MTBFSeconds: 0.05, MTTRSeconds: 0.01},
				{Spec: 1, Mode: FaultSlowdown, MTBFSeconds: 0.04, MTTRSeconds: 0.03, Slowdown: 3},
				{Spec: 1, Mode: FaultLink, MTBFSeconds: 0.06, MTTRSeconds: 0.02, LinkFactor: 4},
			},
			MaxRetries:     -1,
			BackoffSeconds: 0.002,
		}), tight},
		{"faulted/autoscaled", func() Config {
			return Config{
				Fleet:      []ReplicaSpec{{System: testSystem(), Count: 3, Role: RoleUnified, Min: 1, WarmupSeconds: 0.02}},
				Autoscaler: NewSLOScaler(),
				Faults: &FaultPlan{
					Seed:           5,
					Groups:         []FaultGroup{{Spec: -1, Mode: FaultCrash, MTBFSeconds: 0.05, MTTRSeconds: 0.02}},
					MaxRetries:     -1,
					BackoffSeconds: 0.005,
				},
				SLO: SLO{TTFT: 1, TBT: 0.2},
			}
		}, tight},
		{"autoscaled", func() Config {
			sc := NewSLOScaler()
			sc.CooldownSeconds = 1
			return Config{
				Fleet:      []ReplicaSpec{{System: testSystem(), Count: 3, Role: RoleUnified, Min: 1, WarmupSeconds: 0.5}},
				SLO:        SLO{TTFT: 1, TBT: 0.2},
				Autoscaler: sc,
			}
		}, poissonBurst(tb, 12, 30, 3)},
	}
	return append(cases, largeFleets(tb)...)
}

// countingScaler counts the scale decisions its policy makes.
type countingScaler struct {
	Autoscaler
	decisions *int
}

func (c countingScaler) Scale(v AutoscaleView) int {
	*c.decisions++
	return c.Autoscaler.Scale(v)
}

// noopAudit wraps the fleet scheduler and records every engine call
// after which onStep or react acted although the call admitted,
// completed and preempted nothing: pushed or re-armed an event, placed
// a held request, stole, migrated or made a scale decision. After every
// reaction it also records a busy replica whose quiet entry is missing
// or above its engine's QuietUntil: a bound that fell without a wake.
type noopAudit struct {
	*fleetSim
	quiet      bool // the call being reacted to admitted, completed and preempted nothing
	quietCalls int
	decisions  int
	acted      []string
	stale      []string
}

// auditState is what a reaction changes when it acts.
type auditState struct {
	seq, held, migrations, steals, decisions int
}

func (a *noopAudit) state() auditState {
	return auditState{a.seq, a.held.len(), a.stats.Migrations, a.stats.Steals, a.decisions}
}

func (a *noopAudit) check(hook string, before auditState, now float64) {
	if after := a.state(); a.quiet && after != before {
		a.acted = append(a.acted, fmt.Sprintf("%s acted after a quiet call at t=%g: %+v -> %+v", hook, now, before, after))
	}
}

func (a *noopAudit) onStep(replica int, res cluster.StepResult) error {
	a.quiet = len(res.Admitted)+len(res.Completed)+len(res.Preempted) == 0
	if a.quiet {
		a.quietCalls++
	}
	before := a.state()
	err := a.fleetSim.onStep(replica, res)
	a.check("onStep", before, a.engines[replica].Clock())
	return err
}

func (a *noopAudit) react(now float64) error {
	before := a.state()
	err := a.fleetSim.react(now)
	a.check("react", before, now)
	a.quiet = false // the next react may follow a dispatch
	for i, eng := range a.engines {
		if q := &a.quietAt[i]; !eng.Idle() && (q.index < 0 || q.at > eng.QuietUntil()) {
			a.stale = append(a.stale, fmt.Sprintf("t=%g: replica %d quiet entry at %g (queued %v), QuietUntil %g",
				now, i, q.at, q.index >= 0, eng.QuietUntil()))
		}
	}
	return err
}

// TestQuietCallsDoNotReact proves the no-op claim the lookahead rests
// on: at one iteration per call, after every engine call that admitted,
// completed and preempted nothing, onStep and react push no event, place
// no held request, and neither steal, migrate nor make a scale decision.
// It also checks that every busy replica's quiet entry is queued and at
// most its engine's QuietUntil after every reaction, so no change that
// lowers a bound goes without a wake.
func TestQuietCallsDoNotReact(t *testing.T) {
	for _, c := range equivFleets(t) {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.leapHorizon = 1
			fs, err := newFleetSim(cfg, len(c.arr))
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.start(c.arr); err != nil {
				t.Fatal(err)
			}
			audit := &noopAudit{fleetSim: fs}
			if fs.auto != nil {
				fs.auto = countingScaler{fs.auto, &audit.decisions}
			}
			fs.sched = audit
			if err := fs.run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if audit.quietCalls == 0 {
				t.Fatal("vacuous audit: no quiet engine call")
			}
			t.Logf("%d quiet calls; %d migrations, %d steals, %d scale decisions, %+v",
				audit.quietCalls, fs.stats.Migrations, fs.stats.Steals, audit.decisions, fs.fstats)
			for _, msgs := range [][]string{audit.acted, audit.stale} {
				for i, msg := range msgs {
					if i == 5 {
						t.Errorf("... %d more", len(msgs)-i)
						break
					}
					t.Error(msg)
				}
			}
		})
	}
}

// TestLookaheadHalvesEngineCalls runs a saturated decode-only fleet of
// six migrating and stealing decoders on 4 GiB DPA pools, fault-free and
// under crashes, where the scheduler stays coupled throughout: in
// lockstep nearly every engine call would stop at the next-lagging
// replica's clock, one iteration long. With lookahead the replicas must
// need fewer engine calls than half the iterations they price.
func TestLookaheadHalvesEngineCalls(t *testing.T) {
	gen, err := workload.HeavyTailed(256, 2048, 1.2, 61)
	if err != nil {
		t.Fatal(err)
	}
	gen.DecodeLen = 64
	arr, err := workload.ArrivalsByFlag("mmpp:4:5", gen, 30000, 4, 300, 62)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem()
	sys.KVBudgetBytes = 4 << 30
	for _, crash := range []bool{false, true} {
		name := "fault-free"
		var faults *FaultPlan
		if crash {
			name = "crashes"
			faults = &FaultPlan{Seed: 7, MaxRetries: 6, BackoffSeconds: 0.002,
				Groups: []FaultGroup{{Spec: 0, Mode: FaultCrash, MTBFSeconds: 1.5, MTTRSeconds: 0.01}}}
		}
		t.Run(name, func(t *testing.T) {
			fs, err := newFleetSim(Config{
				Fleet:        []ReplicaSpec{{System: sys, Count: 6, Role: RoleDecode}},
				Interconnect: timing.DefaultInterconnect(),
				Placement:    KVHeadroom(),
				Migrate:      true,
				Steal:        true,
				Faults:       faults,
				SLO:          SLO{TTFT: 1, TBT: 0.2},
			}, len(arr))
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.start(arr); err != nil {
				t.Fatal(err)
			}
			counter := &callCounter{fleetSim: fs}
			fs.sched = counter
			if err := fs.run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if fs.stats.Migrations == 0 || fs.stats.Steals == 0 || (crash && fs.fstats.Crashes == 0) {
				t.Fatalf("vacuous run: %d migrations, %d steals, faults %+v", fs.stats.Migrations, fs.stats.Steals, fs.fstats)
			}
			t.Logf("%d engine calls for %d iterations", counter.calls, counter.iterations)
			if 2*counter.calls >= counter.iterations {
				t.Errorf("%d engine calls for %d iterations, want fewer than half", counter.calls, counter.iterations)
			}
		})
	}
}
