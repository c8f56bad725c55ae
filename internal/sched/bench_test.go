package sched

import (
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// benchStack builds a realistic attention stack (~38K commands) once.
func benchStack(tb testing.TB) *pim.Stack {
	tb.Helper()
	d := timing.AiM16()
	cfg := kernels.NewConfig(d, kernels.OBufBuffers(d))
	s, err := cfg.QKT(65536, 128, 1, false)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// maxScheduleAllocs bounds the allocations of one two-queue Schedule:
// the Result with its Issue and Reasons slices and the small per-entry
// D-Table trackers, independent of the command count. The D-Table and
// queues come from a pool (the race detector drops some pooled items on
// purpose, which the slack absorbs).
const maxScheduleAllocs = 16

// TestScheduleAllocsBounded guards the allocation-free D-Table: DCS and
// ping-pong scheduling of the ~38K-command stack must allocate a small
// constant number of objects, not one dependency list per command.
func TestScheduleAllocsBounded(t *testing.T) {
	stack := benchStack(t)
	d := timing.AiM16()
	for _, s := range []Scheduler{&DCS{Dev: d}, &PingPong{Dev: d}} {
		var err error
		allocs := testing.AllocsPerRun(10, func() {
			_, err = s.Schedule(stack)
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if allocs > maxScheduleAllocs {
			t.Errorf("%s: %.0f allocations per Schedule of %d commands, want <= %d",
				s.Name(), allocs, len(stack.Cmds), maxScheduleAllocs)
		}
	}
}

func benchScheduler(b *testing.B, s Scheduler) {
	stack := benchStack(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Schedule(stack)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Total
	}
	b.ReportMetric(float64(len(stack.Cmds)), "cmds/op")
}

// BenchmarkStaticScheduler measures the static controller's simulation
// throughput on a 64K-token QK^T stack.
func BenchmarkStaticScheduler(b *testing.B) { benchScheduler(b, &Static{Dev: timing.AiM16()}) }

// BenchmarkDCSScheduler measures the DCS engine (D-Table pass + dual-queue
// issue loop) on the same stack.
func BenchmarkDCSScheduler(b *testing.B) { benchScheduler(b, &DCS{Dev: timing.AiM16()}) }

// BenchmarkPingPongScheduler measures the region-granular engine.
func BenchmarkPingPongScheduler(b *testing.B) { benchScheduler(b, &PingPong{Dev: timing.AiM16()}) }
