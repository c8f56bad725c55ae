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

// maxScheduleAllocs is what one two-queue Schedule allocates, at any
// command count: the checker that validates the stack, the fold with its
// per-kind timings and its GBuf and output slot tables, and the Result
// with its Issue and Reasons slices.
const maxScheduleAllocs = 11

// TestScheduleAllocsBounded guards the program-order fold: DCS and
// ping-pong scheduling of the ~38K-command stack must allocate a small
// constant number of objects, not one per command or dependency.
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

// BenchmarkDCSScheduler measures the DCS fold (each command's D-Table
// edges bound in program order) on the same stack.
func BenchmarkDCSScheduler(b *testing.B) { benchScheduler(b, &DCS{Dev: timing.AiM16()}) }

// BenchmarkPingPongScheduler measures the region-granular fold.
func BenchmarkPingPongScheduler(b *testing.B) { benchScheduler(b, &PingPong{Dev: timing.AiM16()}) }
