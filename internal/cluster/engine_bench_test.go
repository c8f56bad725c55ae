package cluster

import (
	"context"
	"math"
	"testing"

	"pimphony/internal/workload"
)

// benchSystem builds the one System a benchmark's engines price
// through, so refilling an engine keeps the stepper's memos warm.
func benchSystem(b *testing.B) *System {
	b.Helper()
	sys, err := New(engineConfig(b, PIMphony()))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchEngine builds a serving engine of sys with a long-running batch:
// 8 QMSum-sized requests whose generation lengths keep the batch busy
// for the whole measurement.
func benchEngine(b *testing.B, sys *System) *Engine {
	b.Helper()
	e, err := sys.NewEngine()
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range workload.NewGenerator(workload.QMSum(), 42).Batch(8) {
		r.Decode = 20000 + i
		if err := e.Enqueue(r); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkEngineStep measures a one-iteration engine call (a Leap
// bounded at its own start) — admission scan, memoized pricing, growth,
// retirement — the unit a multi-iteration leap amortizes away.
func BenchmarkEngineStep(b *testing.B) {
	sys := benchSystem(b)
	e := benchEngine(b, sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Idle() {
			b.StopTimer()
			e = benchEngine(b, sys)
			b.StartTimer()
		}
		if _, err := e.Leap(context.Background(), e.Clock(), e.Clock()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.Generated())/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkEngineLeap measures the fast-forward path: each op is one
// Leap call, which advances the batch through every iteration up to the
// next serving event.
func BenchmarkEngineLeap(b *testing.B) {
	sys := benchSystem(b)
	e := benchEngine(b, sys)
	tokens := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Idle() {
			b.StopTimer()
			tokens += e.Generated()
			e = benchEngine(b, sys)
			b.StartTimer()
		}
		if _, err := e.Leap(context.Background(), math.Inf(1), math.Inf(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tokens+e.Generated())/b.Elapsed().Seconds(), "tokens/s")
}
