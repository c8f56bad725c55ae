package perfmodel

import (
	"testing"

	"pimphony/internal/timing"
)

// coldShapes are batch-ladder-shaped queries: the attention kernels a
// decode step prices per channel, under the controllers and buffer
// geometries the Fig. 13/14 systems use, plus a fully-connected GEMV.
var coldShapes = []struct {
	name string
	q    Query
}{
	{"qkt-dcs", Query{Kernel: QKT, Tokens: 16384, Dh: 128, Queries: 1, Sched: DCS}},
	{"sv-static-baseline", Query{Kernel: SV, Tokens: 16384, Dh: 128, Queries: 1, Baseline: true, Sched: Static}},
	{"sv-static-baseline-gqa8-rowreuse", Query{Kernel: SV, Tokens: 16384, Dh: 128, Queries: 8, RowReuse: true, Baseline: true, Sched: Static}},
	{"qkt-static-baseline-gqa4", Query{Kernel: QKT, Tokens: 16384, Dh: 128, Queries: 4, Baseline: true, Sched: Static}},
	{"sv-gqa8-rowreuse-dcs", Query{Kernel: SV, Tokens: 16384, Dh: 128, Queries: 8, RowReuse: true, Sched: DCS}},
	{"gemv-dcs", Query{Kernel: GEMV, Tokens: 4096, Dh: 4096, Sched: DCS}},
}

// BenchmarkPriceCold measures uncached kernel pricing (the builder
// streams every command into the controller's fold) on a fresh service
// per iteration, with allocations reported: a cold price should allocate
// a few dozen objects, not one per command.
func BenchmarkPriceCold(b *testing.B) {
	for _, shape := range coldShapes {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New(timing.AiM16())
				if _, err := s.Price(shape.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPriceHot measures the memoized path the cluster simulator hits
// on every decode step.
func BenchmarkPriceHot(b *testing.B) {
	s := New(timing.AiM16())
	q := Query{Kernel: QKT, Tokens: 16384, Dh: 128, Queries: 1, Sched: DCS}
	if _, err := s.Price(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Tokens = 16384 + i%64 // decode-step token drift stays in-bucket
		if _, err := s.Price(q); err != nil {
			b.Fatal(err)
		}
	}
}
