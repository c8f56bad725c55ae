package perfmodel

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pimphony/internal/timing"
)

func TestQuantizeBounds(t *testing.T) {
	f := func(raw uint32) bool {
		n := int(raw%2_000_000) + 1
		q := quantize(n)
		if q < n {
			return false // never rounds down
		}
		return float64(q-n)/float64(n) <= 1.0/16 // bounded relative error
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Small values are exact.
	for n := 1; n <= 64; n++ {
		if quantize(n) != n {
			t.Fatalf("quantize(%d) = %d, want exact", n, quantize(n))
		}
	}
}

func TestCacheHitsAcrossNearbyTokens(t *testing.T) {
	s := New(timing.AiM16())
	base := Query{Kernel: QKT, Tokens: 100000, Dh: 128, Queries: 1, Sched: DCS}
	if _, err := s.Price(base); err != nil {
		t.Fatal(err)
	}
	misses := s.CacheMisses()
	// 100 consecutive decode steps should not trigger new simulations more
	// than a couple of times (bucket boundaries).
	for i := 1; i <= 100; i++ {
		q := base
		q.Tokens += i
		if _, err := s.Price(q); err != nil {
			t.Fatal(err)
		}
	}
	if extra := s.CacheMisses() - misses; extra > 2 {
		t.Errorf("100 decode steps caused %d cold simulations, want <= 2", extra)
	}
}

func TestScalingIsApproximatelyLinear(t *testing.T) {
	s := New(timing.AiM16())
	l1, err := s.Price(Query{Kernel: SV, Tokens: 4096, Dh: 128, Queries: 1, Sched: DCS})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.Price(Query{Kernel: SV, Tokens: 8192, Dh: 128, Queries: 1, Sched: DCS})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(l2.Cycles) / float64(l1.Cycles)
	if math.Abs(ratio-2) > 0.2 {
		t.Errorf("doubling tokens changed latency by %.2fx, want ~2x", ratio)
	}
}

func TestSchedulerOrderingHolds(t *testing.T) {
	s := New(timing.AiM16())
	q := Query{Kernel: QKT, Tokens: 8192, Dh: 128, Queries: 4, RowReuse: true}
	var totals [3]timing.Cycles
	for i, sc := range []Sched{Static, PingPong, DCS} {
		q.Sched = sc
		l, err := s.Price(q)
		if err != nil {
			t.Fatal(err)
		}
		totals[i] = l.Cycles
	}
	if !(totals[2] <= totals[1] && totals[1] <= totals[0]) {
		t.Errorf("want dcs <= pingpong <= static, got %v", totals)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	s := New(timing.AiM16())
	l, err := s.Price(Query{Kernel: QKT, Tokens: 5000, Dh: 128, Queries: 2, Sched: DCS})
	if err != nil {
		t.Fatal(err)
	}
	// After scaling, the breakdown must still sum to within rounding of the
	// total (each component is rounded independently).
	b := l.Breakdown
	diff := int64(b.MAC + b.ActPre + b.Refresh + b.DTGBuf + b.DTOutReg + b.Penalty - l.Cycles)
	if diff < -8 || diff > 8 {
		t.Errorf("scaled breakdown off by %d cycles", diff)
	}
	if l.MACs <= 0 || l.IOBytes <= 0 {
		t.Error("counts must be positive")
	}
}

func TestAttentionLatencyCombines(t *testing.T) {
	s := New(timing.AiM16())
	att, err := s.AttentionLatency(4096, 128, 1, false, false, DCS)
	if err != nil {
		t.Fatal(err)
	}
	qkt, _ := s.Price(Query{Kernel: QKT, Tokens: 4096, Dh: 128, Queries: 1, Sched: DCS})
	sv, _ := s.Price(Query{Kernel: SV, Tokens: 4096, Dh: 128, Queries: 1, Sched: DCS})
	if att.Cycles != qkt.Cycles+sv.Cycles {
		t.Errorf("attention = %d, want %d + %d", att.Cycles, qkt.Cycles, sv.Cycles)
	}
	if att.MACUtil <= 0 || att.MACUtil > 1 {
		t.Errorf("combined MAC util %f out of range", att.MACUtil)
	}
}

func TestInvalidQueries(t *testing.T) {
	s := New(timing.AiM16())
	if _, err := s.Price(Query{Kernel: QKT, Tokens: 0, Dh: 128}); err == nil {
		t.Error("zero tokens should fail")
	}
	if _, err := s.Price(Query{Kernel: Kernel(99), Tokens: 16, Dh: 16}); err == nil {
		t.Error("unknown kernel should fail")
	}
	if _, err := s.Price(Query{Kernel: QKT, Tokens: 16, Dh: 16, Sched: Sched(99)}); err == nil {
		t.Error("unknown scheduler should fail")
	}
}

// TestZeroOBufIsAnError: a device whose OBuf cannot hold one accumulator
// fails validation, and pricing against it anyway returns an error for
// every OBuf kernel instead of panicking.
func TestZeroOBufIsAnError(t *testing.T) {
	d := timing.AiM16()
	d.OBufBytes = 0
	if err := d.Validate(); err == nil {
		t.Fatal("Validate accepted a zero-byte OBuf")
	}
	s := New(d)
	for _, k := range []Kernel{QKT, SV, GEMV} {
		if _, err := s.Price(Query{Kernel: k, Tokens: 1024, Dh: 128, Queries: 1, Sched: DCS}); err == nil {
			t.Errorf("%s priced against a zero-entry OBuf", k)
		}
	}
	if s.CacheMisses() != 0 {
		t.Errorf("failed prices were cached: %d misses", s.CacheMisses())
	}
}

func TestGEMVPath(t *testing.T) {
	s := New(timing.AiM16())
	l, err := s.Price(Query{Kernel: GEMV, Tokens: 4096, Dh: 4096, Sched: Static})
	if err != nil {
		t.Fatal(err)
	}
	if l.Cycles <= 0 {
		t.Fatal("GEMV latency must be positive")
	}
	// GEMV queries are not quantized: same query = exact cache hit.
	m := s.CacheMisses()
	if _, err := s.Price(Query{Kernel: GEMV, Tokens: 4096, Dh: 4096, Sched: Static}); err != nil {
		t.Fatal(err)
	}
	if s.CacheMisses() != m {
		t.Error("identical GEMV query should hit the cache")
	}
}

func TestKindStrings(t *testing.T) {
	if QKT.String() != "qkt" || SV.String() != "sv" || GEMV.String() != "gemv" {
		t.Error("kernel names changed")
	}
	if Static.String() != "static" || DCS.String() != "dcs" {
		t.Error("sched names changed")
	}
}

// TestBucketMatchesPriceQuantization: every count a quantization bucket
// covers is priced from one cached simulation, and the count one past
// the bucket starts a new one.
func TestBucketMatchesPriceQuantization(t *testing.T) {
	s := New(timing.AiM16())
	price := func(tok int) {
		t.Helper()
		if _, err := s.Price(Query{Kernel: QKT, Tokens: tok, Dh: 128, Queries: 1, Sched: DCS}); err != nil {
			t.Fatal(err)
		}
	}
	for _, start := range []int{65, 100, 1000, 4096} {
		end := quantize(start)
		if end < start {
			t.Fatalf("quantize(%d) = %d below the count itself", start, end)
		}
		price(start)
		misses := s.CacheMisses()
		for tok := start; tok <= end; tok++ {
			price(tok)
		}
		if s.CacheMisses() != misses {
			t.Errorf("pricing within bucket [%d, %d] caused %d cold simulations",
				start, end, s.CacheMisses()-misses)
		}
		price(end + 1)
		if s.CacheMisses() != misses+1 {
			t.Errorf("pricing %d, one past the bucket of %d, caused %d cold simulations, want 1",
				end+1, start, s.CacheMisses()-misses)
		}
	}
	// Small counts are their own buckets (quantization is exact there).
	for n := 1; n <= 64; n++ {
		if q := quantize(n); q != n {
			t.Fatalf("quantize(%d) = %d, want exact", n, q)
		}
	}
}

func TestCacheLookupsCounted(t *testing.T) {
	s := New(timing.AiM16())
	if s.CacheLookups() != 0 {
		t.Fatal("fresh service should have zero lookups")
	}
	q := Query{Kernel: SV, Tokens: 2048, Dh: 128, Queries: 1, Sched: DCS}
	for i := 0; i < 3; i++ {
		if _, err := s.Price(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CacheLookups(); got != 3 {
		t.Errorf("3 Price calls counted %d lookups", got)
	}
	if s.CacheMisses() != 1 {
		t.Errorf("repeat pricing missed %d times, want 1", s.CacheMisses())
	}
}

// TestConcurrentColdPricing: goroutines pricing overlapping cold shapes on
// one Service share its cache, and must get exactly the latencies of a
// sequential pass, with every shape simulated into the cache once.
func TestConcurrentColdPricing(t *testing.T) {
	var qs []Query
	for _, k := range []Kernel{QKT, SV, GEMV} {
		for _, sc := range []Sched{Static, PingPong, DCS, DCSNoIsMAC} {
			for _, baseline := range []bool{false, true} {
				for _, tokens := range []int{100, 1000, 3000} {
					qs = append(qs, Query{Kernel: k, Tokens: tokens, Dh: 128, Queries: 4, RowReuse: tokens == 1000, Baseline: baseline, Sched: sc})
				}
			}
		}
	}
	seq := New(timing.AiM16())
	want := make([]Latency, len(qs))
	for i, q := range qs {
		l, err := seq.Price(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = l
	}

	const workers = 4
	s := New(timing.AiM16())
	got := make([][]Latency, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]Latency, len(qs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts a quarter further along, so every shape is
			// priced cold by one worker while others price their own.
			for j := range qs {
				i := (j + w*len(qs)/workers) % len(qs)
				l, err := s.Price(qs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = l
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range qs {
			if got[w][i] != want[i] {
				t.Fatalf("worker %d %+v: got %+v, sequential %+v", w, qs[i], got[w][i], want[i])
			}
		}
	}
	if s.CacheMisses() != len(qs) {
		t.Errorf("%d distinct shapes cached %d times", len(qs), s.CacheMisses())
	}
}
