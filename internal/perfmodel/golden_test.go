package perfmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"pimphony/internal/timing"
)

// goldenPricing is the SHA-256 of goldenGrid's priced latencies. Any change
// to a modelled cycle, breakdown component or work counter of any kernel,
// controller or buffer geometry moves it; a pure speed-up must not.
const goldenPricing = "ff773abd07e657047100e008784da5fc0c0d22a5fa1a26c503408141e96f6aee"

// goldenGrid prices {QKT, SV, GEMV} x every controller x baseline/OBuf x
// rowReuse x queries {1, 4, 8} x tokens {17, 4096, 65536} on a fresh
// service and hashes every returned Latency field in grid order.
func goldenGrid(t *testing.T) string {
	t.Helper()
	s := New(timing.AiM16())
	h := sha256.New()
	for _, k := range []Kernel{QKT, SV, GEMV} {
		for _, sc := range []Sched{Static, PingPong, DCS, DCSNoIsMAC} {
			for _, baseline := range []bool{true, false} {
				for _, reuse := range []bool{false, true} {
					for _, queries := range []int{1, 4, 8} {
						for _, tokens := range []int{17, 4096, 65536} {
							q := Query{Kernel: k, Tokens: tokens, Dh: 128, Queries: queries, RowReuse: reuse, Baseline: baseline, Sched: sc}
							l, err := s.Price(q)
							if err != nil {
								t.Fatalf("%+v: %v", q, err)
							}
							fmt.Fprintf(h, "%+v %d %+v %x %d %d %d\n", q, l.Cycles, l.Breakdown,
								math.Float64bits(l.MACUtil), l.MACs, l.IOBytes, l.ActPre)
						}
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPricing pins every cold price of the golden grid byte for byte.
func TestGoldenPricing(t *testing.T) {
	if got := goldenGrid(t); got != goldenPricing {
		t.Errorf("golden pricing hash = %s, want %s", got, goldenPricing)
	}
}
