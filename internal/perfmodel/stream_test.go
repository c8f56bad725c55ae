package perfmodel

import (
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/sched"
	"pimphony/internal/timing"
)

// reference prices q the way perfmodel did before its controllers
// streamed: build the whole stack, schedule it with the controller's
// Schedule and tally the stack itself. It builds into stack, reusing its
// command buffer.
func reference(dev timing.Device, q Query, stack *pim.Stack) (Latency, error) {
	buf := kernels.OBufBuffers(dev)
	if q.Baseline {
		buf = kernels.BaselineBuffers(dev)
	}
	kc := kernels.NewConfig(dev, buf)
	stack.Cmds, stack.GBufEntries, stack.OutEntries = stack.Cmds[:0], buf.GBufEntries, buf.OutEntries
	var err error
	switch q.Kernel {
	case QKT:
		err = kc.EmitQKT(stack, q.Tokens, q.Dh, q.Queries, q.RowReuse)
	case SV:
		err = kc.EmitSV(stack, q.Tokens, q.Dh, q.Queries, q.RowReuse)
	default:
		err = kc.EmitGEMV(stack, q.Tokens, q.Dh)
	}
	if err != nil {
		return Latency{}, err
	}
	scheduler := map[Sched]sched.Scheduler{
		Static:     &sched.Static{Dev: dev},
		PingPong:   &sched.PingPong{Dev: dev},
		DCS:        &sched.DCS{Dev: dev},
		DCSNoIsMAC: &sched.DCS{Dev: dev, DisableIsMAC: true},
	}[q.Sched]
	res, err := scheduler.Schedule(stack)
	if err != nil {
		return Latency{}, err
	}
	st := kernels.StackStats(stack)
	return Latency{
		Cycles:    res.Total,
		Breakdown: res.Breakdown,
		MACUtil:   res.MACUtilization(),
		MACs:      int64(st.Mac),
		IOBytes:   int64(st.WrInp+st.RdOut) * int64(dev.TileBytes),
		ActPre:    int64(st.Act),
	}, nil
}

// oracleShapes are the attention shapes the stream oracle covers under
// controller sc: QK^T and SV, both buffer geometries, row reuse on and
// off, one and several queries, and a head dimension that is not a
// multiple of the 16 elements of a tile.
func oracleShapes(sc Sched) []Query {
	var qs []Query
	for _, k := range []Kernel{QKT, SV} {
		for _, baseline := range []bool{true, false} {
			for _, reuse := range []bool{false, true} {
				for _, queries := range []int{1, 3, 8} {
					for _, dh := range []int{128, 100} {
						qs = append(qs, Query{Kernel: k, Dh: dh, Queries: queries, RowReuse: reuse, Baseline: baseline, Sched: sc})
					}
				}
			}
		}
	}
	return qs
}

// streamOracleTokens lists the token counts the oracle prices: every
// count in a dense low range, a strided sweep past 4K, where the longest
// periods (the 64-chunk GBuf ring of a one-query SV pass) first leave
// room to skip, and spot checks up to the 65,536-token simulation cap.
func streamOracleTokens(short bool) []int {
	dense, stride, top, spots := 512, 31, 6000, []int{8191, 16411, 65536}
	if short {
		dense, stride, top, spots = 96, 397, 4500, []int{8191}
	}
	var toks []int
	for n := 1; n <= dense; n++ {
		toks = append(toks, n)
	}
	for n := dense + stride; n <= top; n += stride {
		toks = append(toks, n)
	}
	return append(toks, spots...)
}

// TestStreamMatchesReference is the stream oracle: for every controller,
// shape and token count, the streamed price, the static period skip
// included, must equal Schedule of the materialized stack, Latency field
// for field. The two-queue streams skip no periods, so they take the
// short token set. It prices on AiM16 throughout and, at every seventh
// count, on the DDR5 DIMM device, whose 32 banks and 32-tile rows change
// every period.
func TestStreamMatchesReference(t *testing.T) {
	devs := []timing.Device{timing.AiM16(), timing.DDR5DIMM()}
	for _, sc := range []Sched{Static, DCS, DCSNoIsMAC, PingPong} {
		t.Run(sc.String(), func(t *testing.T) {
			stack := new(pim.Stack)
			for i, n := range streamOracleTokens(testing.Short() || sc != Static) {
				for _, shape := range oracleShapes(sc) {
					q := shape
					q.Tokens = n
					for _, dev := range devs[:1+boolIndex(i%7 == 0)] {
						want, err := reference(dev, q, stack)
						if err != nil {
							t.Fatalf("%+v: %v", q, err)
						}
						got, err := New(dev).simulate(q)
						if err != nil {
							t.Fatalf("%+v: %v", q, err)
						}
						if got != want {
							t.Fatalf("%+v on %d banks: streamed %+v, materialized %+v", q, dev.Banks, got, want)
						}
					}
				}
			}
		})
	}
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestStreamAllocsFlat: every cold shape, static or DCS, allocates as
// many objects at 64K tokens (a GEMV's input elements) as at 4K. The
// streams store no command and the static skip keeps one anchor state,
// so only the builders' slot tables grow, in bytes.
func TestStreamAllocsFlat(t *testing.T) {
	for _, shape := range coldShapes {
		q := shape.q
		allocs := func(tokens int) float64 {
			q.Tokens = tokens
			return testing.AllocsPerRun(3, func() {
				if _, err := New(timing.AiM16()).Price(q); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(4096), allocs(65536); small != large {
			t.Errorf("%s: %.0f allocations at 4K tokens, %.0f at 64K", shape.name, small, large)
		}
	}
}
