package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// This file keeps the two-queue engine the program-order fold replaced:
// a D-Table of explicit dependency edges and an I/O and a compute queue
// that issue out of order across each other. TestQueuesMatchReference
// holds DCS and ping-pong to it.

// edge is a D-Table dependency: the command may not issue before the
// dependee's issue cycle plus wait.
type edge struct {
	id   int
	why  Reason
	wait timing.Cycles
}

// refQueues runs the dual-queue out-of-order engine: in order within the
// I/O and compute queues, out of order across them, each command waiting
// on the D-Table edges fill returns for it. Ties go to the I/O queue.
func refQueues(d *timing.Device, st *pim.Stack, name string, fill func(kt *kindTimes) [][]edge) (*Result, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	const inf = timing.Cycles(math.MaxInt64 / 4)
	f := newFold(name, d)
	dt := fill(f.kt)
	var ioQ, cQ []int
	for i, c := range st.Cmds {
		if c.Kind == pim.WRINP || c.Kind == pim.RDOUT {
			ioQ = append(ioQ, i)
		} else {
			cQ = append(cQ, i)
		}
	}
	n := len(st.Cmds)
	issue, reasons := make([]timing.Cycles, n), make([]Reason, n)
	for i := range issue {
		issue[i] = -1 // not issued yet
	}
	earliest := func(id int, free timing.Cycles) (timing.Cycles, Reason) {
		t, why := free, ReasonNone
		if free > 0 {
			why = ReasonBus
		}
		for _, e := range dt[id] {
			at := issue[e.id]
			if at < 0 {
				return inf, ReasonInOrder
			}
			if bound := at + e.wait; bound > t {
				t, why = bound, e.why
			}
		}
		return t, why
	}
	var ioFree, macFree timing.Cycles
	for ioHead, cHead := 0, 0; ioHead < len(ioQ) || cHead < len(cQ); {
		tIO, whyIO := inf, ReasonNone
		if ioHead < len(ioQ) {
			tIO, whyIO = earliest(ioQ[ioHead], ioFree)
		}
		tC, whyC := inf, ReasonNone
		if cHead < len(cQ) {
			tC, whyC = earliest(cQ[cHead], macFree)
		}
		if tIO == inf && tC == inf {
			return nil, fmt.Errorf("%s deadlocked with io head %d / compute head %d", name, ioHead, cHead)
		}
		if tIO <= tC {
			id := ioQ[ioHead]
			issue[id], reasons[id] = tIO, whyIO
			ioFree = tIO + f.kt.tccds
			ioHead++
		} else {
			id := cQ[cHead]
			issue[id], reasons[id] = tC, whyC
			macFree = tC + f.kt.tccds
			cHead++
		}
	}
	for i, c := range st.Cmds {
		f.add(c.Kind, issue[i], reasons[i])
	}
	res := f.result()
	res.Issue, res.Reasons = issue, reasons
	return res, nil
}

// negOnes returns n entries of -1 ("no command").
func negOnes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// refDCS schedules st under DCS's per-entry D-Table.
func refDCS(d *timing.Device, st *pim.Stack, disableIsMAC bool) (*Result, error) {
	name := (&DCS{DisableIsMAC: disableIsMAC}).Name()
	return refQueues(d, st, name, func(kt *kindTimes) [][]edge {
		dt := make([][]edge, len(st.Cmds))
		lastGW := negOnes(st.GBufEntries) // GBuf entry -> last WR-INP
		lastGR := negOnes(st.GBufEntries) // GBuf entry -> last MAC reader
		lastOW := negOnes(st.OutEntries)  // out entry -> last MAC accumulate
		lastOR := negOnes(st.OutEntries)  // out entry -> last RD-OUT
		lastAct, lastPre, lastRowMAC := -1, -1, -1
		wr, mac, rd := kt.exec[pim.WRINP], kt.exec[pim.MAC], kt.exec[pim.RDOUT]
		accum := kt.tccds
		if disableIsMAC {
			accum = mac
		}
		for i, c := range st.Cmds {
			add := func(id int, wait timing.Cycles, why Reason) {
				if id >= 0 {
					dt[i] = append(dt[i], edge{id, why, wait})
				}
			}
			switch c.Kind {
			case pim.WRINP:
				add(lastGW[c.GBuf], wr, ReasonDepWR)
				add(lastGR[c.GBuf], mac, ReasonDepMAC)
				lastGW[c.GBuf] = i
			case pim.MAC:
				add(lastGW[c.GBuf], wr, ReasonDepWR)
				add(lastOR[c.Out], rd, ReasonDepRD)
				add(lastOW[c.Out], accum, ReasonDepMAC)
				add(lastAct, kt.exec[pim.ACT], ReasonRow)
				lastGR[c.GBuf], lastOW[c.Out], lastRowMAC = i, i, i
			case pim.RDOUT:
				add(lastOW[c.Out], mac+kt.commit, ReasonDepMAC)
				lastOR[c.Out] = i
			case pim.ACT:
				add(lastPre, kt.exec[pim.PRE], ReasonRow)
				lastAct = i
			case pim.PRE:
				add(lastRowMAC, mac, ReasonDepMAC)
				lastPre = i
			}
		}
		return dt
	})
}

// refPingPong schedules st under ping-pong's region-granular D-Table.
func refPingPong(d *timing.Device, st *pim.Stack) (*Result, error) {
	gHalf, oHalf := max(st.GBufEntries/2, 1), max(st.OutEntries/2, 1)
	return refQueues(d, st, (&PingPong{}).Name(), func(kt *kindTimes) [][]edge {
		dt := make([][]edge, len(st.Cmds))
		lastGW := negOnes(st.GBufEntries/gHalf + 1) // gbuf region -> last WR-INP
		lastGR := negOnes(st.GBufEntries/gHalf + 1) // gbuf region -> last MAC reader
		lastOW := negOnes(st.OutEntries/oHalf + 1)  // out region -> last MAC
		lastOR := negOnes(st.OutEntries/oHalf + 1)  // out region -> last RD-OUT
		lastAct, lastPre, lastRowMAC := -1, -1, -1
		wr, mac, rd := kt.exec[pim.WRINP], kt.exec[pim.MAC], kt.exec[pim.RDOUT]
		for i, c := range st.Cmds {
			add := func(id int, wait timing.Cycles, why Reason) {
				if id >= 0 {
					dt[i] = append(dt[i], edge{id, why, wait})
				}
			}
			switch c.Kind {
			case pim.WRINP:
				r := c.GBuf / gHalf
				add(lastGR[r], mac, ReasonDepMAC) // region hand-off
				lastGW[r] = i
			case pim.MAC:
				r, or := c.GBuf/gHalf, c.Out/oHalf
				add(lastGW[r], wr, ReasonDepWR) // whole region filled
				add(lastOR[or], rd, ReasonDepRD)
				add(lastAct, kt.exec[pim.ACT], ReasonRow)
				lastGR[r], lastOW[or], lastRowMAC = i, i, i
			case pim.RDOUT:
				or := c.Out / oHalf
				add(lastOW[or], mac+kt.commit, ReasonDepMAC)
				lastOR[or] = i
			case pim.ACT:
				add(lastPre, kt.exec[pim.PRE], ReasonRow)
				lastAct = i
			case pim.PRE:
				add(lastRowMAC, mac, ReasonDepMAC)
				lastPre = i
			}
		}
		return dt
	})
}

// queueStacks returns the stacks TestQueuesMatchReference covers:
// goldenStacks, kernel stacks over a token sweep on both devices, and
// random well-formed stacks.
func queueStacks(t *testing.T) []*pim.Stack {
	t.Helper()
	out := goldenStacks(t)
	sweep := []int{1, 17, 100, 513, 1000, 2048, 5000}
	if testing.Short() {
		sweep = []int{1, 100, 2048}
	}
	for _, d := range []timing.Device{timing.AiM16(), timing.DDR5DIMM()} {
		for _, buf := range []kernels.Buffers{kernels.BaselineBuffers(d), kernels.OBufBuffers(d)} {
			c := kernels.NewConfig(d, buf)
			for _, tokens := range sweep {
				for _, dh := range []int{128, 100} {
					s, err := c.GEMV(tokens, dh)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, s)
					for _, queries := range []int{1, 3, 8} {
						for _, reuse := range []bool{false, true} {
							for _, build := range []func(int, int, int, bool) (*pim.Stack, error){c.QKT, c.SV} {
								s, err := build(tokens, dh, queries, reuse)
								if err != nil {
									t.Fatal(err)
								}
								out = append(out, s)
							}
						}
					}
				}
			}
		}
	}
	for seed := int64(1000); seed < 1300; seed++ {
		out = append(out, randomStack(seed, 200))
	}
	return out
}

// TestQueuesMatchReference is the two-queue oracle: DCS, DCS without
// is-MAC and ping-pong must schedule every stack exactly as the D-Table
// engine does, Issue, Reasons, Total, Breakdown and Count alike, priced
// on both devices.
func TestQueuesMatchReference(t *testing.T) {
	stacks := queueStacks(t)
	for _, d := range []timing.Device{timing.AiM16(), timing.DDR5DIMM()} {
		for i, st := range stacks {
			for _, c := range []struct {
				s   Scheduler
				ref func() (*Result, error)
			}{
				{&DCS{Dev: d}, func() (*Result, error) { return refDCS(&d, st, false) }},
				{&DCS{Dev: d, DisableIsMAC: true}, func() (*Result, error) { return refDCS(&d, st, true) }},
				{&PingPong{Dev: d}, func() (*Result, error) { return refPingPong(&d, st) }},
			} {
				want, err := c.ref()
				if err != nil {
					t.Fatalf("stack %d %s reference: %v", i, c.s.Name(), err)
				}
				got, err := c.s.Schedule(st)
				if err != nil {
					t.Fatalf("stack %d %s: %v", i, c.s.Name(), err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("stack %d (%d commands) on %d banks %s: fold total %d %+v %v, reference %d %+v %v",
						i, len(st.Cmds), d.Banks, c.s.Name(), got.Total, got.Breakdown, got.Count, want.Total, want.Breakdown, want.Count)
				}
			}
		}
	}
}
