// Package sched implements the three PIM command controllers compared in the
// paper: the conventional static in-order controller, a ping-pong
// (dual-region) buffering controller, and PIMphony's Dynamic PIM Command
// Scheduling (DCS) controller with per-buffer-entry dependency tracking.
//
// All controllers consume a pim.Stack (a linear command stream for one
// channel) and produce a Result with per-command issue times, the total
// latency, a latency breakdown in the categories of the paper's Fig. 8/9
// (MAC, ACT/PRE, REF, DT-GBuf, DT-OutReg, pipeline penalty), a per-kind
// command tally and the MAC-unit utilization. The static controller also
// runs as a Stream: the same fold fed one command at a time, so a kernel
// builder can price a stream it never stores.
//
// Timing semantics (calibrated to reproduce the paper's Fig. 7 example,
// 34 cycles static and 22 cycles DCS):
//
//   - The I/O data bus pipelines 32 B tiles: consecutive WR-INP/RD-OUT
//     issues are at least tCCDS apart. The MAC pipeline likewise accepts one
//     MAC per tCCDS.
//   - A command's effect completes exec[kind] cycles after issue
//     (tWR-INP, tMAC, tRD-OUT, tRCD, tRP).
//   - A RD-OUT additionally waits tOBufCommit for the last accumulate to
//     commit into the output buffer.
//   - The static controller issues strictly in order and separates
//     consecutive commands by the predecessor's fixed execution time, except
//     for same-kind I/O streams which pipeline at tCCDS (Sec. V-A).
//   - DCS splits commands into an I/O transfer queue and a compute queue,
//     issues out of order across queues, in order within each queue, and
//     waits only on true per-entry dependencies recorded in the D-Table.
//     Consecutive MACs to the same output entry chain at tCCDS (is-MAC flag).
//   - Ping-pong halves GBuf and the output registers into two regions and
//     tracks dependencies at region granularity only, reproducing the
//     hand-off stalls of dual-buffering schemes (Sec. VIII-C, Fig. 18).
package sched

import (
	"fmt"
	"math"
	"sync"

	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// Reason says which constraint was binding when a command was issued. It
// drives the latency-breakdown attribution.
type Reason uint8

const (
	// ReasonNone: the command issued as soon as its pipeline allowed.
	ReasonNone Reason = iota
	// ReasonBus: the command waited for its issue pipeline (I/O bus or MAC
	// pipeline) to free up.
	ReasonBus
	// ReasonDepWR: waited for a WR-INP to complete (input transfer).
	ReasonDepWR
	// ReasonDepRD: waited for an RD-OUT to complete (output drain).
	ReasonDepRD
	// ReasonDepMAC: waited for a MAC to complete.
	ReasonDepMAC
	// ReasonRow: waited for a row activate/precharge.
	ReasonRow
	// ReasonInOrder: waited for queue order (static program order).
	ReasonInOrder
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonBus:
		return "bus"
	case ReasonDepWR:
		return "dep-wrinp"
	case ReasonDepRD:
		return "dep-rdout"
	case ReasonDepMAC:
		return "dep-mac"
	case ReasonRow:
		return "row"
	case ReasonInOrder:
		return "in-order"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// Breakdown decomposes a schedule's total latency into the categories used
// by the paper's Fig. 8 and Fig. 9. All components sum to Total.
type Breakdown struct {
	MAC      timing.Cycles // cycles the MAC pipeline was genuinely busy
	ActPre   timing.Cycles // stalls waiting on DRAM activate/precharge
	Refresh  timing.Cycles // refresh overhead (tRFC/tREFI stretch)
	DTGBuf   timing.Cycles // stalls waiting on input transfers into GBuf
	DTOutReg timing.Cycles // stalls waiting on output drains from OutReg/OBuf
	Penalty  timing.Cycles // cumulative pipeline penalty (other stalls)
}

// Add accumulates another breakdown into this one.
func (b *Breakdown) Add(o Breakdown) {
	b.MAC += o.MAC
	b.ActPre += o.ActPre
	b.Refresh += o.Refresh
	b.DTGBuf += o.DTGBuf
	b.DTOutReg += o.DTOutReg
	b.Penalty += o.Penalty
}

// Result is the outcome of scheduling one command stack.
type Result struct {
	Scheduler string
	Total     timing.Cycles   // end-to-end latency including refresh stretch
	Issue     []timing.Cycles // per-command issue cycle (indexed by cmd ID)
	Reasons   []Reason        // binding constraint per command
	Breakdown Breakdown
	// Count tallies the scheduled commands by kind, indexed by pim.Kind.
	Count [nKinds]int64
}

// MACUtilization is the fraction of the total latency during which the MAC
// pipeline was busy.
func (r *Result) MACUtilization() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Breakdown.MAC) / float64(r.Total)
}

// Scheduler schedules a command stack onto one PIM channel.
type Scheduler interface {
	Name() string
	Schedule(s *pim.Stack) (*Result, error)
}

const inf = timing.Cycles(math.MaxInt64 / 4)

// negOnes returns an int slice of length n filled with -1 ("no command").
func negOnes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// nKinds bounds the command kinds a validated stack can hold.
const nKinds = int(pim.PRE) + 1

// kindTimes holds the per-kind timings of one device, resolved once per
// Schedule so the per-command loops index a small table instead of
// switching over (and copying) the whole device description.
type kindTimes struct {
	tccds  timing.Cycles
	commit timing.Cycles // tOBufCommit: a RD-OUT waits this after the last MAC completes
	// exec is a command's completion latency (tWR-INP, tMAC, tRD-OUT,
	// tRCD, tRP).
	exec [nKinds]timing.Cycles
	// gap[prev][cur] is the static controller's mandatory issue gap when
	// cur follows prev in program order: the predecessor's completion
	// latency, except that same-kind I/O streams pipeline at tCCDS.
	gap [nKinds][nKinds]timing.Cycles
}

func newKindTimes(d *timing.Device) *kindTimes {
	kt := &kindTimes{tccds: d.TCCDS, commit: d.TOBufCommit}
	kt.exec[pim.WRINP] = d.TWRINP
	kt.exec[pim.MAC] = d.TMAC
	kt.exec[pim.RDOUT] = d.TRDOUT
	kt.exec[pim.ACT] = d.TRCD
	kt.exec[pim.PRE] = d.TRP
	for prev := range kt.gap {
		for cur := range kt.gap[prev] {
			kt.gap[prev][cur] = kt.exec[prev]
		}
	}
	kt.gap[pim.WRINP][pim.WRINP] = d.TCCDS // pipelined tile streaming
	kt.gap[pim.RDOUT][pim.RDOUT] = d.TCCDS
	return kt
}

// ---------------------------------------------------------------------------
// Static controller
// ---------------------------------------------------------------------------

// Static is the conventional in-order PIM controller: it separates every
// pair of consecutive commands by the predecessor's fixed execution time
// (pessimistically assuming a dependency), pipelining only same-kind I/O
// streams at tCCDS.
type Static struct {
	Dev timing.Device
}

// Name implements Scheduler.
func (s *Static) Name() string { return "static" }

// gapReason attributes a static gap to the breakdown category of the
// command that imposed it.
func gapReason(prev pim.Kind) Reason {
	switch prev {
	case pim.WRINP:
		return ReasonDepWR
	case pim.MAC:
		return ReasonDepMAC
	case pim.RDOUT:
		return ReasonDepRD
	case pim.ACT, pim.PRE:
		return ReasonRow
	default:
		return ReasonInOrder
	}
}

// Schedule implements Scheduler: it validates the stack and runs it
// through the controller's fold, recording each command's issue cycle and
// binding constraint.
func (s *Static) Schedule(st *pim.Stack) (*Result, error) {
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid stack: %w", err)
	}
	n := len(st.Cmds)
	f := s.Stream()
	res := &Result{Scheduler: s.Name(), Issue: make([]timing.Cycles, n), Reasons: make([]Reason, n)}
	for i, c := range st.Cmds {
		res.Issue[i], res.Reasons[i] = f.issue(c.Kind)
	}
	f.finish(&s.Dev, res)
	return res, nil
}

// Stream is the static controller as an incremental fold: a pim.Sink that
// issues each command under the in-order gap rule as it arrives and keeps
// no per-command state, so a kernel builder can price a command stream
// without materializing it. It takes commands already checked by a
// pim.Checker, and it implements pim.Periodic so a builder can skip whole
// periods of a repeating stream.
type Stream struct {
	s *Static
	fold
	t    timing.Cycles // issue cycle of the last command
	prev int           // kind of the last command, -1 before the first
}

// Stream returns an empty stream priced on the controller's device.
func (s *Static) Stream() *Stream {
	return &Stream{s: s, fold: fold{kt: newKindTimes(&s.Dev)}, prev: -1}
}

// issue applies the in-order gap rule to the next command, folds it in
// and returns its issue cycle and binding constraint.
func (f *Stream) issue(k pim.Kind) (timing.Cycles, Reason) {
	why := ReasonNone
	if f.prev >= 0 {
		prev := pim.Kind(f.prev)
		gap := f.kt.gap[prev][k]
		f.t += gap
		if gap > f.kt.tccds {
			why = gapReason(prev)
		} else {
			why = ReasonBus
		}
	}
	f.prev = int(k)
	f.add(k, f.t, why)
	return f.t, why
}

// Put implements pim.Sink.
func (f *Stream) Put(cmds ...pim.Command) {
	for _, c := range cmds {
		f.issue(c.Kind)
	}
}

// Result returns the schedule of the commands put so far: Total,
// Breakdown and Count, without per-command issue cycles.
func (f *Stream) Result() *Result {
	res := &Result{Scheduler: f.s.Name()}
	f.finish(&f.s.Dev, res)
	return res
}

// AppendState implements pim.Periodic: the previous kind, whether a MAC
// has issued, and the last-MAC cycle, the MAC-issue maximum and the
// completion horizon relative to the issue clock. The fold reads no rows.
func (f *Stream) AppendState(dst []int64, _ int) []int64 {
	if f.count[pim.MAC] == 0 {
		return append(dst, int64(f.prev), 0, 0, 0, int64(f.end-f.t))
	}
	return append(dst, int64(f.prev), 1, int64(f.prevMAC-f.t), int64(f.lastMAC-f.t), int64(f.end-f.t))
}

// clocks lists the fold's cycle counters in AppendCounters order: the
// issue clock, the horizon, both MAC cycles and the breakdown components
// add attributes (finish sets MAC and Refresh).
func (f *Stream) clocks() [8]*timing.Cycles {
	b := &f.b
	return [...]*timing.Cycles{&f.t, &f.end, &f.prevMAC, &f.lastMAC,
		&b.ActPre, &b.DTGBuf, &b.DTOutReg, &b.Penalty}
}

// AppendCounters implements pim.Periodic: the cycle counters and the
// per-kind tally.
func (f *Stream) AppendCounters(dst []int64) []int64 {
	for _, c := range f.clocks() {
		dst = append(dst, int64(*c))
	}
	return append(dst, f.count[:]...)
}

// Advance implements pim.Periodic. The refresh stretch is not a counter:
// Result applies it once, to the advanced horizon.
func (f *Stream) Advance(delta []int64, m int) {
	cs := f.clocks()
	for i, c := range cs {
		*c += timing.Cycles(m) * timing.Cycles(delta[i])
	}
	for k := range f.count {
		f.count[k] += int64(m) * delta[len(cs)+k]
	}
}

// ---------------------------------------------------------------------------
// Shared two-queue engine (DCS and ping-pong)
// ---------------------------------------------------------------------------

// edge is a D-Table dependency: the command may not issue before the
// dependee's issue cycle plus wait.
type edge struct {
	id   int32         // dependee command ID
	why  Reason        // attribution if this edge is binding
	wait timing.Cycles // tCCDS for an is-MAC chain, else completion (+ commit)
}

// dTable is the dependency table of one stack in CSR form: the edges of
// command i are edges[start[i]:start[i+1]]. A command has at most four
// edges (a MAC: input tile, output drain, output accumulate, open row).
type dTable struct {
	start []int32
	edges []edge
}

// add records an edge of the command currently being visited.
func (t *dTable) add(id int, wait timing.Cycles, why Reason) {
	t.edges = append(t.edges, edge{id: int32(id), why: why, wait: wait})
}

// next closes the edge list of the command just visited.
func (t *dTable) next() { t.start = append(t.start, int32(len(t.edges))) }

// scratch is the per-Schedule working memory of the two-queue engine,
// recycled through scratchPool: the D-Table and both issue queues hold
// only int32 command IDs, so a cold price allocates them once per worker
// rather than once per stack.
type scratch struct {
	dt      dTable
	ioQ, cQ []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns empty working memory sized for n commands.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if cap(sc.dt.start) < n+1 {
		sc.dt = dTable{start: make([]int32, 0, n+1), edges: make([]edge, 0, 2*n)}
		sc.ioQ, sc.cQ = make([]int32, 0, n), make([]int32, 0, n)
	}
	sc.dt.start = append(sc.dt.start[:0], 0)
	sc.dt.edges = sc.dt.edges[:0]
	sc.ioQ, sc.cQ = sc.ioQ[:0], sc.cQ[:0]
	return sc
}

// isIO reports whether a command issues on the I/O transfer queue.
func isIO(k pim.Kind) bool { return k == pim.WRINP || k == pim.RDOUT }

// runQueues executes the dual-queue out-of-order engine: in-order within the
// I/O and compute queues, out-of-order across them, waiting only on the
// D-Table edges the dependency pass fills in, one command at a time in
// program order. Ties are broken in favour of the I/O queue so input
// prefetches are not starved by long MAC chains.
func runQueues(d *timing.Device, st *pim.Stack, name string, fill func(kt *kindTimes, dt *dTable)) (*Result, error) {
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid stack: %w", err)
	}
	kt := newKindTimes(d)
	n := len(st.Cmds)
	sc := getScratch(n)
	defer scratchPool.Put(sc)
	dt := &sc.dt
	fill(kt, dt)
	if len(dt.start) != n+1 {
		return nil, fmt.Errorf("sched: dependency pass returned %d entries for %d commands", len(dt.start)-1, n)
	}
	for i, c := range st.Cmds {
		if isIO(c.Kind) {
			sc.ioQ = append(sc.ioQ, int32(i))
		} else {
			sc.cQ = append(sc.cQ, int32(i))
		}
	}
	res := &Result{Scheduler: name, Issue: make([]timing.Cycles, n), Reasons: make([]Reason, n)}
	for i := range res.Issue {
		res.Issue[i] = -1 // not issued yet
	}
	var ioFree, macFree timing.Cycles
	ioHead, cHead := 0, 0

	earliest := func(id int32, resFree timing.Cycles) (timing.Cycles, Reason) {
		t := resFree
		why := ReasonNone
		if resFree > 0 {
			why = ReasonBus
		}
		for _, e := range dt.edges[dt.start[id]:dt.start[id+1]] {
			at := res.Issue[e.id]
			if at < 0 {
				return inf, ReasonInOrder
			}
			if bound := at + e.wait; bound > t {
				t, why = bound, e.why
			}
		}
		return t, why
	}

	for ioHead < len(sc.ioQ) || cHead < len(sc.cQ) {
		tIO, whyIO := inf, ReasonNone
		if ioHead < len(sc.ioQ) {
			tIO, whyIO = earliest(sc.ioQ[ioHead], ioFree)
		}
		tC, whyC := inf, ReasonNone
		if cHead < len(sc.cQ) {
			tC, whyC = earliest(sc.cQ[cHead], macFree)
		}
		if tIO == inf && tC == inf {
			return nil, fmt.Errorf("sched: %s deadlocked with io head %d / compute head %d", name, ioHead, cHead)
		}
		if tIO <= tC {
			id := sc.ioQ[ioHead]
			res.Issue[id] = tIO
			res.Reasons[id] = whyIO
			ioFree = tIO + kt.tccds
			ioHead++
		} else {
			id := sc.cQ[cHead]
			res.Issue[id] = tC
			res.Reasons[id] = whyC
			macFree = tC + kt.tccds
			cHead++
		}
	}
	f := fold{kt: kt}
	for i, c := range st.Cmds {
		f.add(c.Kind, res.Issue[i], res.Reasons[i])
	}
	f.finish(d, res)
	return res, nil
}

// ---------------------------------------------------------------------------
// DCS controller
// ---------------------------------------------------------------------------

// DCS is PIMphony's dynamic command scheduler: D-Table per-entry dependency
// assignment, S-Table readiness checks, dual queues and the is-MAC
// accumulate bypass. IsMACBypass can be disabled for ablation.
type DCS struct {
	Dev timing.Device
	// DisableIsMAC turns off the is-MAC flag: consecutive MACs to the same
	// output entry then wait for full tMAC completion (ablation knob).
	DisableIsMAC bool
}

// Name implements Scheduler.
func (s *DCS) Name() string {
	if s.DisableIsMAC {
		return "dcs-no-ismac"
	}
	return "dcs"
}

// Schedule implements Scheduler.
func (s *DCS) Schedule(st *pim.Stack) (*Result, error) {
	return runQueues(&s.Dev, st, s.Name(), func(kt *kindTimes, dt *dTable) {
		// D-Table: last writer / reader per GBuf entry, last MAC / drain per
		// output entry, plus row-state tracking.
		lastGW := negOnes(st.GBufEntries) // GBuf entry -> last WR-INP
		lastGR := negOnes(st.GBufEntries) // GBuf entry -> last MAC reader
		lastOW := negOnes(st.OutEntries)  // out entry -> last MAC accumulate
		lastOR := negOnes(st.OutEntries)  // out entry -> last RD-OUT
		lastAct, lastPre, lastRowMAC := -1, -1, -1
		wr, mac, rd := kt.exec[pim.WRINP], kt.exec[pim.MAC], kt.exec[pim.RDOUT]
		accum := kt.tccds // is-MAC chain: the next MAC pipelines behind this one
		if s.DisableIsMAC {
			accum = mac
		}
		for i, c := range st.Cmds {
			switch c.Kind {
			case pim.WRINP:
				if id := lastGW[c.GBuf]; id >= 0 {
					dt.add(id, wr, ReasonDepWR) // WAW
				}
				if id := lastGR[c.GBuf]; id >= 0 {
					dt.add(id, mac, ReasonDepMAC) // WAR: reader must finish
				}
				lastGW[c.GBuf] = i
			case pim.MAC:
				if id := lastGW[c.GBuf]; id >= 0 {
					dt.add(id, wr, ReasonDepWR) // RAW on input tile
				}
				if id := lastOR[c.Out]; id >= 0 {
					dt.add(id, rd, ReasonDepRD) // WAR: drain before reuse
				}
				if id := lastOW[c.Out]; id >= 0 {
					dt.add(id, accum, ReasonDepMAC)
				}
				if lastAct >= 0 {
					dt.add(lastAct, kt.exec[pim.ACT], ReasonRow)
				}
				lastGR[c.GBuf] = i
				lastOW[c.Out] = i
				lastRowMAC = i
			case pim.RDOUT:
				if id := lastOW[c.Out]; id >= 0 {
					dt.add(id, mac+kt.commit, ReasonDepMAC)
				}
				lastOR[c.Out] = i
			case pim.ACT:
				if lastPre >= 0 {
					dt.add(lastPre, kt.exec[pim.PRE], ReasonRow)
				}
				lastAct = i
			case pim.PRE:
				if lastRowMAC >= 0 {
					dt.add(lastRowMAC, mac, ReasonDepMAC)
				}
				lastPre = i
			}
			dt.next()
		}
	})
}

// ---------------------------------------------------------------------------
// Ping-pong controller
// ---------------------------------------------------------------------------

// PingPong models dual-buffering schemes (PipePIM-style): GBuf and the
// output registers are split into two regions; I/O to one region may overlap
// compute on the other, but dependencies are tracked only at region
// granularity, so region hand-offs stall until the whole region is idle.
type PingPong struct {
	Dev timing.Device
}

// Name implements Scheduler.
func (s *PingPong) Name() string { return "pingpong" }

// Schedule implements Scheduler.
func (s *PingPong) Schedule(st *pim.Stack) (*Result, error) {
	gHalf := st.GBufEntries / 2
	if gHalf == 0 {
		gHalf = 1
	}
	oHalf := st.OutEntries / 2
	if oHalf == 0 {
		oHalf = 1
	}
	return runQueues(&s.Dev, st, s.Name(), func(kt *kindTimes, dt *dTable) {
		lastGW := negOnes(st.GBufEntries/gHalf + 1) // gbuf region -> last WR-INP
		lastGR := negOnes(st.GBufEntries/gHalf + 1) // gbuf region -> last MAC reader
		lastOW := negOnes(st.OutEntries/oHalf + 1)  // out region -> last MAC
		lastOR := negOnes(st.OutEntries/oHalf + 1)  // out region -> last RD-OUT
		lastAct, lastPre, lastRowMAC := -1, -1, -1
		wr, mac, rd := kt.exec[pim.WRINP], kt.exec[pim.MAC], kt.exec[pim.RDOUT]
		for i, c := range st.Cmds {
			switch c.Kind {
			case pim.WRINP:
				r := c.GBuf / gHalf
				if id := lastGR[r]; id >= 0 {
					dt.add(id, mac, ReasonDepMAC) // region hand-off
				}
				lastGW[r] = i
			case pim.MAC:
				r := c.GBuf / gHalf
				if id := lastGW[r]; id >= 0 {
					dt.add(id, wr, ReasonDepWR) // whole region filled
				}
				or := c.Out / oHalf
				if id := lastOR[or]; id >= 0 {
					dt.add(id, rd, ReasonDepRD)
				}
				if lastAct >= 0 {
					dt.add(lastAct, kt.exec[pim.ACT], ReasonRow)
				}
				lastGR[r] = i
				lastOW[or] = i
				lastRowMAC = i
			case pim.RDOUT:
				or := c.Out / oHalf
				if id := lastOW[or]; id >= 0 {
					dt.add(id, mac+kt.commit, ReasonDepMAC)
				}
				lastOR[or] = i
			case pim.ACT:
				if lastPre >= 0 {
					dt.add(lastPre, kt.exec[pim.PRE], ReasonRow)
				}
				lastAct = i
			case pim.PRE:
				if lastRowMAC >= 0 {
					dt.add(lastRowMAC, mac, ReasonDepMAC)
				}
				lastPre = i
			}
			dt.next()
		}
	})
}

// ---------------------------------------------------------------------------
// Breakdown fold
// ---------------------------------------------------------------------------

// fold accumulates a schedule one command at a time in program order: the
// completion horizon over all commands, the MAC-pipeline breakdown and a
// per-kind tally. Every controller finishes through it. The breakdown is
// built over the MAC-pipeline timeline: the MAC component is the
// pipeline's busy time (one tCCDS slot per MAC); all idle gaps between MAC
// issues are attributed to the binding constraint of the waiting MAC; the
// lead-in before the first MAC and the drain after the last are
// attributed to their binding causes. A refresh stretch is applied last.
type fold struct {
	kt                    *kindTimes
	end, prevMAC, lastMAC timing.Cycles
	count                 [nKinds]int64
	b                     Breakdown
}

// add folds in one command of kind k issued at cycle t with binding
// constraint why.
func (f *fold) add(k pim.Kind, t timing.Cycles, why Reason) {
	if done := t + f.kt.exec[k]; done > f.end {
		f.end = done
	}
	if k == pim.MAC {
		if f.count[pim.MAC] == 0 {
			f.attribute(t, leadReason(why))
		} else {
			f.attribute(t-f.prevMAC-f.kt.tccds, why)
		}
		f.prevMAC = t
		if t > f.lastMAC {
			f.lastMAC = t
		}
	}
	f.count[k]++
}

// attribute charges a MAC-pipeline idle gap to its breakdown category.
func (f *fold) attribute(cycles timing.Cycles, why Reason) {
	if cycles <= 0 {
		return
	}
	switch why {
	case ReasonDepWR:
		f.b.DTGBuf += cycles
	case ReasonDepRD:
		f.b.DTOutReg += cycles
	case ReasonRow:
		f.b.ActPre += cycles
	default:
		f.b.Penalty += cycles
	}
}

// finish writes Total, Breakdown and Count of the commands folded so far
// into res. It leaves the fold unchanged.
func (f *fold) finish(d *timing.Device, res *Result) {
	b := f.b
	if n := f.count[pim.MAC]; n > 0 {
		b.MAC = timing.Cycles(n) * f.kt.tccds
		// Drain: everything after the last MAC slot is output drain time.
		b.DTOutReg += f.end - (f.lastMAC + f.kt.tccds)
	} else {
		// Pure I/O stack: attribute everything to transfer time.
		b.DTGBuf = f.end
	}
	res.Total, b.Refresh = d.StretchForRefresh(f.end)
	res.Breakdown = b
	res.Count = f.count
}

// leadReason maps the first MAC's binding constraint to a breakdown
// category; an unconstrained first MAC is still waiting on input transfers.
func leadReason(r Reason) Reason {
	if r == ReasonNone || r == ReasonBus {
		return ReasonDepWR
	}
	return r
}
