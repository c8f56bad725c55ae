// Package sched implements the three PIM command controllers compared in the
// paper: the conventional static in-order controller, a ping-pong
// (dual-region) buffering controller, and PIMphony's Dynamic PIM Command
// Scheduling (DCS) controller with per-buffer-entry dependency tracking.
//
// Each controller is one fold over a command stream in program order. Its
// stream is that fold as a pim.Sink, so a kernel builder can price a
// stream it never stores; Schedule validates a pim.Stack (a linear command
// stream for one channel) and runs it through the same fold, also
// recording per-command issue times. Either way the Result holds the total
// latency, a latency breakdown in the categories of the paper's Fig. 8/9
// (MAC, ACT/PRE, REF, DT-GBuf, DT-OutReg, pipeline penalty), a per-kind
// command tally and the MAC-unit utilization.
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
//     Which queue issues next never changes a cycle: a command issues at
//     the later of its own queue's pipeline-free time and its dependees'
//     issue cycles plus their waits, and every dependee comes earlier in
//     program order, so the fold issues the commands in program order.
//   - Ping-pong halves GBuf and the output registers into two regions and
//     tracks dependencies at region granularity only, reproducing the
//     hand-off stalls of dual-buffering schemes (Sec. VIII-C, Fig. 18).
package sched

import (
	"fmt"
	"math"

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

// folder is a controller's fold.
type folder interface {
	// issue issues the next command in program order, folds it in and
	// returns its issue cycle and binding constraint.
	issue(c pim.Command) (timing.Cycles, Reason)
	Result() *Result
}

// schedule validates the stack and runs it through the controller's fold
// f, recording each command's issue cycle and binding constraint.
func schedule(st *pim.Stack, f folder) (*Result, error) {
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid stack: %w", err)
	}
	n := len(st.Cmds)
	issue, reasons := make([]timing.Cycles, n), make([]Reason, n)
	for i, c := range st.Cmds {
		issue[i], reasons[i] = f.issue(c)
	}
	res := f.Result()
	res.Issue, res.Reasons = issue, reasons
	return res, nil
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

// Schedule implements Scheduler.
func (s *Static) Schedule(st *pim.Stack) (*Result, error) { return schedule(st, s.Stream()) }

// Stream is the static controller as an incremental fold: a pim.Sink that
// issues each command under the in-order gap rule as it arrives and keeps
// no per-command state, so a kernel builder can price a command stream
// without materializing it. It takes commands already checked by a
// pim.Checker, and it implements pim.Periodic so a builder can skip whole
// periods of a repeating stream.
type Stream struct {
	fold
	t    timing.Cycles // issue cycle of the last command
	prev int           // kind of the last command, -1 before the first
}

// Stream returns an empty stream priced on the controller's device.
func (s *Static) Stream() *Stream {
	return &Stream{fold: newFold(s.Name(), &s.Dev), prev: -1}
}

// issue applies the in-order gap rule to the next command, folds it in
// and returns its issue cycle and binding constraint.
func (f *Stream) issue(c pim.Command) (timing.Cycles, Reason) {
	why := ReasonNone
	if f.prev >= 0 {
		prev := pim.Kind(f.prev)
		gap := f.kt.gap[prev][c.Kind]
		f.t += gap
		if gap > f.kt.tccds {
			why = gapReason(prev)
		} else {
			why = ReasonBus
		}
	}
	f.prev = int(c.Kind)
	f.add(c.Kind, f.t, why)
	return f.t, why
}

// Put implements pim.Sink.
func (f *Stream) Put(cmds ...pim.Command) {
	for _, c := range cmds {
		f.issue(c)
	}
}

// Result returns the schedule of the commands put so far: Total,
// Breakdown and Count, without per-command issue cycles.
func (f *Stream) Result() *Result { return f.result() }

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
// add attributes (result sets MAC and Refresh).
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
// Two-queue controllers (DCS and ping-pong)
// ---------------------------------------------------------------------------

// never is the issue cycle of a command that does not exist: no wait
// added to it reaches cycle 0, so a dependency on it never binds.
const never = timing.Cycles(math.MinInt64 / 4)

// slot is the D-Table state of one dependency slot of a buffer: the issue
// cycles of the last command that wrote it and of the last that read it,
// or never. In GBuf a WR-INP writes and a MAC reads; in the output buffer
// a MAC writes (accumulates) and a RD-OUT reads (drains).
type slot struct{ write, read timing.Cycles }

// slots returns the slot of each of n buffer entries, per consecutive
// entries sharing one slot.
func slots(n, per int) []*slot {
	s := make([]slot, (n+per-1)/per)
	for i := range s {
		s[i] = slot{never, never}
	}
	tab := make([]*slot, n)
	for e := range tab {
		tab[e] = &s[e/per]
	}
	return tab
}

// QueueStream is a two-queue controller, DCS or ping-pong, as an
// incremental fold: a pim.Sink that issues each command as it arrives.
// A command issues at the later of its queue's pipeline-free cycle and
// each D-Table dependee's issue cycle plus its wait. Every dependee comes
// earlier in program order, so the stream keeps only the last issue cycle
// of each role per slot and of the row commands, not the commands. It
// takes commands already checked by a pim.Checker.
type QueueStream struct {
	fold
	gbuf, out        []*slot       // slot of each GBuf and output entry
	act, pre, rowMAC timing.Cycles // last ACT, PRE and MAC, or never
	ioFree, macFree  timing.Cycles // next free cycle of the I/O and compute pipelines
	// waw is a WR-INP's wait on its slot's last WR-INP, accum a MAC's on
	// its output slot's last accumulate.
	waw, accum timing.Cycles
}

// newQueueStream returns an empty two-queue stream for the buffer
// geometry, with gPer GBuf and oPer output entries to a dependency slot.
func newQueueStream(name string, d *timing.Device, gbufEntries, outEntries, gPer, oPer int, waw, accum timing.Cycles) *QueueStream {
	return &QueueStream{fold: newFold(name, d), gbuf: slots(gbufEntries, gPer), out: slots(outEntries, oPer),
		act: never, pre: never, rowMAC: never, waw: waw, accum: accum}
}

// after returns the later of issue cycle t, bound by why, and a
// dependee's issue cycle at plus wait, bound by r. Only a strictly later
// bound binds, so on a tie the earlier constraint keeps the attribution.
func after(t timing.Cycles, why Reason, at, wait timing.Cycles, r Reason) (timing.Cycles, Reason) {
	if b := at + wait; b > t {
		return b, r
	}
	return t, why
}

// issue binds the next command's D-Table edges in D-Table order, folds it
// in and returns its issue cycle and binding constraint.
func (f *QueueStream) issue(c pim.Command) (timing.Cycles, Reason) {
	kt := f.kt
	free := &f.macFree
	if c.Kind == pim.WRINP || c.Kind == pim.RDOUT {
		free = &f.ioFree
	}
	t, why := *free, ReasonNone
	if t > 0 {
		why = ReasonBus
	}
	switch c.Kind {
	case pim.WRINP:
		g := f.gbuf[c.GBuf]
		t, why = after(t, why, g.write, f.waw, ReasonDepWR)            // WAW
		t, why = after(t, why, g.read, kt.exec[pim.MAC], ReasonDepMAC) // WAR: reader must finish
		g.write = t
	case pim.MAC:
		g, o := f.gbuf[c.GBuf], f.out[c.Out]
		t, why = after(t, why, g.write, kt.exec[pim.WRINP], ReasonDepWR) // RAW on input tile
		t, why = after(t, why, o.read, kt.exec[pim.RDOUT], ReasonDepRD)  // WAR: drain before reuse
		t, why = after(t, why, o.write, f.accum, ReasonDepMAC)           // accumulate chain
		t, why = after(t, why, f.act, kt.exec[pim.ACT], ReasonRow)
		g.read, o.write, f.rowMAC = t, t, t
	case pim.RDOUT:
		o := f.out[c.Out]
		t, why = after(t, why, o.write, kt.exec[pim.MAC]+kt.commit, ReasonDepMAC)
		o.read = t
	case pim.ACT:
		t, why = after(t, why, f.pre, kt.exec[pim.PRE], ReasonRow)
		f.act = t
	case pim.PRE:
		t, why = after(t, why, f.rowMAC, kt.exec[pim.MAC], ReasonDepMAC)
		f.pre = t
	}
	*free = t + kt.tccds
	f.add(c.Kind, t, why)
	return t, why
}

// Put implements pim.Sink.
func (f *QueueStream) Put(cmds ...pim.Command) {
	for _, c := range cmds {
		f.issue(c)
	}
}

// Result returns the schedule of the commands put so far: Total,
// Breakdown and Count, without per-command issue cycles.
func (f *QueueStream) Result() *Result { return f.result() }

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
	return schedule(st, s.Stream(st.GBufEntries, st.OutEntries))
}

// Stream returns an empty stream for the buffer geometry, priced on the
// controller's device. Every buffer entry is its own dependency slot.
func (s *DCS) Stream(gbufEntries, outEntries int) *QueueStream {
	accum := s.Dev.TCCDS // is-MAC chain: the next MAC pipelines behind this one
	if s.DisableIsMAC {
		accum = s.Dev.TMAC
	}
	return newQueueStream(s.Name(), &s.Dev, gbufEntries, outEntries, 1, 1, s.Dev.TWRINP, accum)
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
	return schedule(st, s.Stream(st.GBufEntries, st.OutEntries))
}

// Stream returns an empty stream for the buffer geometry, priced on the
// controller's device. Each half of a buffer is one dependency slot. The
// controller tracks no WR-INP after WR-INP and no accumulate chain; a
// zero wait stands for each, since a dependee in the command's own queue
// issued at least tCCDS before that queue frees, so it never binds.
func (s *PingPong) Stream(gbufEntries, outEntries int) *QueueStream {
	return newQueueStream(s.Name(), &s.Dev, gbufEntries, outEntries, max(gbufEntries/2, 1), max(outEntries/2, 1), 0, 0)
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
	name                  string // the controller's Name
	dev                   *timing.Device
	kt                    *kindTimes
	end, prevMAC, lastMAC timing.Cycles
	count                 [nKinds]int64
	b                     Breakdown
}

// newFold returns an empty fold for the named controller on device d.
func newFold(name string, d *timing.Device) fold {
	return fold{name: name, dev: d, kt: newKindTimes(d)}
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

// result returns the schedule of the commands folded so far: Total,
// Breakdown and Count, without per-command issue cycles. It leaves the
// fold unchanged.
func (f *fold) result() *Result {
	res := &Result{Scheduler: f.name, Count: f.count}
	b := f.b
	if n := f.count[pim.MAC]; n > 0 {
		b.MAC = timing.Cycles(n) * f.kt.tccds
		// Drain: everything after the last MAC slot is output drain time.
		b.DTOutReg += f.end - (f.lastMAC + f.kt.tccds)
	} else {
		// Pure I/O stack: attribute everything to transfer time.
		b.DTGBuf = f.end
	}
	res.Total, b.Refresh = f.dev.StretchForRefresh(f.end)
	res.Breakdown = b
	return res
}

// leadReason maps the first MAC's binding constraint to a breakdown
// category; an unconstrained first MAC is still waiting on input transfers.
func leadReason(r Reason) Reason {
	if r == ReasonNone || r == ReasonBus {
		return ReasonDepWR
	}
	return r
}
