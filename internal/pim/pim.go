// Package pim models a single PIM channel at command granularity.
//
// A channel executes a linear stack of PIM commands. Three primitive kinds
// follow the paper's Table III: WR-INP copies one 32 B tile from the HUB GPR
// into a Global Buffer (GBuf) entry; MAC reads one GBuf entry, multiplies it
// against one DRAM column tile in every bank in parallel and accumulates
// into a per-bank output entry; RD-OUT drains one output entry from all
// banks (2 B per bank, 32 B total) back to the GPR. ACT/PRE row commands are
// materialised by the kernel builders when a MAC touches a closed row.
package pim

import (
	"fmt"
	"math"
)

// Kind enumerates PIM command kinds.
type Kind uint8

const (
	// WRINP writes one input tile into a GBuf entry.
	WRINP Kind = iota
	// MAC multiplies one GBuf entry against one DRAM column tile per bank
	// and accumulates into an output entry.
	MAC
	// RDOUT drains one output entry from all banks to the GPR.
	RDOUT
	// ACT activates (opens) a DRAM row in all banks of the channel.
	ACT
	// PRE precharges (closes) the open DRAM row.
	PRE
)

// String implements fmt.Stringer for command kinds.
func (k Kind) String() string {
	switch k {
	case WRINP:
		return "WR-INP"
	case MAC:
		return "MAC"
	case RDOUT:
		return "RD-OUT"
	case ACT:
		return "ACT"
	case PRE:
		return "PRE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Command is one channel-level PIM command. IDs are assigned densely by the
// Stack builder in program order, mirroring the paper's Fig. 7 example where
// each command carries a unique identifier used for dependency tracking.
type Command struct {
	ID   int
	Kind Kind
	// GBuf is the Global Buffer entry index accessed by WRINP (write) and
	// MAC (read). Unused (-1) for other kinds.
	GBuf int
	// Out is the output entry index accumulated by MAC and drained by
	// RDOUT. Unused (-1) for other kinds.
	Out int
	// Row and Col locate the DRAM tile read by MAC. Row is also set for
	// ACT/PRE. Unused (-1) otherwise.
	Row, Col int
}

// Stack is an ordered PIM command stream for one channel, as produced by the
// kernel builders and consumed by the schedulers.
type Stack struct {
	Cmds []Command
	// GBufEntries and OutEntries record the buffer geometry the stack was
	// built for; schedulers validate against their device config.
	GBufEntries int
	OutEntries  int
}

// NewStack returns an empty stack for the given buffer geometry.
func NewStack(gbufEntries, outEntries int) *Stack {
	return &Stack{GBufEntries: gbufEntries, OutEntries: outEntries}
}

// push appends a command, assigning the next dense ID, and returns it.
func (s *Stack) push(c Command) Command {
	c.ID = len(s.Cmds)
	s.Cmds = append(s.Cmds, c)
	return c
}

// WrInp appends a WR-INP command targeting the given GBuf entry.
func (s *Stack) WrInp(gbuf int) Command {
	return s.push(Command{Kind: WRINP, GBuf: gbuf, Out: -1, Row: -1, Col: -1})
}

// Mac appends a MAC command reading gbuf and accumulating into out at the
// DRAM location (row, col).
func (s *Stack) Mac(gbuf, out, row, col int) Command {
	return s.push(Command{Kind: MAC, GBuf: gbuf, Out: out, Row: row, Col: col})
}

// RdOut appends an RD-OUT command draining the given output entry.
func (s *Stack) RdOut(out int) Command {
	return s.push(Command{Kind: RDOUT, GBuf: -1, Out: out, Row: -1, Col: -1})
}

// Fig7Stack builds the paper's Fig. 7(a) command stack for the
// (1x48)*(48x32) GEMV on a 64-entry GBuf and 32-entry output buffer
// (AiM16's): three WR-INP tiles, then two output groups of three
// accumulating MACs, each drained by one RD-OUT.
func Fig7Stack() *Stack {
	s := NewStack(64, 32)
	s.WrInp(0)
	s.WrInp(1)
	s.WrInp(2)
	s.Mac(0, 0, 0, 0)
	s.Mac(1, 0, 0, 1)
	s.Mac(2, 0, 0, 2)
	s.RdOut(0)
	s.Mac(0, 1, 0, 3)
	s.Mac(1, 1, 0, 4)
	s.Mac(2, 1, 0, 5)
	s.RdOut(1)
	return s
}

// Counts tallies commands by kind, indexed by Kind. Kinds outside
// [WRINP, PRE] are not counted (Validate rejects them).
func (s *Stack) Counts() [PRE + 1]int {
	var n [PRE + 1]int
	for _, c := range s.Cmds {
		if c.Kind <= PRE {
			n[c.Kind]++
		}
	}
	return n
}

// Put appends commands as given, IDs included; it makes a stack the Sink
// of a kernel builder.
func (s *Stack) Put(cmds ...Command) { s.Cmds = append(s.Cmds, cmds...) }

// Validate checks stack-level invariants: IDs are dense and in order, buffer
// indices are within the declared geometry, every MAC reads a GBuf entry
// that was written earlier, every RD-OUT drains an output entry some MAC
// accumulated into since the previous drain, and row commands alternate
// sensibly. MACs are checked against the open row only when an ACT or PRE
// appears anywhere in the stack, before or after them.
func (s *Stack) Validate() error {
	rows := false
	for _, c := range s.Cmds {
		if c.Kind == ACT || c.Kind == PRE {
			rows = true
			break
		}
	}
	return NewChecker(s.GBufEntries, s.OutEntries, rows).Check(s.Cmds...)
}

// Sink consumes a command stream in program order, any number of
// commands at a time. A kernel builder emits into one; *Stack implements
// it by appending.
type Sink interface {
	Put(cmds ...Command)
}

// Periodic is implemented by stream consumers that can take part in
// skipping whole periods of a repeating command stream. A builder compares
// the appended state at the start of two loop iterations; when it matches,
// the commands in between repeat, and the builder advances every counter
// by m times its change over that span instead of emitting m more spans.
type Periodic interface {
	// AppendState appends everything the consumer's handling of later
	// commands depends on, with times relative to its issue clock and
	// rows relative to rowBase.
	AppendState(dst []int64, rowBase int) []int64
	// AppendCounters appends the values that advance by a fixed amount
	// over each repeated span.
	AppendCounters(dst []int64) []int64
	// Advance adds m times delta to the counters, in AppendCounters order.
	Advance(delta []int64, m int)
}

// Checker applies Validate's rules to a command stream piece by piece, so
// a stream is checked as it is emitted without being stored.
type Checker struct {
	written []bool // per GBuf entry: written by some WR-INP
	accum   []bool // per output entry: accumulated since its last drain
	// rows turns on the MAC-on-open-row rule. Validate sets it when the
	// stack holds any ACT or PRE; kernel builders always open a row before
	// their first MAC and check with it on from the start.
	rows    bool
	openRow int
	n       int // commands accepted so far: the ID the next one must carry
}

// NewChecker returns a checker for a stream built for the given buffer
// geometry.
func NewChecker(gbufEntries, outEntries int, rows bool) *Checker {
	return &Checker{written: make([]bool, gbufEntries), accum: make([]bool, outEntries), rows: rows, openRow: -1}
}

// Len is the number of commands accepted so far, which is also the ID the
// next command must carry.
func (k *Checker) Len() int { return k.n }

// Check applies the rules to the next commands of the stream, in order.
// It stops at the first rejected command and returns its error; the
// checker is then left as the commands before it left it.
func (k *Checker) Check(cmds ...Command) error {
	written, accum := k.written, k.accum
	n, openRow := k.n, k.openRow
	var err error
loop:
	for _, c := range cmds {
		i := n
		if c.ID != i {
			err = fmt.Errorf("pim: command %d has ID %d, want dense IDs", i, c.ID)
			break
		}
		switch c.Kind {
		case WRINP:
			if c.GBuf < 0 || c.GBuf >= len(written) {
				err = fmt.Errorf("pim: cmd %d WR-INP GBuf index %d out of range [0,%d)", i, c.GBuf, len(written))
				break loop
			}
			written[c.GBuf] = true
		case MAC:
			if c.GBuf < 0 || c.GBuf >= len(written) {
				err = fmt.Errorf("pim: cmd %d MAC GBuf index %d out of range", i, c.GBuf)
				break loop
			}
			if !written[c.GBuf] {
				err = fmt.Errorf("pim: cmd %d MAC reads GBuf %d before any WR-INP", i, c.GBuf)
				break loop
			}
			if c.Out < 0 || c.Out >= len(accum) {
				err = fmt.Errorf("pim: cmd %d MAC Out index %d out of range [0,%d)", i, c.Out, len(accum))
				break loop
			}
			if k.rows && openRow != c.Row {
				err = fmt.Errorf("pim: cmd %d MAC on row %d but open row is %d", i, c.Row, openRow)
				break loop
			}
			accum[c.Out] = true
		case RDOUT:
			if c.Out < 0 || c.Out >= len(accum) {
				err = fmt.Errorf("pim: cmd %d RD-OUT Out index %d out of range", i, c.Out)
				break loop
			}
			if !accum[c.Out] {
				err = fmt.Errorf("pim: cmd %d RD-OUT drains Out %d with no pending accumulation", i, c.Out)
				break loop
			}
			accum[c.Out] = false
		case ACT:
			if openRow != -1 {
				err = fmt.Errorf("pim: cmd %d ACT row %d while row %d is open", i, c.Row, openRow)
				break loop
			}
			openRow = c.Row
		case PRE:
			if openRow == -1 || openRow != c.Row {
				err = fmt.Errorf("pim: cmd %d PRE row %d but open row is %d", i, c.Row, openRow)
				break loop
			}
			openRow = -1
		default:
			err = fmt.Errorf("pim: cmd %d has unknown kind %d", i, c.Kind)
			break loop
		}
		n++
	}
	k.n, k.openRow = n, openRow
	return err
}

// None stands in for a closed row or a free buffer entry in appended
// state, so it never equals a relative row or key.
const None = math.MinInt64

// AppendState implements Periodic: the written and accumulated flags and
// the open row relative to rowBase.
func (k *Checker) AppendState(dst []int64, rowBase int) []int64 {
	dst = AppendFlags(AppendFlags(dst, k.written), k.accum)
	if k.openRow < 0 {
		return append(dst, None)
	}
	return append(dst, int64(k.openRow-rowBase))
}

// AppendCounters implements Periodic: the command count and the open row.
// When the states at the two ends of a span match, the open row moved
// exactly as far as the row base did (or stayed closed), so it advances
// like a counter.
func (k *Checker) AppendCounters(dst []int64) []int64 {
	return append(dst, int64(k.n), int64(k.openRow))
}

// Advance implements Periodic.
func (k *Checker) Advance(delta []int64, m int) {
	k.n += m * int(delta[0])
	k.openRow += m * int(delta[1])
}

// AppendFlags appends each flag to an appended state as 0 or 1.
func AppendFlags(dst []int64, flags []bool) []int64 {
	for _, f := range flags {
		v := int64(0)
		if f {
			v = 1
		}
		dst = append(dst, v)
	}
	return dst
}
