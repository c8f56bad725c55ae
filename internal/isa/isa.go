// Package isa defines the module-level PIM instruction set of the paper's
// Table III (WR-INP / MAC / RD-OUT with Ch-mask, Op-size and GPR-addr
// arguments) together with PIMphony's Dynamic PIM Access (DPA) extension:
// Dyn-Loop, whose bound is resolved from the request's current token length
// at decode time, and Dyn-Modi, which strides operand fields of a body
// instruction each iteration so one compact loop addresses the whole,
// possibly non-contiguous, KV cache.
//
// The Instruction Sequencer expands instructions by unrolling Op-size
// repetitions into channel commands; the on-module dispatcher (Fig. 11a)
// resolves DPA loops and virtual addresses before sequencing.
package isa

import (
	"fmt"
)

// Op enumerates instruction opcodes.
type Op uint8

const (
	// WRINP copies Op-size input tiles from the GPR into GBuf entries.
	WRINP Op = iota
	// MAC performs Op-size dot-product commands on DRAM rows.
	MAC
	// RDOUT copies Op-size output tiles from OutRegs to the GPR.
	RDOUT
	// DYNLOOP introduces a loop whose bound depends on the current token
	// length (DPA).
	DYNLOOP
	// DYNMODI adjusts an operand field of a body instruction by a stride
	// every loop iteration (DPA).
	DYNMODI
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case WRINP:
		return "WR-INP"
	case MAC:
		return "MAC"
	case RDOUT:
		return "RD-OUT"
	case DYNLOOP:
		return "Dyn-Loop"
	case DYNMODI:
		return "Dyn-Modi"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Field names an operand field a Dyn-Modi instruction can stride.
type Field uint8

const (
	// FieldRow strides the DRAM row operand.
	FieldRow Field = iota
	// FieldCol strides the DRAM column operand.
	FieldCol
	// FieldGBuf strides the GBuf index operand.
	FieldGBuf
	// FieldOut strides the OutReg index operand.
	FieldOut
	// FieldGPR strides the GPR address operand.
	FieldGPR
)

// String implements fmt.Stringer.
func (f Field) String() string {
	switch f {
	case FieldRow:
		return "row"
	case FieldCol:
		return "col"
	case FieldGBuf:
		return "gbuf"
	case FieldOut:
		return "out"
	case FieldGPR:
		return "gpr"
	default:
		return fmt.Sprintf("Field(%d)", uint8(f))
	}
}

// EncodedBytes is the fixed binary size of one instruction word. AiMX-class
// hosts ship 128-bit instruction words; DPA instructions reuse the format.
const EncodedBytes = 16

// LoopBound describes how a Dyn-Loop bound is computed at dispatch time:
// bound = ceil(TCur / TokensPerIter) (+ Extra). A zero TokensPerIter makes
// the bound the constant Extra.
type LoopBound struct {
	TokensPerIter int
	Extra         int
}

// Resolve computes the concrete iteration count for a token length.
func (b LoopBound) Resolve(tcur int) int {
	n := b.Extra
	if b.TokensPerIter > 0 {
		n += (tcur + b.TokensPerIter - 1) / b.TokensPerIter
	}
	return n
}

// Instruction is one module-level PIM instruction.
type Instruction struct {
	Op     Op
	ChMask uint32 // target channel bitmask
	OpSize int    // sequencer repetition count
	GPR    int    // GPR base address (WR-INP / RD-OUT)
	GBuf   int    // GBuf base index
	Out    int    // OutReg base index
	Row    int    // DRAM row (virtual under DPA)
	Col    int    // DRAM column

	// DPA-only fields.
	Bound  LoopBound     // DYNLOOP iteration bound
	Body   []Instruction // DYNLOOP body
	Target int           // DYNMODI: body-instruction index to modify
	Field  Field         // DYNMODI: operand field
	Stride int           // DYNMODI: per-iteration increment
}

// Program is a module-level instruction sequence plus a human label.
type Program struct {
	Name  string
	Insts []Instruction
}

// Validate checks structural invariants: positive op sizes, non-empty
// channel masks, loop bodies present and Dyn-Modi targets in range.
func (p *Program) Validate() error {
	return validateInsts(p.Insts, 0)
}

func validateInsts(insts []Instruction, depth int) error {
	if depth > 4 {
		return fmt.Errorf("isa: loop nesting deeper than 4")
	}
	for i, in := range insts {
		switch in.Op {
		case WRINP, MAC, RDOUT:
			if in.OpSize <= 0 {
				return fmt.Errorf("isa: inst %d (%s) has non-positive Op-size %d", i, in.Op, in.OpSize)
			}
			if in.ChMask == 0 {
				return fmt.Errorf("isa: inst %d (%s) targets no channels", i, in.Op)
			}
		case DYNLOOP:
			if len(in.Body) == 0 {
				return fmt.Errorf("isa: inst %d Dyn-Loop has empty body", i)
			}
			if in.Bound.TokensPerIter < 0 || in.Bound.Extra < 0 {
				return fmt.Errorf("isa: inst %d Dyn-Loop has negative bound parts", i)
			}
			if err := validateInsts(in.Body, depth+1); err != nil {
				return err
			}
		case DYNMODI:
			if depth == 0 {
				return fmt.Errorf("isa: inst %d Dyn-Modi outside a Dyn-Loop body", i)
			}
			if in.Target < 0 {
				return fmt.Errorf("isa: inst %d Dyn-Modi has negative target", i)
			}
		default:
			return fmt.Errorf("isa: inst %d has unknown op %d", i, in.Op)
		}
	}
	return nil
}

// Len counts instruction words, recursing into loop bodies (the footprint
// unit of Fig. 10c).
func (p *Program) Len() int { return countInsts(p.Insts) }

func countInsts(insts []Instruction) int {
	n := 0
	for _, in := range insts {
		n++
		n += countInsts(in.Body)
	}
	return n
}

// EncodedSize is the binary footprint of the program in bytes.
func (p *Program) EncodedSize() int64 { return int64(p.Len()) * EncodedBytes }

// ---------------------------------------------------------------------------
// Instruction Sequencer
// ---------------------------------------------------------------------------

// ChannelCommand is one decoded channel-level command (the sequencer's
// output granularity; the channel simulator consumes richer pim.Command
// stacks built by the kernel builders — this type exists to audit command
// counts and address streams).
type ChannelCommand struct {
	Op      Op
	Channel int
	GBuf    int
	Out     int
	Row     int
	Col     int
	GPR     int
}

// Expand unrolls the program into channel commands for the given token
// length. Dyn-Loop bounds resolve against tcur; Dyn-Modi instructions in a
// body's prefix stride their target's operands each iteration. The translate
// hook (may be nil) maps virtual rows to physical rows, mirroring the
// dispatcher's VA2PA resolution.
func (p *Program) Expand(tcur int, translate func(row int) int) ([]ChannelCommand, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if translate == nil {
		translate = func(r int) int { return r }
	}
	var out []ChannelCommand
	if err := expandInto(p.Insts, tcur, translate, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CountExpanded returns per-op counts of the expansion without
// materialising commands (fast path for footprint/throughput audits).
func (p *Program) CountExpanded(tcur int) (map[Op]int64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	counts := make(map[Op]int64, 3)
	countInto(p.Insts, tcur, counts)
	return counts, nil
}

func countInto(insts []Instruction, tcur int, counts map[Op]int64) {
	for _, in := range insts {
		switch in.Op {
		case WRINP, MAC, RDOUT:
			counts[in.Op] += int64(in.OpSize) * int64(popcount(in.ChMask))
		case DYNLOOP:
			iters := int64(in.Bound.Resolve(tcur))
			sub := make(map[Op]int64, 3)
			countInto(in.Body, tcur, sub)
			for op, n := range sub {
				counts[op] += n * iters
			}
		}
	}
}

func expandInto(insts []Instruction, tcur int, translate func(int) int, out *[]ChannelCommand) error {
	for _, in := range insts {
		switch in.Op {
		case WRINP, MAC, RDOUT:
			emit(in, translate, out)
		case DYNLOOP:
			iters := in.Bound.Resolve(tcur)
			// Split the body into Dyn-Modi prefix and payload.
			var modis []Instruction
			var payload []Instruction
			for _, b := range in.Body {
				if b.Op == DYNMODI {
					modis = append(modis, b)
				} else {
					payload = append(payload, b)
				}
			}
			// Work on a copy so the loop can stride operands.
			body := make([]Instruction, len(payload))
			copy(body, payload)
			for it := 0; it < iters; it++ {
				if err := expandInto(body, tcur, translate, out); err != nil {
					return err
				}
				for _, m := range modis {
					if m.Target < 0 || m.Target >= len(body) {
						return fmt.Errorf("isa: Dyn-Modi target %d out of body range %d", m.Target, len(body))
					}
					applyStride(&body[m.Target], m.Field, m.Stride)
				}
			}
		case DYNMODI:
			return fmt.Errorf("isa: stray Dyn-Modi during expansion")
		}
	}
	return nil
}

func emit(in Instruction, translate func(int) int, out *[]ChannelCommand) {
	for ch := 0; ch < 32; ch++ {
		if in.ChMask&(1<<uint(ch)) == 0 {
			continue
		}
		for r := 0; r < in.OpSize; r++ {
			c := ChannelCommand{Op: in.Op, Channel: ch, GPR: in.GPR + r, Row: in.Row, Col: in.Col + r}
			switch in.Op {
			case WRINP:
				c.GBuf = in.GBuf + r
				c.Row, c.Col = -1, -1
			case MAC:
				c.GBuf = in.GBuf + r
				c.Out = in.Out
				c.Row = translate(in.Row)
			case RDOUT:
				c.Out = in.Out + r
				c.Row, c.Col = -1, -1
			}
			*out = append(*out, c)
		}
	}
}

func applyStride(in *Instruction, f Field, stride int) {
	switch f {
	case FieldRow:
		in.Row += stride
	case FieldCol:
		in.Col += stride
	case FieldGBuf:
		in.GBuf += stride
	case FieldOut:
		in.Out += stride
	case FieldGPR:
		in.GPR += stride
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// AllChannels returns a channel mask selecting channels [0, n).
func AllChannels(n int) uint32 {
	if n >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(n)) - 1
}
