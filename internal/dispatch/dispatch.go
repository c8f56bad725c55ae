// Package dispatch models PIMphony's on-module instruction dispatcher
// (Sec. VI-C, Fig. 11a): an instruction buffer holding compact DPA-encoded
// programs, a configuration buffer with per-request state (request ID and
// current token length), and pipelined decode that resolves Dyn-Loop bounds
// and virtual addresses against a VA2PA table before staging instructions
// for the sequencer.
//
// The dispatcher also exposes the failure mode it was designed to avoid:
// loading a conventional statically-unrolled program whose footprint grows
// with context length overflows the instruction buffer (Fig. 10c).
package dispatch

import (
	"fmt"

	"pimphony/internal/isa"
	"pimphony/internal/memory"
	"pimphony/internal/timing"
)

// RequestState is one entry of the dispatcher's configuration buffer.
type RequestState struct {
	ID      int
	TCur    int // current token length, incremented locally per decode step
	Program string
}

// Dispatcher is the per-module dispatch unit.
type Dispatcher struct {
	dev      timing.Device
	programs map[string]*isa.Program
	bufUsed  int64
	requests map[int]*RequestState
	va2pa    *memory.DPA // optional; nil disables translation
	// hostMsgs counts host->module management messages (program loads,
	// request registration/release). Token progression is host-free.
	hostMsgs int
}

// New creates a dispatcher for the device's instruction-buffer capacity.
func New(dev timing.Device) *Dispatcher {
	return &Dispatcher{
		dev:      dev,
		programs: make(map[string]*isa.Program),
		requests: make(map[int]*RequestState),
	}
}

// AttachVA2PA wires a DPA allocator as the translation table.
func (d *Dispatcher) AttachVA2PA(a *memory.DPA) { d.va2pa = a }

// BufferCapacity is the instruction buffer size in bytes.
func (d *Dispatcher) BufferCapacity() int64 { return int64(d.dev.InstrBufKB) << 10 }

// BufferUsed is the currently loaded program footprint in bytes.
func (d *Dispatcher) BufferUsed() int64 { return d.bufUsed }

// LoadProgram stages a program into the instruction buffer; it fails when
// the encoded footprint would overflow the buffer — the scalability wall
// static unrolled programs hit at long context.
func (d *Dispatcher) LoadProgram(p *isa.Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	if _, dup := d.programs[p.Name]; dup {
		return fmt.Errorf("dispatch: program %q already loaded", p.Name)
	}
	size := p.EncodedSize()
	if d.bufUsed+size > d.BufferCapacity() {
		return fmt.Errorf("dispatch: program %q (%d B) overflows instruction buffer (%d of %d B used)",
			p.Name, size, d.bufUsed, d.BufferCapacity())
	}
	d.programs[p.Name] = p
	d.bufUsed += size
	d.hostMsgs++
	return nil
}

// UnloadProgram frees a program's buffer space.
func (d *Dispatcher) UnloadProgram(name string) error {
	p, ok := d.programs[name]
	if !ok {
		return fmt.Errorf("dispatch: program %q not loaded", name)
	}
	d.bufUsed -= p.EncodedSize()
	delete(d.programs, name)
	return nil
}

// Register adds a request to the configuration buffer with its initial
// token length (one host message; afterwards the dispatcher maintains token
// progression autonomously).
func (d *Dispatcher) Register(reqID, tcur int, program string) error {
	if _, ok := d.programs[program]; !ok {
		return fmt.Errorf("dispatch: program %q not loaded", program)
	}
	if _, dup := d.requests[reqID]; dup {
		return fmt.Errorf("dispatch: request %d already registered", reqID)
	}
	if tcur < 0 {
		return fmt.Errorf("dispatch: negative token length %d", tcur)
	}
	d.requests[reqID] = &RequestState{ID: reqID, TCur: tcur, Program: program}
	d.hostMsgs++
	return nil
}

// Release removes a completed request (one host message).
func (d *Dispatcher) Release(reqID int) error {
	if _, ok := d.requests[reqID]; !ok {
		return fmt.Errorf("dispatch: request %d not registered", reqID)
	}
	delete(d.requests, reqID)
	d.hostMsgs++
	return nil
}

// AdvanceToken increments a request's token length after a generation step.
// No host communication is involved.
func (d *Dispatcher) AdvanceToken(reqID int) error {
	st, ok := d.requests[reqID]
	if !ok {
		return fmt.Errorf("dispatch: request %d not registered", reqID)
	}
	st.TCur++
	return nil
}

// TCur reports the dispatcher-maintained token length.
func (d *Dispatcher) TCur(reqID int) (int, error) {
	st, ok := d.requests[reqID]
	if !ok {
		return 0, fmt.Errorf("dispatch: request %d not registered", reqID)
	}
	return st.TCur, nil
}

// HostMessages counts host<->module messages so far.
func (d *Dispatcher) HostMessages() int { return d.hostMsgs }

// DecodeResult summarises one dispatch of a program for a request.
type DecodeResult struct {
	Commands     int64         // channel commands produced
	DecodeCycles timing.Cycles // pipeline-fill latency visible to execution
}

// Decode resolves a request's program against its current token length:
// Dyn-Loop bounds are computed from TCur and rows are translated through
// the VA2PA table. Decode is pipelined with execution, so only the pipeline
// fill (a handful of cycles) is exposed on the critical path.
func (d *Dispatcher) Decode(reqID int) (*DecodeResult, error) {
	st, ok := d.requests[reqID]
	if !ok {
		return nil, fmt.Errorf("dispatch: request %d not registered", reqID)
	}
	p := d.programs[st.Program]
	counts, err := p.CountExpanded(st.TCur)
	if err != nil {
		return nil, fmt.Errorf("dispatch: decoding %q for request %d: %w", st.Program, reqID, err)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	// Pipelined decode: a 4-stage fetch/resolve/translate/stage pipeline.
	const decodePipelineDepth = 4
	return &DecodeResult{Commands: total, DecodeCycles: decodePipelineDepth}, nil
}

// Translate resolves a virtual row index of a request to a physical row via
// the attached VA2PA table, mirroring Fig. 11a's per-request resolution.
// A negative virtual row is an error, with or without a table.
func (d *Dispatcher) Translate(reqID, vrow, rowBytes int) (int, error) {
	if vrow < 0 {
		return 0, fmt.Errorf("dispatch: request %d virtual row %d is negative", reqID, vrow)
	}
	if d.va2pa == nil {
		return vrow, nil
	}
	pa, err := d.va2pa.Translate(reqID, int64(vrow)*int64(rowBytes))
	if err != nil {
		return 0, fmt.Errorf("dispatch: %w", err)
	}
	return int(pa / int64(rowBytes)), nil
}
