package dispatch

import (
	"testing"

	"pimphony/internal/isa"
	"pimphony/internal/memory"
	"pimphony/internal/timing"
)

func dpaProgram(name string) *isa.Program {
	return &isa.Program{Name: name, Insts: []isa.Instruction{
		{Op: isa.WRINP, ChMask: isa.AllChannels(16), OpSize: 8},
		{Op: isa.DYNLOOP, Bound: isa.LoopBound{TokensPerIter: 256}, Body: []isa.Instruction{
			{Op: isa.DYNMODI, Target: 0, Field: isa.FieldRow, Stride: 1},
			{Op: isa.MAC, ChMask: isa.AllChannels(16), OpSize: 8},
			{Op: isa.RDOUT, ChMask: isa.AllChannels(16), OpSize: 1},
		}},
	}}
}

// staticProgram unrolls one MAC instruction per 256-token group.
func staticProgram(name string, tokens int) *isa.Program {
	p := &isa.Program{Name: name}
	for g := 0; g < (tokens+255)/256; g++ {
		p.Insts = append(p.Insts,
			isa.Instruction{Op: isa.MAC, ChMask: isa.AllChannels(16), OpSize: 8, Row: g},
			isa.Instruction{Op: isa.RDOUT, ChMask: isa.AllChannels(16), OpSize: 1})
	}
	return p
}

func TestLoadDPAProgramFits(t *testing.T) {
	d := New(timing.AiM16())
	if err := d.LoadProgram(dpaProgram("attn")); err != nil {
		t.Fatal(err)
	}
	if d.BufferUsed() != 5*isa.EncodedBytes {
		t.Errorf("buffer used = %d, want %d", d.BufferUsed(), 5*isa.EncodedBytes)
	}
}

func TestStaticProgramOverflowsAtLongContext(t *testing.T) {
	d := New(timing.AiM16())
	// Static unrolled program for 1M tokens: 2 insts per 256-token group
	// = 8192 insts * 16 B = 128 KiB... push context until overflow.
	if err := d.LoadProgram(staticProgram("short", 32<<10)); err != nil {
		t.Fatalf("32K static program should fit: %v", err)
	}
	if err := d.LoadProgram(staticProgram("long", 4<<20)); err == nil {
		t.Fatal("4M-token static program should overflow the instruction buffer")
	}
}

func TestUnloadFreesSpace(t *testing.T) {
	d := New(timing.AiM16())
	p := staticProgram("p", 32<<10)
	if err := d.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	used := d.BufferUsed()
	if err := d.UnloadProgram("p"); err != nil {
		t.Fatal(err)
	}
	if d.BufferUsed() != 0 {
		t.Errorf("buffer used after unload = %d (was %d)", d.BufferUsed(), used)
	}
	if err := d.UnloadProgram("p"); err == nil {
		t.Error("double unload should fail")
	}
}

func TestDuplicateLoadRejected(t *testing.T) {
	d := New(timing.AiM16())
	if err := d.LoadProgram(dpaProgram("a")); err != nil {
		t.Fatal(err)
	}
	if err := d.LoadProgram(dpaProgram("a")); err == nil {
		t.Fatal("duplicate program name should be rejected")
	}
}

func TestTokenProgressionWithoutHost(t *testing.T) {
	d := New(timing.AiM16())
	if err := d.LoadProgram(dpaProgram("attn")); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, 10000, "attn"); err != nil {
		t.Fatal(err)
	}
	msgs := d.HostMessages()
	for i := 0; i < 100; i++ {
		if err := d.AdvanceToken(1); err != nil {
			t.Fatal(err)
		}
	}
	if d.HostMessages() != msgs {
		t.Error("token progression must not message the host")
	}
	tc, err := d.TCur(1)
	if err != nil || tc != 10100 {
		t.Fatalf("TCur = %d, %v; want 10100", tc, err)
	}
}

func TestDecodeScalesWithTCur(t *testing.T) {
	d := New(timing.AiM16())
	if err := d.LoadProgram(dpaProgram("attn")); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, 1024, "attn"); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(2, 65536, "attn"); err != nil {
		t.Fatal(err)
	}
	r1, err := d.Decode(1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Decode(2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Commands <= r1.Commands {
		t.Errorf("longer context must decode into more commands: %d vs %d", r1.Commands, r2.Commands)
	}
	if r1.DecodeCycles != r2.DecodeCycles {
		t.Error("pipelined decode latency must be context-independent")
	}
	if r1.DecodeCycles <= 0 || r1.DecodeCycles > 16 {
		t.Errorf("decode pipeline fill %d cycles is implausible", r1.DecodeCycles)
	}
}

func TestRegisterValidation(t *testing.T) {
	d := New(timing.AiM16())
	if err := d.Register(1, 10, "missing"); err == nil {
		t.Error("registering against a missing program should fail")
	}
	if err := d.LoadProgram(dpaProgram("p")); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, -1, "p"); err == nil {
		t.Error("negative token length should fail")
	}
	if err := d.Register(1, 10, "p"); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, 10, "p"); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := d.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Release(1); err == nil {
		t.Error("double release should fail")
	}
	if err := d.AdvanceToken(42); err == nil {
		t.Error("advancing an unknown request should fail")
	}
	if _, err := d.TCur(42); err == nil {
		t.Error("TCur of unknown request should fail")
	}
	if _, err := d.Decode(42); err == nil {
		t.Error("decoding an unknown request should fail")
	}
}

func TestTranslateThroughVA2PA(t *testing.T) {
	dev := timing.AiM16()
	d := New(dev)
	alloc, err := memory.NewDPA(1<<30, 128<<10, memory.DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Admit(5, 24); err != nil { // 3 MiB = 3 chunks
		t.Fatal(err)
	}
	d.AttachVA2PA(alloc)
	rowBytes := dev.RowBytes // 2 KiB: 512 rows per chunk
	// Virtual row 600 lives in virtual chunk 1.
	prow, err := d.Translate(5, 600, rowBytes)
	if err != nil {
		t.Fatal(err)
	}
	chunks := alloc.Chunks(5)
	wantBase := int(chunks[1]) * (memory.DefaultChunkBytes / rowBytes)
	if prow != wantBase+600-512 {
		t.Errorf("translated row = %d, want %d", prow, wantBase+600-512)
	}
	// Without a table, translation is identity.
	d2 := New(dev)
	if r, err := d2.Translate(5, 600, rowBytes); err != nil || r != 600 {
		t.Errorf("identity translation broken: %d, %v", r, err)
	}
	// Beyond the mapped region the translation must fail.
	if _, err := d.Translate(5, 100000, rowBytes); err == nil {
		t.Error("translation beyond mapping should fail")
	}
}

// TestTranslateRejectsNegativeRow: a negative virtual row is an error
// with or without a VA2PA table. Through the table, a row just below
// zero used to resolve into the physically preceding chunk — here
// request 4's KV — with a nil error.
func TestTranslateRejectsNegativeRow(t *testing.T) {
	dev := timing.AiM16()
	alloc, err := memory.NewDPA(1<<30, 128<<10, memory.DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{4, 5} {
		if err := alloc.Admit(id, 8); err != nil { // one chunk each
			t.Fatal(err)
		}
	}
	d := New(dev)
	d.AttachVA2PA(alloc)
	for _, vrow := range []int{-1, -2} {
		if row, err := d.Translate(5, vrow, dev.RowBytes); err == nil {
			t.Errorf("Translate(5, %d) = row %d, want an error", vrow, row)
		}
	}
	if row, err := New(dev).Translate(5, -1, dev.RowBytes); err == nil {
		t.Errorf("identity Translate(5, -1) = row %d, want an error", row)
	}
}
