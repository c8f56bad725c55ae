package energy

import (
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/sched"
	"pimphony/internal/timing"
)

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{MAC: 1, IO: 2, Background: 3, Else: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %f", b.Total())
	}
	b.Add(Breakdown{MAC: 1})
	if b.MAC != 2 {
		t.Fatal("Add broken")
	}
	s := b.Scale(2)
	if s.IO != 4 || s.Else != 8 {
		t.Fatal("Scale broken")
	}
}

// stackEnergy prices one channel's command stack under its schedule
// through ForAggregate: dynamic energy follows the stack's command
// counts, background energy the schedule's wall-clock.
func stackEnergy(m Model, dev timing.Device, s *pim.Stack, res *sched.Result) Breakdown {
	c := s.Counts()
	ioBytes := int64(c[pim.WRINP]+c[pim.RDOUT]) * int64(dev.TileBytes)
	return m.ForAggregate(&dev, int64(c[pim.MAC]), ioBytes, int64(c[pim.ACT]), 1, res.Total)
}

// TestBackgroundShareCollapsesWithDCS reproduces the Fig. 16 mechanism:
// the static schedule's long runtime makes background energy a large share;
// DCS shrinks runtime, so the share collapses while dynamic energy stays
// identical (same command counts).
func TestBackgroundShareCollapsesWithDCS(t *testing.T) {
	dev := timing.AiM16()
	m := Default()
	cfg := kernels.NewConfig(dev, kernels.BaselineBuffers(dev))
	stack, err := cfg.SV(4096, 128, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := (&sched.Static{Dev: dev}).Schedule(stack)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := kernels.NewConfig(dev, kernels.OBufBuffers(dev))
	stack2, err := cfg2.SV(4096, 128, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := (&sched.DCS{Dev: dev}).Schedule(stack2)
	if err != nil {
		t.Fatal(err)
	}
	eStatic := stackEnergy(m, dev, stack, st)
	eDCS := stackEnergy(m, dev, stack2, dc)
	shareStatic, shareDCS := eStatic.Background/eStatic.Total(), eDCS.Background/eDCS.Total()
	if shareDCS >= shareStatic {
		t.Errorf("background share should collapse: static %.2f dcs %.2f", shareStatic, shareDCS)
	}
	if eDCS.MAC != eStatic.MAC {
		t.Errorf("MAC energy must be schedule-invariant: %f vs %f", eStatic.MAC, eDCS.MAC)
	}
	if eDCS.Total() >= eStatic.Total() {
		t.Error("total energy should drop with the shorter schedule")
	}
}

func TestForAggregateConsistency(t *testing.T) {
	dev := timing.AiM16()
	m := Default()
	b := m.ForAggregate(&dev, 1000, 32000, 10, 16, 100000)
	if b.MAC != 1000*m.MACpJ {
		t.Errorf("MAC energy = %f", b.MAC)
	}
	if b.IO != 32000*m.IOpJPerByte {
		t.Errorf("IO energy = %f", b.IO)
	}
	wantBg := m.BackgroundWPerChannel * 100e-6 * 1e12 * 16
	if diff := b.Background - wantBg; diff > 1 || diff < -1 {
		t.Errorf("background = %f, want %f", b.Background, wantBg)
	}
	if b.Else <= 0 {
		t.Error("else category must include ACT/PRE and cell reads")
	}
}

func TestLongerRuntimeCostsMoreBackground(t *testing.T) {
	dev := timing.AiM16()
	m := Default()
	short := m.ForAggregate(&dev, 100, 100, 1, 16, 1000)
	long := m.ForAggregate(&dev, 100, 100, 1, 16, 100000)
	if long.Background <= short.Background {
		t.Error("background energy must scale with runtime")
	}
	if long.MAC != short.MAC {
		t.Error("dynamic energy must not depend on runtime")
	}
}
