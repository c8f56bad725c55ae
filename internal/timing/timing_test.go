package timing

import (
	"testing"
	"testing/quick"
)

func TestAiM16Validates(t *testing.T) {
	if err := AiM16().Validate(); err != nil {
		t.Fatalf("AiM16 should validate: %v", err)
	}
}

func TestDerivedGeometry(t *testing.T) {
	d := AiM16()
	if got := d.ElemsPerTile(); got != 16 {
		t.Errorf("ElemsPerTile = %d, want 16", got)
	}
	if got := d.GBufEntries(); got != 64 {
		t.Errorf("GBufEntries = %d, want 64", got)
	}
	if got := d.OutRegEntries(); got != 2 {
		t.Errorf("OutRegEntries = %d, want 2 (4 B / fp16)", got)
	}
	if got := d.OBufEntries(); got != 32 {
		t.Errorf("OBufEntries = %d, want 32", got)
	}
	if got := d.TilesPerRow(); got != 64 {
		t.Errorf("TilesPerRow = %d, want 64", got)
	}
	if got := d.ChannelBytes(); got != 1<<30 {
		t.Errorf("ChannelBytes = %d, want 1 GiB", got)
	}
	if got := d.ModuleBytes(); got != 16<<30 {
		t.Errorf("ModuleBytes = %d, want 16 GiB", got)
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Device)
	}{
		{"zero channels", func(d *Device) { d.Channels = 0 }},
		{"zero banks", func(d *Device) { d.Banks = 0 }},
		{"zero tile", func(d *Device) { d.TileBytes = 0 }},
		{"tiny gbuf", func(d *Device) { d.GBufBytes = 8 }},
		{"tiny row", func(d *Device) { d.RowBytes = 8 }},
		{"zero elem", func(d *Device) { d.ElemBytes = 0 }},
		{"tiny outreg", func(d *Device) { d.OutRegBytes = 1 }},
		{"zero obuf", func(d *Device) { d.OBufBytes = 0 }},
		{"obuf below one element", func(d *Device) { d.OBufBytes = d.ElemBytes - 1 }},
		{"zero tccds", func(d *Device) { d.TCCDS = 0 }},
		{"refresh interval", func(d *Device) { d.TREFI = d.TRFC }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := AiM16()
			tc.mutate(&d)
			if err := d.Validate(); err == nil {
				t.Fatalf("expected validation error for %s", tc.name)
			}
		})
	}
}

func TestRefreshOverhead(t *testing.T) {
	d := AiM16()
	ov := d.RefreshOverhead()
	if ov <= 0 || ov >= 0.2 {
		t.Fatalf("refresh overhead %f outside plausible (0, 0.2) band", ov)
	}
	total, ref := d.StretchForRefresh(1000)
	if total != 1000+ref {
		t.Fatalf("StretchForRefresh inconsistent: total=%d ref=%d", total, ref)
	}
	if ref <= 0 {
		t.Fatalf("refresh share should be positive, got %d", ref)
	}
}

func TestWithCapacityRoundTrip(t *testing.T) {
	d := AiM16()
	for _, gib := range []int64{1, 4, 16, 32} {
		want := gib << 30
		got := d.WithCapacity(want).ModuleBytes()
		if got != want {
			t.Errorf("WithCapacity(%d GiB) -> %d bytes", gib, got)
		}
	}
}

// Property: StretchForRefresh is monotone and never shrinks a latency.
func TestStretchMonotoneProperty(t *testing.T) {
	d := AiM16()
	f := func(raw uint32) bool {
		c := Cycles(raw % (1 << 28))
		total, ref := d.StretchForRefresh(c)
		return total >= c && ref >= 0 && total == c+ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WithChannels scales module capacity linearly.
func TestWithChannelsScalesCapacity(t *testing.T) {
	d := AiM16()
	f := func(raw uint8) bool {
		n := int(raw%63) + 1
		return d.WithChannels(n).ModuleBytes() == int64(n)*d.ChannelBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInternalBandwidthPlausible(t *testing.T) {
	d := AiM16()
	// 16 ch * 16 banks * 32 B / 2 cycles = 4096 B/cycle = 4 TB/s at 1 GHz.
	if got := d.InternalBandwidth(); got != 4096 {
		t.Fatalf("InternalBandwidth = %f, want 4096 B/cycle", got)
	}
}

// TestDDR5DIMM pins the DIMM-PIM module geometry: a valid device with
// 64 GiB capacity and the same per-rank MAC bandwidth as an AiM channel
// (the DIMM trades bandwidth per gigabyte for capacity, not per rank).
func TestDDR5DIMM(t *testing.T) {
	d := DDR5DIMM()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.ModuleBytes(); got < 63<<30 || got > 64<<30 {
		t.Errorf("DIMM capacity %d, want ~64 GiB", got)
	}
	a := AiM16()
	perRankDIMM := float64(d.Banks*d.TileBytes) / float64(d.TCCDS)
	perChanAiM := float64(a.Banks*a.TileBytes) / float64(a.TCCDS)
	if perRankDIMM != perChanAiM {
		t.Errorf("per-rank bandwidth %g, want AiM per-channel %g", perRankDIMM, perChanAiM)
	}
	// Internally the DIMM is slower per module: fewer ranks than a
	// 32-channel AiM module has channels.
	if d.InternalBandwidth() >= a.WithChannels(32).InternalBandwidth() {
		t.Error("DIMM internal bandwidth should trail the GDDR6 module")
	}
	if d.ChannelBytes()*int64(d.Channels) != d.ModuleBytes() {
		t.Error("capacity bookkeeping inconsistent")
	}
}
