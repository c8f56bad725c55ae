// Package timing defines the device geometry and timing parameters of the
// GDDR6-AiM-like PIM module modelled throughout this repository.
//
// All timings are expressed in PIM command-clock cycles (1 cycle = 1 ns at
// the 1 GHz command clock assumed by the AiMX platform documents). The
// constants are calibrated so that the worked scheduling example of the
// paper's Fig. 7 reproduces exactly: the static controller finishes the
// (1x48)*(48x32) GEMV command stack in 34 cycles.
package timing

import "fmt"

// Cycles is a duration measured in PIM command-clock cycles.
type Cycles int64

// PicoJoules is an energy amount in pJ. Energy bookkeeping lives in
// internal/energy; the type is defined here so device configs can carry
// energy-relevant geometry without import cycles.
type PicoJoules float64

// Device describes one PIM module: its channel geometry, buffer sizes and
// command timings. The zero value is not usable; start from AiM16() or one of
// the Table IV presets and override fields as needed.
type Device struct {
	// Geometry.
	Channels    int // independently operating PIM channels per module
	Banks       int // DRAM banks per channel, MAC units operate bank-parallel
	TileBytes   int // bytes moved per WR-INP and consumed per MAC per bank
	GBufBytes   int // global input buffer per channel (shared by banks)
	OutRegBytes int // baseline per-bank output register bytes (static PIM)
	OBufBytes   int // expanded per-bank output buffer bytes (PIMphony DCS)
	RowBytes    int // DRAM row size per bank
	RowsPerBank int // rows per bank (capacity = Banks*RowsPerBank*RowBytes)
	ElemBytes   int // bytes per element (fp16 = 2)
	GPRBytes    int // HUB general-purpose register file capacity

	// Command timings (cycles).
	TCCDS       Cycles // minimum command-to-command interval on a pipelined bus
	TWRINP      Cycles // WR-INP completion: GBuf entry valid after this
	TMAC        Cycles // MAC completion: accumulate visible after this
	TRDOUT      Cycles // RD-OUT completion: OutReg/OBuf entry drained
	TOBufCommit Cycles // extra cycle for a MAC accumulate to commit before RD-OUT
	TRCD        Cycles // row activate (ACT) latency
	TRP         Cycles // row precharge (PRE) latency
	TRFC        Cycles // refresh cycle time
	TREFI       Cycles // average refresh interval

	// HUB / inter-channel costs (cycles).
	HubHopCycles      Cycles  // latency of one tile hop between a channel and the HUB GPR
	HubBytesPerCycle  float64 // aggregate HUB gather bandwidth across channel links
	EPUAddCycles      Cycles  // EPU vector add of one tile during reduction
	EPUSoftmaxBase    Cycles  // EPU softmax fixed cost per head
	EPUSoftmaxPerTile Cycles  // EPU softmax marginal cost per score tile

	// Module-external link (host or inter-module, CXL-like).
	LinkBytesPerCycle float64 // external link bandwidth
	LinkLatency       Cycles  // external link latency per message
}

// AiM16 returns the commercial-PIM-like module used for channel-level
// studies: 16 channels x 16 banks, 2 KB GBuf, 4 B baseline OutReg per bank.
func AiM16() Device {
	return Device{
		Channels:    16,
		Banks:       16,
		TileBytes:   32,
		GBufBytes:   2048,
		OutRegBytes: 4,
		OBufBytes:   64,
		RowBytes:    2048,
		RowsPerBank: 32768, // 16 banks * 32768 rows * 2 KB = 1 GiB per channel
		ElemBytes:   2,
		GPRBytes:    512 << 10,

		TCCDS:       2,
		TWRINP:      4,
		TMAC:        3,
		TRDOUT:      4,
		TOBufCommit: 1,
		TRCD:        14,
		TRP:         14,
		TRFC:        280,
		TREFI:       3900,

		HubHopCycles:      4,
		HubBytesPerCycle:  256,
		EPUAddCycles:      1,
		EPUSoftmaxBase:    64,
		EPUSoftmaxPerTile: 2,

		LinkBytesPerCycle: 64,
		LinkLatency:       500,
	}
}

// DDR5DIMM returns the commodity DIMM-PIM module of the L3/LoL-PIM-style
// DIMM-PIM backend: 8 rank-level PIM units ("channels") of 32 DDR5 banks
// each, a slower command interval than the GDDR6-AiM module (DDR5 bus
// rate), smaller 1 KB rows with the DDR5-class tRFC, and a narrower
// host link — but 64 GiB of capacity per DIMM, four times the AiM
// module. The per-rank MAC bandwidth matches AiM per channel
// (32 banks x 32 B / 4 cycles = 16 banks x 32 B / 2 cycles), so the
// DIMM trades internal bandwidth per gigabyte for capacity: the
// long-context roofline these systems are built around.
func DDR5DIMM() Device {
	d := AiM16()
	d.Channels = 8
	d.Banks = 32
	d.RowBytes = 1024
	d.TCCDS = 4
	d.TMAC = 4
	d.TRFC = 410
	d.LinkBytesPerCycle = 32
	return d.WithCapacity(64 << 30)
}

// Validate reports a descriptive error if the device configuration is
// internally inconsistent.
func (d Device) Validate() error {
	switch {
	case d.Channels <= 0:
		return fmt.Errorf("timing: Channels must be positive, got %d", d.Channels)
	case d.Banks <= 0:
		return fmt.Errorf("timing: Banks must be positive, got %d", d.Banks)
	case d.TileBytes <= 0:
		return fmt.Errorf("timing: TileBytes must be positive, got %d", d.TileBytes)
	case d.GBufBytes < d.TileBytes:
		return fmt.Errorf("timing: GBufBytes %d smaller than one tile (%d)", d.GBufBytes, d.TileBytes)
	case d.RowBytes < d.TileBytes:
		return fmt.Errorf("timing: RowBytes %d smaller than one tile (%d)", d.RowBytes, d.TileBytes)
	case d.ElemBytes <= 0:
		return fmt.Errorf("timing: ElemBytes must be positive, got %d", d.ElemBytes)
	case d.OutRegBytes < 2*d.ElemBytes:
		return fmt.Errorf("timing: OutRegBytes %d cannot hold one accumulator", d.OutRegBytes)
	case d.OBufBytes < d.ElemBytes:
		return fmt.Errorf("timing: OBufBytes %d cannot hold one accumulator of %d B", d.OBufBytes, d.ElemBytes)
	case d.TCCDS <= 0 || d.TWRINP <= 0 || d.TMAC <= 0 || d.TRDOUT <= 0:
		return fmt.Errorf("timing: command timings must be positive")
	case d.TREFI <= d.TRFC:
		return fmt.Errorf("timing: TREFI (%d) must exceed TRFC (%d)", d.TREFI, d.TRFC)
	}
	return nil
}

// ElemsPerTile is the number of elements carried by one 32 B tile.
func (d Device) ElemsPerTile() int { return d.TileBytes / d.ElemBytes }

// GBufEntries is the number of tile-sized entries in the Global Buffer.
func (d Device) GBufEntries() int { return d.GBufBytes / d.TileBytes }

// OutRegEntries is the number of accumulator entries per bank in the
// baseline output register file (each accumulator holds one element).
func (d Device) OutRegEntries() int { return d.OutRegBytes / d.ElemBytes }

// OBufEntries is the number of accumulator entries per bank in the expanded
// PIMphony output buffer.
func (d Device) OBufEntries() int { return d.OBufBytes / d.ElemBytes }

// TilesPerRow is the number of tiles stored in one DRAM row of one bank.
func (d Device) TilesPerRow() int { return d.RowBytes / d.TileBytes }

// ChannelBytes is the DRAM capacity of a single channel.
func (d Device) ChannelBytes() int64 {
	return int64(d.Banks) * int64(d.RowsPerBank) * int64(d.RowBytes)
}

// ModuleBytes is the DRAM capacity of the whole module.
func (d Device) ModuleBytes() int64 { return int64(d.Channels) * d.ChannelBytes() }

// RefreshOverhead is the fraction of time a channel is unavailable due to
// refresh, modelled analytically as TRFC/TREFI.
func (d Device) RefreshOverhead() float64 {
	return float64(d.TRFC) / float64(d.TREFI)
}

// StretchForRefresh inflates a latency by the refresh overhead and returns
// the inflated latency together with the cycles attributed to refresh.
func (d Device) StretchForRefresh(c Cycles) (total, ref Cycles) {
	ref = Cycles(float64(c) * d.RefreshOverhead())
	return c + ref, ref
}

// InternalBandwidth is the peak internal bandwidth of the module in bytes
// per cycle: every bank can consume one tile per TCCDS in steady state.
func (d Device) InternalBandwidth() float64 {
	return float64(d.Channels*d.Banks*d.TileBytes) / float64(d.TCCDS)
}

// WithChannels returns a copy of the device with a different channel count
// (capacity scales with it). Used to derive the Table IV 32-channel modules.
func (d Device) WithChannels(n int) Device {
	d.Channels = n
	return d
}

// WithCapacity returns a copy of the device resized (via RowsPerBank) so the
// module holds the requested number of bytes as closely as possible.
func (d Device) WithCapacity(bytes int64) Device {
	perRow := int64(d.Channels) * int64(d.Banks) * int64(d.RowBytes)
	rows := bytes / perRow
	if rows < 1 {
		rows = 1
	}
	d.RowsPerBank = int(rows)
	return d
}
