// Package energy models PIM module energy in the categories of the paper's
// Fig. 16: MAC computation, I/O transfers, runtime-dependent background
// power and everything else (activate/precharge/refresh and HUB logic).
//
// Absolute constants are order-of-magnitude values for a GDDR6-class PIM;
// the reproduced claim is relational — in the baseline, low MAC utilization
// stretches runtime so background energy dominates (71.5% of Attention
// energy in the paper), and PIMphony's runtime reduction collapses that
// share (to 13.0%).
package energy

import "pimphony/internal/timing"

// Model holds per-event energies and background power.
type Model struct {
	// MACpJ is the energy of one MAC command (all banks of a channel).
	MACpJ float64
	// IOpJPerByte is the energy per byte moved over the channel I/O path.
	IOpJPerByte float64
	// ActPrepJ is the energy of one activate+precharge pair (all banks).
	ActPrepJ float64
	// DRAMReadpJPerByte is the cell-array read energy per byte.
	DRAMReadpJPerByte float64
	// BackgroundWPerChannel is the standby power of one channel in watts.
	BackgroundWPerChannel float64
	// CyclesPerSecond converts cycles to seconds (1 GHz command clock).
	CyclesPerSecond float64
}

// Default returns GDDR6-AiM-scale constants.
func Default() Model {
	return Model{
		MACpJ:                 180,  // 16 banks x 16-element fp16 dot product
		IOpJPerByte:           4.0,  // on-module transfer to GBuf/GPR
		ActPrepJ:              900,  // row activate + precharge, all banks
		DRAMReadpJPerByte:     1.2,  // cell read + column access
		BackgroundWPerChannel: 0.11, // standby + peripheral per channel
		CyclesPerSecond:       1e9,
	}
}

// Breakdown is per-category energy in picojoules.
type Breakdown struct {
	MAC        float64
	IO         float64
	Background float64
	Else       float64 // ACT/PRE, refresh, cell reads, HUB logic
}

// Total sums all categories.
func (b Breakdown) Total() float64 { return b.MAC + b.IO + b.Background + b.Else }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.MAC += o.MAC
	b.IO += o.IO
	b.Background += o.Background
	b.Else += o.Else
}

// Scale multiplies all categories by f (e.g. per-layer to per-model).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{MAC: b.MAC * f, IO: b.IO * f, Background: b.Background * f, Else: b.Else * f}
}

// GridDollarsPerKWh is the electricity price the serving reports use
// to convert modeled device energy into operating dollars — an
// order-of-magnitude datacenter rate (grid power plus cooling
// overhead). The reproduced claims are relational (joules/token and
// cost/Mtok ratios between systems), not absolute tariffs.
const GridDollarsPerKWh = 0.14

// GridDollars converts joules of modeled energy to dollars at the
// GridDollarsPerKWh rate (1 kWh = 3.6e6 J).
func GridDollars(joules float64) float64 {
	return joules / 3.6e6 * GridDollarsPerKWh
}

// ForAggregate computes energy from pre-aggregated counts (the cluster
// simulator path, where stacks are not materialised per channel). The
// serving hot path prices every iteration through it, so it takes the
// model and the device by pointer rather than copying them per call.
func (m *Model) ForAggregate(dev *timing.Device, macs, ioBytes, actPre int64, busyChannels int, cycles timing.Cycles) Breakdown {
	seconds := float64(cycles) / m.CyclesPerSecond
	return Breakdown{
		MAC:        float64(macs) * m.MACpJ,
		IO:         float64(ioBytes) * m.IOpJPerByte,
		Background: m.BackgroundWPerChannel * seconds * 1e12 * float64(busyChannels),
		Else:       float64(actPre)*m.ActPrepJ + float64(macs)*float64(dev.TileBytes)*float64(dev.Banks)*m.DRAMReadpJPerByte,
	}
}
