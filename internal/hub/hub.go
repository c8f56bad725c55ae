// Package hub models the PIM HUB of Fig. 3(a) where the priced decode
// reads it: the Extra Processing Unit (EPU) folding the per-channel SV
// partial sums of token-centric partitioning into one head output.
//
// The package tests carry the EPU's functional model (score
// concatenation for QK^T, partial-sum reduction for SV) and check it
// against a float32 reference decoder, so the TCP aggregation path is
// numerically faithful.
package hub

import "pimphony/internal/timing"

// Hub is one module's HUB.
type Hub struct {
	dev timing.Device
}

// New creates a HUB for the device.
func New(dev timing.Device) *Hub {
	return &Hub{dev: dev}
}

// ReduceCycles is the cost of the TCP SV inter-channel reduction for one
// head: every participating channel ships dh worth of tiles to the GPR
// over the HUB's parallel gather links (bandwidth-limited, plus one hop of
// latency), and the EPU folds them with a pipelined tree of adds. The
// paper measures this below 0.2% of attention latency for LLM-7B at 16K.
func (h *Hub) ReduceCycles(channels, dh int) timing.Cycles {
	tiles := (dh + h.dev.ElemsPerTile() - 1) / h.dev.ElemsPerTile()
	bytes := float64(channels * tiles * h.dev.TileBytes)
	gather := timing.Cycles(bytes/h.dev.HubBytesPerCycle) + h.dev.HubHopCycles
	// Pipelined fold: (channels-1) adds deep, one tile per EPUAddCycles.
	add := timing.Cycles(channels-1+tiles) * h.dev.EPUAddCycles
	return gather + add
}
