// Package hub models the PIM HUB of Fig. 3(a) where the priced decode
// reads it: the Extra Processing Unit (EPU) folding the per-channel SV
// partial sums of token-centric partitioning into one head output. The
// cost is a pure function of the device, ReduceCycles; the backend
// stepper resolves it once per system and the abl-tcp ablation sweeps
// it over the gather bandwidth.
//
// The package tests carry the EPU's functional model (score
// concatenation for QK^T, partial-sum reduction for SV) and check it
// against a float32 reference decoder, so the TCP aggregation path is
// numerically faithful.
package hub

import "pimphony/internal/timing"

// ReduceCycles is the cost of the TCP SV inter-channel reduction for one
// head on dev: every participating channel ships dh worth of tiles to
// the GPR over the HUB's parallel gather links (bandwidth-limited, plus
// one hop of latency), and the EPU folds them with a pipelined tree of
// adds. QK^T needs no counterpart: its per-channel scores are merely
// concatenated during the EPU softmax. The paper measures the reduction
// below 0.2% of attention latency for LLM-7B at 16K.
func ReduceCycles(dev timing.Device, channels, dh int) timing.Cycles {
	tiles := (dh + dev.ElemsPerTile() - 1) / dev.ElemsPerTile()
	bytes := float64(channels * tiles * dev.TileBytes)
	gather := timing.Cycles(bytes/dev.HubBytesPerCycle) + dev.HubHopCycles
	// Pipelined fold: (channels-1) adds deep, one tile per EPUAddCycles.
	add := timing.Cycles(channels-1+tiles) * dev.EPUAddCycles
	return gather + add
}
