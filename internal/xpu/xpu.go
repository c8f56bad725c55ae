// Package xpu provides roofline models for the non-PIM compute devices in
// the evaluated systems: the NeuPIMs NPU (dense GEMM engine), the CENT PNM
// unit (near-memory FC compute), and the A100 GPU baseline with
// flash-decoding and paged-attention (Fig. 20).
//
// A roofline device executes an operation in max(compute time, memory time)
// seconds; that is the right fidelity for the paper's comparisons, which
// hinge on bandwidth-boundedness, not microarchitecture.
package xpu

// Device is a roofline compute device.
type Device struct {
	Name string
	// TFLOPS is peak fp16 throughput in tera-FLOPs/second.
	TFLOPS float64
	// MemGBs is the sustained memory bandwidth in GB/s for operand reads.
	MemGBs float64
	// MemBytes is the device memory capacity.
	MemBytes int64
	// ComputeEff and MemEff derate the peaks to achievable fractions.
	ComputeEff, MemEff float64
}

// OpTime returns the execution time in seconds of an operation with the
// given FLOPs and memory traffic.
func (d Device) OpTime(flops, bytes int64) float64 {
	ct := float64(flops) / (d.TFLOPS * 1e12 * d.ComputeEff)
	mt := float64(bytes) / (d.MemGBs * 1e9 * d.MemEff)
	if ct > mt {
		return ct
	}
	return mt
}

// NeuPIMsNPU is the Table IV NPU: 8 matrix units totalling 256 TFLOPS,
// reading weights out of the PIM module's DRAM at its internal bandwidth.
func NeuPIMsNPU(internalGBs float64) Device {
	return Device{Name: "neupims-npu", TFLOPS: 256, MemGBs: internalGBs, MemBytes: 0, ComputeEff: 0.8, MemEff: 0.8}
}

// CENTPNM is the Table IV CENT per-module near-memory processor: 3 TFLOPS
// with the module's internal bandwidth.
func CENTPNM(internalGBs float64) Device {
	return Device{Name: "cent-pnm", TFLOPS: 3, MemGBs: internalGBs, MemBytes: 0, ComputeEff: 0.8, MemEff: 0.8}
}

// DIMMHostGPU is the host-side dense engine of the DIMM-PIM (L3-style)
// organisation: an A100-class GPU that keeps the full weights resident
// in its own HBM and runs the batched FC GEMMs there, while attention is
// offloaded to the DIMM-PIM pool. Distinct from A100(): no
// flash-decoding/paged-attention software stack applies because the GPU
// never touches the KV cache.
func DIMMHostGPU() Device {
	return Device{Name: "dimm-host-gpu", TFLOPS: 312, MemGBs: 2039, MemBytes: 80 << 30, ComputeEff: 0.7, MemEff: 0.8}
}

// ---------------------------------------------------------------------------
// GPU baseline (A100 + flash-decoding + paged-attention)
// ---------------------------------------------------------------------------

// GPU is the A100-80GB baseline of Fig. 20 with the two software
// optimizations the paper grants it.
type GPU struct {
	Device
	// FlashDecodingEff is the fraction of peak bandwidth flash-decoding
	// achieves on KV-cache streaming.
	FlashDecodingEff float64
	// PagedAttentionEff is the effective capacity fraction usable for KV
	// cache under paged-attention (fragmentation-free paging).
	PagedAttentionEff float64
}

// A100 returns the baseline used in Fig. 20.
func A100() GPU {
	return GPU{
		Device: Device{
			Name:       "a100-80g",
			TFLOPS:     312,
			MemGBs:     2039,
			MemBytes:   80 << 30,
			ComputeEff: 0.7,
			MemEff:     0.8,
		},
		FlashDecodingEff:  0.85,
		PagedAttentionEff: 0.90,
	}
}

// AttentionTime is the decode attention time in seconds for the given KV
// traffic: flash-decoding keeps GEMV streaming near peak bandwidth.
func (g GPU) AttentionTime(kvBytes int64) float64 {
	return float64(kvBytes) / (g.MemGBs * 1e9 * g.MemEff * g.FlashDecodingEff)
}
