package xpu

import (
	"fmt"
	"testing"
	"testing/quick"
)

// validate reports configuration errors.
func validate(d Device) error {
	switch {
	case d.TFLOPS <= 0 || d.MemGBs <= 0:
		return fmt.Errorf("xpu %s: rooflines must be positive", d.Name)
	case d.ComputeEff <= 0 || d.ComputeEff > 1 || d.MemEff <= 0 || d.MemEff > 1:
		return fmt.Errorf("xpu %s: efficiencies must be in (0,1]", d.Name)
	}
	return nil
}

func TestDevicesValidate(t *testing.T) {
	for _, d := range []Device{NeuPIMsNPU(32000), CENTPNM(16000), A100().Device} {
		if err := validate(d); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
	bad := Device{Name: "bad", TFLOPS: 0, MemGBs: 1, ComputeEff: 1, MemEff: 1}
	if err := validate(bad); err == nil {
		t.Error("zero TFLOPS should fail")
	}
	bad2 := Device{Name: "bad2", TFLOPS: 1, MemGBs: 1, ComputeEff: 2, MemEff: 1}
	if err := validate(bad2); err == nil {
		t.Error("efficiency > 1 should fail")
	}
}

func TestRooflineRegimes(t *testing.T) {
	d := Device{Name: "t", TFLOPS: 100, MemGBs: 1000, ComputeEff: 1, MemEff: 1}
	// OpTime equals the binding roof.
	if got, want := d.OpTime(1e9, 0), 1e9/1e14; got != want {
		t.Errorf("compute-bound OpTime = %g, want %g", got, want)
	}
	if got, want := d.OpTime(0, 1e12), 1e12/1e12; got != want {
		t.Errorf("memory-bound OpTime = %g, want %g", got, want)
	}
}

// Property: OpTime is monotone in both flops and bytes.
func TestOpTimeMonotone(t *testing.T) {
	d := CENTPNM(16000)
	f := func(a, b uint32) bool {
		f1, b1 := int64(a), int64(b)
		return d.OpTime(f1, b1) <= d.OpTime(f1*2, b1) &&
			d.OpTime(f1, b1) <= d.OpTime(f1, b1*2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGPUDecodeRegime(t *testing.T) {
	g := A100()
	// 16 GiB of KV at ~1.4 TB/s effective: ~12 ms.
	tm := g.AttentionTime(16 << 30)
	if tm < 5e-3 || tm > 30e-3 {
		t.Errorf("16 GiB KV attention time = %g s, outside plausible band", tm)
	}
	// Flash-decoding must not exceed raw bandwidth.
	raw := float64(16<<30) / (g.MemGBs * 1e9)
	if tm < raw {
		t.Error("attention cannot beat raw bandwidth")
	}
}

func TestNPUFasterThanPNMOnGEMM(t *testing.T) {
	npu := NeuPIMsNPU(32000)
	pnm := CENTPNM(16000)
	// A fat batched GEMM: NPU's 256 TFLOPS should win over PNM's 3.
	flops, bytes := int64(1e12), int64(1<<30)
	if npu.OpTime(flops, bytes) >= pnm.OpTime(flops, bytes) {
		t.Error("NPU should beat PNM on compute-heavy GEMM")
	}
}

// TestDIMMHostGPU: the DIMM-PIM host engine is A100-class on the
// rooflines but carries no paged-attention/flash-decoding software
// stack (it never touches KV).
func TestDIMMHostGPU(t *testing.T) {
	h := DIMMHostGPU()
	if err := validate(h); err != nil {
		t.Fatal(err)
	}
	a := A100()
	if h.TFLOPS != a.TFLOPS || h.MemGBs != a.MemGBs {
		t.Errorf("host rooflines %g/%g diverged from A100 %g/%g", h.TFLOPS, h.MemGBs, a.TFLOPS, a.MemGBs)
	}
	if h.OpTime(1e12, 1e9) <= 0 {
		t.Error("OpTime must be positive")
	}
}
