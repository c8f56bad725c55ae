package model

import (
	"testing"
	"testing/quick"
)

func TestAllConfigsValidate(t *testing.T) {
	for _, c := range All() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestByFlag(t *testing.T) {
	cases := map[string]string{
		"7b-32k":       "LLM-7B-32K",
		"7B-128K-GQA":  "LLM-7B-128K-GQA", // case-insensitive
		"72b-32k":      "LLM-72B-32K",
		"72b-128k-gqa": "LLM-72B-128K-GQA",
	}
	for flag, want := range cases {
		c, err := ByFlag(flag)
		if err != nil || c.Name != want {
			t.Errorf("ByFlag(%s) = %s, %v; want %s", flag, c.Name, err, want)
		}
	}
	if _, err := ByFlag("13b"); err == nil {
		t.Error("unknown model flag should error")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	c := LLM7B32K()
	c.DIn = 1000 // != Heads*HeadDim
	if err := c.Validate(); err == nil {
		t.Error("mismatched DIn should fail validation")
	}
	c2 := LLM7B32K()
	c2.GQAGroup = 3 // does not divide 32
	if err := c2.Validate(); err == nil {
		t.Error("non-dividing GQA group should fail validation")
	}
}

func TestWeightFootprints(t *testing.T) {
	// The 7B-class model should weigh in near 14 GB at fp16, the 72B-class
	// near 140 GB (Table I shapes approximate the real checkpoints).
	w7 := float64(LLM7B32K().WeightBytes()) / (1 << 30)
	if w7 < 10 || w7 > 20 {
		t.Errorf("7B weights = %.1f GiB, want ~14", w7)
	}
	w72 := float64(LLM72B32K().WeightBytes()) / (1 << 30)
	if w72 < 110 || w72 > 170 {
		t.Errorf("72B weights = %.1f GiB, want ~140", w72)
	}
	// GQA shrinks the KV projections, so GQA models are slightly smaller.
	if LLM7B128KGQA().WeightBytes() >= LLM7B32K().WeightBytes() {
		t.Error("GQA model should have fewer parameters than MHA sibling")
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// Non-GQA 7B: 2 * 32 heads * 128 * 2B * 32 layers = 512 KiB/token.
	if got := LLM7B32K().KVBytesPerToken(); got != 512<<10 {
		t.Errorf("7B KV/token = %d, want 512 KiB", got)
	}
	// GQA g=4 divides it by 4.
	if got := LLM7B128KGQA().KVBytesPerToken(); got != 128<<10 {
		t.Errorf("7B-GQA KV/token = %d, want 128 KiB", got)
	}
	// 72B GQA g=8: 2 * 8 * 128 * 2 * 80 = 320 KiB.
	if got := LLM72B128KGQA().KVBytesPerToken(); got != 320<<10 {
		t.Errorf("72B-GQA KV/token = %d, want 320 KiB", got)
	}
}

func TestComputeIntensityDropsWithContext(t *testing.T) {
	c := LLM7B128KGQA()
	const batch = 16 // Fig. 2a is a batched-serving scenario
	prev := c.ComputeIntensity(batch, 1024)
	for _, tk := range []int{4096, 16384, 65536, 262144, 1 << 20} {
		ci := c.ComputeIntensity(batch, tk)
		if ci >= prev {
			t.Errorf("compute intensity should fall with context: %d tokens -> %.3f (prev %.3f)", tk, ci, prev)
		}
		prev = ci
	}
	// Long-context decode is GEMV-bound: a handful of FLOPs per byte.
	if ci := c.ComputeIntensity(batch, 1<<20); ci > 8 {
		t.Errorf("1M-token intensity = %.2f FLOPs/B, expected memory-bound (<8)", ci)
	}
}

func TestMemoryFootprintFig2b(t *testing.T) {
	c := LLM7B128KGQA()
	// A100-80GB: batch 8 at 128K context must overflow (Fig. 2b's point).
	if got := c.MemoryFootprint(8, 128<<10); got <= 80<<30 {
		t.Errorf("batch-8 @128K footprint = %d GiB, expected OOM vs 80 GiB", got>>30)
	}
	// batch 1 at short context fits easily.
	if got := c.MemoryFootprint(1, 4096); got >= 80<<30 {
		t.Errorf("batch-1 @4K footprint = %d GiB, expected to fit", got>>30)
	}
}

func TestFCShapes(t *testing.T) {
	c := LLM72B128KGQA()
	shapes := c.FCShapes()
	if len(shapes) != 7 {
		t.Fatalf("expected 7 FC shapes, got %d", len(shapes))
	}
	var kOut int
	for _, s := range shapes {
		if s.DIn <= 0 || s.DOut <= 0 {
			t.Errorf("%s has non-positive dims", s.Name)
		}
		if s.Name == "k_proj" {
			kOut = s.DOut
		}
	}
	if kOut != c.DIn/8 {
		t.Errorf("k_proj out = %d, want DIn/8 for g=8", kOut)
	}
}

// Property: footprints and FLOPs are monotone in tokens and batch.
func TestMonotonicityProperties(t *testing.T) {
	c := LLM7B32K()
	f := func(a, b uint16) bool {
		t1, t2 := int(a)+1, int(a)+int(b)+2
		if c.KVBytes(t1) > c.KVBytes(t2) {
			return false
		}
		if c.DecodeFLOPs(t1) > c.DecodeFLOPs(t2) {
			return false
		}
		return c.MemoryFootprint(1, t1) <= c.MemoryFootprint(2, t1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FLOPs/bytes are consistent — intensity equals their ratio.
func TestIntensityConsistency(t *testing.T) {
	for _, c := range All() {
		for _, tk := range []int{1024, 32768, 1 << 20} {
			want := float64(c.DecodeFLOPs(tk)) / float64(c.BatchDecodeBytes(1, tk))
			if got := c.ComputeIntensity(1, tk); got != want {
				t.Errorf("%s @%d: intensity %f != %f", c.Name, tk, got, want)
			}
		}
	}
}

// Property: higher batch raises intensity (weights amortize), and the
// limit as batch grows is bounded by the attention intensity.
func TestBatchRaisesIntensity(t *testing.T) {
	c := LLM72B32K()
	f := func(a uint8) bool {
		b := int(a%63) + 1
		return c.ComputeIntensity(b+1, 16384) >= c.ComputeIntensity(b, 16384)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFCWorkHelpers pins the deduplicated FC-work helpers against the
// direct FCShapes loops they replaced (the prefill estimator and the
// decode backends all price FC through them now) and against the
// independent DecodeFLOPs accounting.
func TestFCWorkHelpers(t *testing.T) {
	for _, m := range All() {
		var wantFlops, wantBytes int64
		for _, sh := range m.FCShapes() {
			wantFlops += 2 * int64(sh.DIn) * int64(sh.DOut) * int64(sh.Count)
			wantBytes += int64(sh.DIn) * int64(sh.DOut) * int64(sh.Count) * int64(m.ElemBytes)
		}
		if got := m.FCLayerFlops(); got != wantFlops {
			t.Errorf("%s: FCLayerFlops %d, want %d", m.Name, got, wantFlops)
		}
		if got := m.FCLayerWeightBytes(); got != wantBytes {
			t.Errorf("%s: FCLayerWeightBytes %d, want %d", m.Name, got, wantBytes)
		}
		if got, want := m.FCFlopsPerToken(), int64(m.Layers)*wantFlops; got != want {
			t.Errorf("%s: FCFlopsPerToken %d, want %d", m.Name, got, want)
		}
		// At zero context, a decode step is pure FC work.
		if got, want := m.FCFlopsPerToken(), m.DecodeFLOPs(0); got != want {
			t.Errorf("%s: FCFlopsPerToken %d != DecodeFLOPs(0) %d", m.Name, got, want)
		}
		// One streaming pass over every FC weight is the whole layer's
		// parameter footprint.
		if got, want := m.FCLayerWeightBytes()*int64(m.Layers), m.WeightBytes(); got != want {
			t.Errorf("%s: FC weight bytes %d != WeightBytes %d", m.Name, got, want)
		}
	}
}
