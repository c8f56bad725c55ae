package hub

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pimphony/internal/timing"
)

// concatSoftmax is the EPU's functional QK^T aggregation under TCP:
// per-channel score segments are concatenated in token order and
// softmaxed. The returned slice is the full softmax distribution.
func concatSoftmax(segments [][]float32) []float32 {
	var all []float32
	for _, s := range segments {
		all = append(all, s...)
	}
	return softmax(all)
}

// reducePartials is the EPU's functional SV aggregation under TCP:
// per-channel partial output vectors are summed into the head output.
func reducePartials(partials [][]float32) ([]float32, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("hub: no partials to reduce")
	}
	out := make([]float32, len(partials[0]))
	for i, p := range partials {
		if len(p) != len(out) {
			return nil, fmt.Errorf("hub: partial %d has length %d, want %d", i, len(p), len(out))
		}
		if err := add(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestReduceCyclesMatchPaperScale(t *testing.T) {
	dev := timing.AiM16()
	// Paper: the per-module SV reduction is < 0.2% of attention latency
	// for LLM-7B at 16K tokens; the gather is bandwidth-limited and must
	// stay in the tens of cycles.
	c := ReduceCycles(dev, 16, 128)
	if c <= 0 || c > 100 {
		t.Fatalf("ReduceCycles = %d, outside plausible band", c)
	}
	if ReduceCycles(dev, 32, 128) <= c {
		t.Fatal("more channels must cost more to reduce")
	}
}

// TestReduceCyclesFormula pins the reduction's two terms: 16 channels
// at dh=128 ship 8 tiles each over a 256 B/cycle gather fabric with a
// 4-cycle hop, and the EPU folds them in 15+8 single-cycle stages.
func TestReduceCyclesFormula(t *testing.T) {
	dev := timing.AiM16() // 16-element tiles of 32 B, hop 4, add 1
	gather := timing.Cycles(16*8*32/256 + 4)
	fold := timing.Cycles(16 - 1 + 8)
	if got := ReduceCycles(dev, 16, 128); got != gather+fold {
		t.Errorf("ReduceCycles(16, 128) = %d, want gather %d + fold %d", got, gather, fold)
	}
	// The abl-tcp ablation sweeps the gather bandwidth on a device copy.
	dev.HubBytesPerCycle = 64
	if got, want := ReduceCycles(dev, 16, 128), timing.Cycles(16*8*32/64+4)+fold; got != want {
		t.Errorf("ReduceCycles at 64 B/cycle = %d, want %d", got, want)
	}
}

// TestTCPAttentionNumericallyExact is the core correctness argument for
// token-centric partitioning: slicing tokens across channels, concatenating
// per-channel QK^T segments, softmaxing globally in the EPU, computing
// per-channel SV partials and reducing them must reproduce the reference
// single-query attention bit-for-bit up to float accumulation order.
func TestTCPAttentionNumericallyExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const (
		tokens   = 333 // deliberately not a multiple of channels
		dh       = 64
		channels = 16
	)
	q := randVec(rng, dh)
	k := randMat(rng, tokens, dh)
	v := randMat(rng, tokens, dh)

	want, err := attention(q, k, v)
	if err != nil {
		t.Fatal(err)
	}

	// Token-centric split: channel c owns a contiguous slice of tokens.
	bounds := make([]int, channels+1)
	for c := 0; c <= channels; c++ {
		bounds[c] = c * tokens / channels
	}
	scale := float32(1 / math.Sqrt(float64(dh)))

	// Phase 1: per-channel QK^T segments.
	segments := make([][]float32, channels)
	for c := 0; c < channels; c++ {
		seg := make([]float32, bounds[c+1]-bounds[c])
		for i := range seg {
			d, err := dot(q, k[bounds[c]+i])
			if err != nil {
				t.Fatal(err)
			}
			seg[i] = d * scale
		}
		segments[c] = seg
	}

	// Phase 2: EPU concatenation + global softmax.
	scores := concatSoftmax(segments)
	if len(scores) != tokens {
		t.Fatalf("concat produced %d scores, want %d", len(scores), tokens)
	}

	// Phase 3: per-channel SV partials + EPU reduction.
	partials := make([][]float32, channels)
	for c := 0; c < channels; c++ {
		p := make([]float32, dh)
		for i := bounds[c]; i < bounds[c+1]; i++ {
			for j := 0; j < dh; j++ {
				p[j] += scores[i] * v[i][j]
			}
		}
		partials[c] = p
	}
	got, err := reducePartials(partials)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("TCP attention deviates from reference by %g", d)
	}
}

func TestReducePartialsErrors(t *testing.T) {
	if _, err := reducePartials(nil); err == nil {
		t.Fatal("empty reduction should fail")
	}
	if _, err := reducePartials([][]float32{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged partials should fail")
	}
}

// Property: reduction is permutation-invariant (up to float error) — the
// channel arrival order must not change the result materially.
func TestReduceOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		parts := make([][]float32, n)
		for i := range parts {
			parts[i] = randVec(rng, 16)
		}
		a, err := reducePartials(parts)
		if err != nil {
			return false
		}
		perm := rng.Perm(n)
		shuffled := make([][]float32, n)
		for i, p := range perm {
			shuffled[i] = parts[p]
		}
		b, err := reducePartials(shuffled)
		if err != nil {
			return false
		}
		return maxAbsDiff(a, b) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
