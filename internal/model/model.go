// Package model describes the transformer decoder configurations of the
// paper's Table I and derives the quantities the performance model needs:
// per-decode-step kernel shapes, KV-cache geometry, weight footprints,
// FLOP counts and compute intensity (the paper's Fig. 2 motivation).
package model

import (
	"fmt"
	"strings"
)

// Config is one LLM configuration (Table I).
type Config struct {
	Name          string
	Layers        int // nl
	Heads         int // nh query heads
	HeadDim       int // dh
	DIn           int // hidden size (d_in); attention projections are DIn x DIn
	DFFN          int // FFN inner size (d_out of the up projection)
	GQAGroup      int // query heads per KV head; 1 = MHA
	ElemBytes     int // parameter/KV element size (fp16 = 2)
	ContextWindow int // maximum supported context length (T_max)
}

// Table I configurations. The 32K context-window variants are the non-GQA
// Qwen1.5-style models; the 128K variants are Llama3.1-style GQA models.
func LLM7B32K() Config {
	return Config{Name: "LLM-7B-32K", Layers: 32, Heads: 32, HeadDim: 128,
		DIn: 4096, DFFN: 12288, GQAGroup: 1, ElemBytes: 2, ContextWindow: 32 << 10}
}

func LLM7B128KGQA() Config {
	return Config{Name: "LLM-7B-128K-GQA", Layers: 32, Heads: 32, HeadDim: 128,
		DIn: 4096, DFFN: 12288, GQAGroup: 4, ElemBytes: 2, ContextWindow: 128 << 10}
}

func LLM72B32K() Config {
	return Config{Name: "LLM-72B-32K", Layers: 80, Heads: 64, HeadDim: 128,
		DIn: 8192, DFFN: 24576, GQAGroup: 1, ElemBytes: 2, ContextWindow: 32 << 10}
}

func LLM72B128KGQA() Config {
	return Config{Name: "LLM-72B-128K-GQA", Layers: 80, Heads: 64, HeadDim: 128,
		DIn: 8192, DFFN: 24576, GQAGroup: 8, ElemBytes: 2, ContextWindow: 128 << 10}
}

// All returns the four evaluated models in the paper's order.
func All() []Config {
	return []Config{LLM7B32K(), LLM72B32K(), LLM7B128KGQA(), LLM72B128KGQA()}
}

// ByFlag finds a Table I model by the short name the CLI binaries share
// ("7b-32k", "7b-128k-gqa", "72b-32k", "72b-128k-gqa"; case-insensitive).
func ByFlag(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "7b-32k":
		return LLM7B32K(), nil
	case "7b-128k-gqa":
		return LLM7B128KGQA(), nil
	case "72b-32k":
		return LLM72B32K(), nil
	case "72b-128k-gqa":
		return LLM72B128KGQA(), nil
	default:
		return Config{}, fmt.Errorf("unknown model %q (7b-32k, 7b-128k-gqa, 72b-32k, 72b-128k-gqa)", name)
	}
}

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Heads <= 0 || c.HeadDim <= 0:
		return fmt.Errorf("model %s: layers/heads/headdim must be positive", c.Name)
	case c.DIn != c.Heads*c.HeadDim:
		return fmt.Errorf("model %s: DIn (%d) != Heads*HeadDim (%d)", c.Name, c.DIn, c.Heads*c.HeadDim)
	case c.GQAGroup <= 0 || c.Heads%c.GQAGroup != 0:
		return fmt.Errorf("model %s: GQAGroup %d must divide Heads %d", c.Name, c.GQAGroup, c.Heads)
	case c.ElemBytes <= 0:
		return fmt.Errorf("model %s: ElemBytes must be positive", c.Name)
	case c.ContextWindow <= 0:
		return fmt.Errorf("model %s: ContextWindow must be positive", c.Name)
	}
	return nil
}

// KVHeads is the number of KV heads (Heads / GQAGroup).
func (c Config) KVHeads() int { return c.Heads / c.GQAGroup }

// IsGQA reports whether the model uses grouped-query attention.
func (c Config) IsGQA() bool { return c.GQAGroup > 1 }

// ---------------------------------------------------------------------------
// Footprints
// ---------------------------------------------------------------------------

// KVBytesPerToken is the KV-cache footprint of one token across all layers:
// 2 (K and V) x KVHeads x HeadDim x ElemBytes x Layers.
func (c Config) KVBytesPerToken() int64 {
	return 2 * int64(c.KVHeads()) * int64(c.HeadDim) * int64(c.ElemBytes) * int64(c.Layers)
}

// KVBytes is the KV-cache footprint of one request at the given context.
func (c Config) KVBytes(tokens int) int64 {
	return int64(tokens) * c.KVBytesPerToken()
}

// WeightBytes is the parameter footprint: per layer 4 attention projections
// (Q full-size, K/V shrunk by the GQA group, O full-size) plus a
// gated 3-matrix FFN (up, gate, down).
func (c Config) WeightBytes() int64 {
	din, dffn := int64(c.DIn), int64(c.DFFN)
	kvProj := din * din / int64(c.GQAGroup) // each of K, V
	attn := din*din + 2*kvProj + din*din    // Q, K, V, O
	ffn := 3 * din * dffn                   // up, gate, down
	return int64(c.Layers) * (attn + ffn) * int64(c.ElemBytes)
}

// ---------------------------------------------------------------------------
// Per-decode-step work
// ---------------------------------------------------------------------------

// DecodeFLOPs returns the FLOPs of generating one token for one request at
// the given context length (multiply-accumulate = 2 FLOPs).
func (c Config) DecodeFLOPs(tokens int) int64 {
	din, dffn := int64(c.DIn), int64(c.DFFN)
	kvProj := din * din / int64(c.GQAGroup)
	fc := 2 * (din*din + 2*kvProj + din*din + 3*din*dffn)             // all projections
	attn := 2 * 2 * int64(c.Heads) * int64(c.HeadDim) * int64(tokens) // QK^T + SV
	return int64(c.Layers) * (fc + attn)
}

// BatchDecodeBytes returns the bytes read per decode iteration for a batch:
// weights are read once for the whole batch (batched GEMM), while every
// request attends over its own KV cache.
func (c Config) BatchDecodeBytes(batch, tokens int) int64 {
	return c.WeightBytes() + int64(batch)*c.KVBytes(tokens)
}

// ComputeIntensity is FLOPs/byte of a batched decode iteration at the given
// context length — the quantity that collapses as context grows while FC
// work shifts from batched GEMM to per-request GEMV attention (Fig. 2a).
func (c Config) ComputeIntensity(batch, tokens int) float64 {
	return float64(int64(batch)*c.DecodeFLOPs(tokens)) / float64(c.BatchDecodeBytes(batch, tokens))
}

// MemoryFootprint returns the total memory needed to serve `batch` requests
// at context `tokens`: weights + per-request KV (Fig. 2b).
func (c Config) MemoryFootprint(batch, tokens int) int64 {
	return c.WeightBytes() + int64(batch)*c.KVBytes(tokens)
}

// ---------------------------------------------------------------------------
// Kernel shapes
// ---------------------------------------------------------------------------

// FCShape is one fully-connected GEMV of the decode step.
type FCShape struct {
	Name      string
	DIn, DOut int
	Count     int // occurrences per layer
}

// FCShapes lists the per-layer projection GEMVs in execution order. It
// returns an array, not a slice, so pricing a prefill or a GPU iteration
// from it allocates nothing.
func (c Config) FCShapes() [7]FCShape {
	kvOut := c.DIn / c.GQAGroup
	return [...]FCShape{
		{Name: "q_proj", DIn: c.DIn, DOut: c.DIn, Count: 1},
		{Name: "k_proj", DIn: c.DIn, DOut: kvOut, Count: 1},
		{Name: "v_proj", DIn: c.DIn, DOut: kvOut, Count: 1},
		{Name: "o_proj", DIn: c.DIn, DOut: c.DIn, Count: 1},
		{Name: "ffn_up", DIn: c.DIn, DOut: c.DFFN, Count: 1},
		{Name: "ffn_gate", DIn: c.DIn, DOut: c.DFFN, Count: 1},
		{Name: "ffn_down", DIn: c.DFFN, DOut: c.DIn, Count: 1},
	}
}

// FCLayerFlops is the FLOPs of one token's FC projections in a single
// layer (multiply-accumulate = 2 FLOPs), summed over FCShapes in
// execution order. It is the single source of truth for the FC-FLOPs
// loops the prefill estimator and every decode backend used to carry
// separately.
func (c Config) FCLayerFlops() int64 {
	var flops int64
	for _, sh := range c.FCShapes() {
		flops += 2 * int64(sh.DIn) * int64(sh.DOut) * int64(sh.Count)
	}
	return flops
}

// FCLayerWeightBytes is the weight bytes read by one layer's FC
// projections (one streaming pass over every projection matrix).
func (c Config) FCLayerWeightBytes() int64 {
	var bytes int64
	for _, sh := range c.FCShapes() {
		bytes += int64(sh.DIn) * int64(sh.DOut) * int64(sh.Count) * int64(c.ElemBytes)
	}
	return bytes
}

// FCFlopsPerToken is the FC FLOPs of generating one token across all
// layers: Layers x FCLayerFlops.
func (c Config) FCFlopsPerToken() int64 {
	return int64(c.Layers) * c.FCLayerFlops()
}
