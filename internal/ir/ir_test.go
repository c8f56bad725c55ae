package ir

import (
	"slices"
	"testing"

	"pimphony/internal/model"
)

func TestBuildDecoderLayerVerifies(t *testing.T) {
	for _, cfg := range model.All() {
		layer, err := BuildDecoderLayer(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := layer.Graph.Verify(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if layer.Output == 0 {
			t.Errorf("%s: no output anchor", cfg.Name)
		}
	}
}

func TestDecoderLayerShapes(t *testing.T) {
	cfg := model.LLM7B128KGQA()
	layer, err := BuildDecoderLayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := layer.Graph
	// The scores value must carry the symbolic token dimension.
	if !slices.Contains(g.Values[layer.Scores].Shape, DynTokens) {
		t.Error("softmax scores should have a dynamic token dim")
	}
	// k_proj output must be GQA-shrunk.
	for _, n := range g.Nodes {
		if n.Label == "k_proj" {
			if got := g.Values[n.Out].Shape[1]; got != cfg.DIn/cfg.GQAGroup {
				t.Errorf("k_proj out dim = %d, want %d", got, cfg.DIn/cfg.GQAGroup)
			}
		}
	}
	// Layer output shape is (1, DIn).
	out := g.Values[layer.Output].Shape
	if len(out) != 2 || out[0] != 1 || out[1] != cfg.DIn {
		t.Errorf("layer output shape = %v", out)
	}
}

func TestMatMulShapeChecking(t *testing.T) {
	g := NewGraph("t")
	a := g.AddInput("a", 1, 4)
	b := g.AddWeight("b", 8, 2) // inner dim mismatch
	if _, err := g.MatMul("bad", a, b); err == nil {
		t.Fatal("inner-dim mismatch should fail")
	}
	c := g.AddWeight("c", 4, 2)
	out, err := g.MatMul("good", a, c)
	if err != nil {
		t.Fatal(err)
	}
	if sh := g.Values[out].Shape; sh[0] != 1 || sh[1] != 2 {
		t.Errorf("matmul out shape = %v", sh)
	}
}

func TestBinaryShapeChecking(t *testing.T) {
	g := NewGraph("t")
	a := g.AddInput("a", 1, 4)
	b := g.AddInput("b", 1, 5)
	if _, err := g.Binary(Add, "bad", a, b); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestTransposeNeedsRank2(t *testing.T) {
	g := NewGraph("t")
	a := g.AddInput("a", 4)
	if _, err := g.Transpose("bad", a); err == nil {
		t.Fatal("rank-1 transpose should fail")
	}
}

func TestVerifyCatchesUseBeforeProduction(t *testing.T) {
	g := NewGraph("t")
	a := g.AddInput("a", 1, 4)
	// Hand-craft a node referencing a value that is never produced.
	g.Nodes = append(g.Nodes, Node{ID: len(g.Nodes), Kind: SiLU, Inputs: []int{a + 99}, Out: g.value("x", []int{1, 4})})
	if err := g.Verify(); err == nil {
		t.Fatal("missing value should fail verification")
	}
}

func TestKindString(t *testing.T) {
	if MatMul.String() != "matmul" || Softmax.String() != "softmax" {
		t.Fatal("kind names changed")
	}
}
