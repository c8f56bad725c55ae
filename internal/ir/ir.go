// Package ir is the small graph intermediate representation PIMphony's
// compiler front-end operates on: enough of an MLIR-like dialect to express
// a transformer decoder layer with a symbolic token dimension, verify
// shapes, and let the pattern-matching passes of internal/compiler locate
// the PIM-amenable kernels (QK^T, SV, the FC projections).
package ir

import (
	"fmt"
)

// DynTokens is the symbolic size of the token dimension: the number of KV
// cache entries, known only at runtime (the DPA motivation).
const DynTokens = -1

// Kind enumerates operation kinds.
type Kind uint8

const (
	// Input introduces a graph input tensor.
	Input Kind = iota
	// Weight introduces a parameter tensor resident in PIM DRAM.
	Weight
	// KVCache introduces a cache tensor with a dynamic token dimension.
	KVCache
	// MatMul multiplies (m,k) x (k,n) -> (m,n).
	MatMul
	// Scale multiplies by a scalar.
	Scale
	// Softmax normalises the last dimension.
	Softmax
	// Add is element-wise addition.
	Add
	// Mul is element-wise multiplication (gating).
	Mul
	// SiLU is the sigmoid-linear activation.
	SiLU
	// RMSNorm is root-mean-square layer normalisation.
	RMSNorm
	// Transpose swaps the two dimensions of a matrix.
	Transpose
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := [...]string{"input", "weight", "kvcache", "matmul", "scale",
		"softmax", "add", "mul", "silu", "rmsnorm", "transpose"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a tensor produced by a node.
type Value struct {
	ID    int
	Name  string
	Shape []int // DynTokens marks the symbolic token dimension
}

// Node is one operation.
type Node struct {
	ID     int
	Kind   Kind
	Inputs []int // value IDs
	Out    int   // value ID
	Label  string
}

// Graph is a single-assignment operation graph.
type Graph struct {
	Name   string
	Nodes  []Node
	Values []Value
}

// NewGraph creates an empty graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// value registers a new value and returns its ID.
func (g *Graph) value(name string, shape []int) int {
	id := len(g.Values)
	g.Values = append(g.Values, Value{ID: id, Name: name, Shape: shape})
	return id
}

// node registers a new node producing a fresh value.
func (g *Graph) node(k Kind, label string, shape []int, inputs ...int) int {
	out := g.value(label, shape)
	g.Nodes = append(g.Nodes, Node{ID: len(g.Nodes), Kind: k, Inputs: inputs, Out: out, Label: label})
	return out
}

// AddInput introduces a graph input.
func (g *Graph) AddInput(name string, shape ...int) int {
	return g.node(Input, name, shape)
}

// AddWeight introduces a DRAM-resident parameter.
func (g *Graph) AddWeight(name string, shape ...int) int {
	return g.node(Weight, name, shape)
}

// AddKVCache introduces a cache tensor with a leading dynamic token dim.
func (g *Graph) AddKVCache(name string, width int) int {
	return g.node(KVCache, name, []int{DynTokens, width})
}

// MatMul appends a (m,k)x(k,n) multiply.
func (g *Graph) MatMul(label string, a, b int) (int, error) {
	sa, sb := g.Values[a].Shape, g.Values[b].Shape
	if len(sa) != 2 || len(sb) != 2 {
		return 0, fmt.Errorf("ir: matmul %q needs rank-2 operands", label)
	}
	if sa[1] != sb[0] {
		return 0, fmt.Errorf("ir: matmul %q inner dims %d vs %d", label, sa[1], sb[0])
	}
	return g.node(MatMul, label, []int{sa[0], sb[1]}, a, b), nil
}

// Transpose appends a matrix transpose.
func (g *Graph) Transpose(label string, a int) (int, error) {
	s := g.Values[a].Shape
	if len(s) != 2 {
		return 0, fmt.Errorf("ir: transpose %q needs a rank-2 operand", label)
	}
	return g.node(Transpose, label, []int{s[1], s[0]}, a), nil
}

// Unary appends a shape-preserving unary op.
func (g *Graph) Unary(k Kind, label string, a int) int {
	return g.node(k, label, g.Values[a].Shape, a)
}

// Binary appends a shape-preserving binary op.
func (g *Graph) Binary(k Kind, label string, a, b int) (int, error) {
	sa, sb := g.Values[a].Shape, g.Values[b].Shape
	if len(sa) != len(sb) {
		return 0, fmt.Errorf("ir: %s %q rank mismatch", k, label)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return 0, fmt.Errorf("ir: %s %q shape mismatch at dim %d: %d vs %d", k, label, i, sa[i], sb[i])
		}
	}
	return g.node(k, label, sa, a, b), nil
}

// Verify checks single-assignment discipline and operand validity.
func (g *Graph) Verify() error {
	produced := make(map[int]bool)
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in < 0 || in >= len(g.Values) {
				return fmt.Errorf("ir %s: node %d (%s) references missing value %d", g.Name, n.ID, n.Label, in)
			}
			if !produced[in] {
				return fmt.Errorf("ir %s: node %d (%s) uses value %d before production", g.Name, n.ID, n.Label, in)
			}
		}
		if produced[n.Out] {
			return fmt.Errorf("ir %s: value %d produced twice", g.Name, n.Out)
		}
		produced[n.Out] = true
		switch n.Kind {
		case Input, Weight, KVCache:
			if len(n.Inputs) != 0 {
				return fmt.Errorf("ir %s: source node %d (%s) must have no inputs", g.Name, n.ID, n.Label)
			}
		case MatMul, Add, Mul:
			if len(n.Inputs) != 2 {
				return fmt.Errorf("ir %s: node %d (%s) needs 2 inputs", g.Name, n.ID, n.Label)
			}
		case Scale, Softmax, SiLU, RMSNorm, Transpose:
			if len(n.Inputs) != 1 {
				return fmt.Errorf("ir %s: node %d (%s) needs 1 input", g.Name, n.ID, n.Label)
			}
		}
	}
	return nil
}

// Producer returns the node producing a value, or nil for none.
func (g *Graph) Producer(valueID int) *Node {
	for i := range g.Nodes {
		if g.Nodes[i].Out == valueID {
			return &g.Nodes[i]
		}
	}
	return nil
}
