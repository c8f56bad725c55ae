package hub

// This file is the float32 reference decoder math PIM executes (GEMV,
// softmax, single-query attention): the ground truth that
// TestTCPAttentionNumericallyExact checks the EPU's TCP aggregation
// against, with its own tests.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gemv computes y = x * W for x of length din and W of shape (din, dout),
// stored row-major.
func gemv(x []float32, w [][]float32) ([]float32, error) {
	if len(w) != len(x) {
		return nil, fmt.Errorf("reference: GEMV dims mismatch: len(x)=%d rows(W)=%d", len(x), len(w))
	}
	if len(w) == 0 {
		return nil, fmt.Errorf("reference: empty GEMV")
	}
	dout := len(w[0])
	y := make([]float32, dout)
	for i, xi := range x {
		if len(w[i]) != dout {
			return nil, fmt.Errorf("reference: ragged weight row %d", i)
		}
		for j, wij := range w[i] {
			y[j] += xi * wij
		}
	}
	return y, nil
}

// softmax computes a numerically-stable softmax in place and returns it.
func softmax(x []float32) []float32 {
	if len(x) == 0 {
		return x
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - max))
		x[i] = float32(e)
		sum += e
	}
	for i := range x {
		x[i] = float32(float64(x[i]) / sum)
	}
	return x
}

// attention computes single-query attention: softmax(q . K^T / sqrt(d)) * V
// with K and V of shape (tokens, d).
func attention(q []float32, k, v [][]float32) ([]float32, error) {
	if len(k) != len(v) {
		return nil, fmt.Errorf("reference: K/V token mismatch: %d vs %d", len(k), len(v))
	}
	if len(k) == 0 {
		return nil, fmt.Errorf("reference: empty attention")
	}
	d := len(q)
	scores := make([]float32, len(k))
	scale := float32(1.0 / math.Sqrt(float64(d)))
	for t, kt := range k {
		if len(kt) != d {
			return nil, fmt.Errorf("reference: key %d has dim %d, want %d", t, len(kt), d)
		}
		var s float32
		for i := range q {
			s += q[i] * kt[i]
		}
		scores[t] = s * scale
	}
	softmax(scores)
	out := make([]float32, len(v[0]))
	for t, vt := range v {
		for i := range out {
			out[i] += scores[t] * vt[i]
		}
	}
	return out, nil
}

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float32) (float32, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("reference: dot length mismatch %d vs %d", len(a), len(b))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// add accumulates src into dst element-wise.
func add(dst, src []float32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("reference: add length mismatch %d vs %d", len(dst), len(src))
	}
	for i := range src {
		dst[i] += src[i]
	}
	return nil
}

// maxAbsDiff returns the largest element-wise absolute difference.
func maxAbsDiff(a, b []float32) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var m float64
	for i := 0; i < n; i++ {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	if len(a) != len(b) {
		return math.Inf(1)
	}
	return m
}

// randVec samples a deterministic vector in [-1, 1).
func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

// randMat samples a deterministic (rows, cols) matrix in [-1, 1).
func randMat(rng *rand.Rand, rows, cols int) [][]float32 {
	m := make([][]float32, rows)
	for i := range m {
		m[i] = randVec(rng, cols)
	}
	return m
}

func TestGEMVKnown(t *testing.T) {
	x := []float32{1, 2}
	w := [][]float32{{1, 0, 2}, {0, 1, 3}}
	y, err := gemv(x, w)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 8}
	if maxAbsDiff(y, want) > 1e-6 {
		t.Fatalf("GEMV = %v, want %v", y, want)
	}
}

func TestGEMVErrors(t *testing.T) {
	if _, err := gemv([]float32{1}, [][]float32{{1}, {2}}); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := gemv(nil, nil); err == nil {
		t.Error("empty GEMV should fail")
	}
	if _, err := gemv([]float32{1, 2}, [][]float32{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix should fail")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, rng.Intn(100)+1)
		for i := range x {
			x[i] *= 20 // widen range to stress stability
		}
		s := softmax(x)
		var sum float64
		for _, v := range s {
			if v < 0 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	s := softmax([]float32{1000, 1000, 1000})
	for _, v := range s {
		if math.Abs(float64(v)-1.0/3) > 1e-5 {
			t.Fatalf("large-input softmax unstable: %v", s)
		}
	}
	if out := softmax(nil); len(out) != 0 {
		t.Fatal("empty softmax should stay empty")
	}
}

func TestAttentionUniform(t *testing.T) {
	// Identical keys -> uniform scores -> output is the mean of values.
	q := []float32{1, 0}
	k := [][]float32{{1, 1}, {1, 1}, {1, 1}}
	v := [][]float32{{3, 0}, {6, 0}, {0, 9}}
	out, err := attention(q, k, v)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{3, 3}
	if maxAbsDiff(out, want) > 1e-5 {
		t.Fatalf("attention = %v, want %v", out, want)
	}
}

func TestAttentionErrors(t *testing.T) {
	if _, err := attention([]float32{1}, [][]float32{{1}}, nil); err == nil {
		t.Error("K/V mismatch should fail")
	}
	if _, err := attention([]float32{1}, nil, nil); err == nil {
		t.Error("empty attention should fail")
	}
	if _, err := attention([]float32{1, 2}, [][]float32{{1}}, [][]float32{{1}}); err == nil {
		t.Error("key dim mismatch should fail")
	}
}

func TestDotAndAdd(t *testing.T) {
	d, err := dot([]float32{1, 2, 3}, []float32{4, 5, 6})
	if err != nil || d != 32 {
		t.Fatalf("Dot = %f, %v", d, err)
	}
	if _, err := dot([]float32{1}, []float32{1, 2}); err == nil {
		t.Error("dot length mismatch should fail")
	}
	dst := []float32{1, 1}
	if err := add(dst, []float32{2, 3}); err != nil || dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Add broken: %v %v", dst, err)
	}
	if err := add(dst, []float32{1}); err == nil {
		t.Error("add length mismatch should fail")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if d := maxAbsDiff([]float32{1, 2}, []float32{1, 5}); d != 3 {
		t.Fatalf("MaxAbsDiff = %f", d)
	}
	if d := maxAbsDiff([]float32{1}, []float32{1, 2}); !math.IsInf(d, 1) {
		t.Fatal("length mismatch should be +Inf")
	}
}

// Property: GEMV is linear — gemv(a*x) = a*gemv(x).
func TestGEMVLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, 8)
		w := randMat(rng, 8, 6)
		y1, err := gemv(x, w)
		if err != nil {
			return false
		}
		xs := make([]float32, len(x))
		for i := range x {
			xs[i] = 2 * x[i]
		}
		y2, err := gemv(xs, w)
		if err != nil {
			return false
		}
		for i := range y1 {
			if math.Abs(float64(y2[i]-2*y1[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
