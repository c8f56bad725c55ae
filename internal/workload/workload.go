// Package workload synthesises the long-context request traces the paper
// evaluates on. The paper consumes LongBench (QMSum, Musique) and LV-Eval
// (multifieldqa_en_mixup, Loogle-SD) only through their input context-length
// distributions (Table II); we reproduce those statistics with a truncated
// normal sampler driven by a deterministic RNG, so every experiment is
// exactly repeatable.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Trace names the four evaluated benchmarks.
type Trace struct {
	Name  string
	Suite string // "LongBench" or "LV-Eval"
	Mean  float64
	Std   float64
	Min   int
	Max   int
}

// Table II statistics.
func QMSum() Trace {
	return Trace{Name: "QMSum", Suite: "LongBench", Mean: 13966, Std: 6182, Min: 2651, Max: 30456}
}

func Musique() Trace {
	return Trace{Name: "Musique", Suite: "LongBench", Mean: 16362, Std: 1651, Min: 6820, Max: 17917}
}

func MultiFieldQA() Trace {
	return Trace{Name: "multifieldqa", Suite: "LV-Eval", Mean: 60780, Std: 31025, Min: 20333, Max: 119480}
}

func LoogleSD() Trace {
	return Trace{Name: "Loogle-SD", Suite: "LV-Eval", Mean: 50693, Std: 26506, Min: 13347, Max: 109221}
}

// All returns the four traces in the paper's Table II order.
func All() []Trace { return []Trace{QMSum(), Musique(), MultiFieldQA(), LoogleSD()} }

// ByName finds a trace by its Table II name.
func ByName(name string) (Trace, error) {
	for _, tr := range All() {
		if tr.Name == name {
			return tr, nil
		}
	}
	return Trace{}, fmt.Errorf("workload: unknown trace %q", name)
}

// GeneratorByFlag builds a generator from the trace argument the CLI
// binaries share: a Table II trace name (ByName), "uniform:<tokens>"
// for a fixed-length microbenchmark workload, or
// "heavy:<min>-<max>[:alpha]" for a bounded-Pareto heavy-tailed one
// (alpha defaults to 1.2).
func GeneratorByFlag(name string, seed int64) (*Generator, error) {
	if rest, ok := strings.CutPrefix(name, "uniform:"); ok {
		// Past 2^53 the float sampler cannot return the count exactly.
		tokens, err := strconv.Atoi(rest)
		if err != nil || tokens <= 0 || tokens > 1<<53 {
			return nil, fmt.Errorf("workload: bad uniform trace %q (want uniform:<tokens>)", name)
		}
		return Uniform(tokens, seed), nil
	}
	if rest, ok := strings.CutPrefix(name, "heavy:"); ok {
		alpha := 1.2
		if bounds, alphaStr, hasAlpha := strings.Cut(rest, ":"); hasAlpha {
			v, err := strconv.ParseFloat(alphaStr, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: bad heavy-tail alpha in %q", name)
			}
			alpha, rest = v, bounds
		}
		loStr, hiStr, ok := strings.Cut(rest, "-")
		if !ok {
			return nil, fmt.Errorf("workload: bad heavy trace %q (want heavy:<min>-<max>[:alpha])", name)
		}
		lo, err1 := strconv.Atoi(loStr)
		hi, err2 := strconv.Atoi(hiStr)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("workload: bad heavy trace %q (want heavy:<min>-<max>[:alpha])", name)
		}
		return HeavyTailed(lo, hi, alpha, seed)
	}
	tr, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return NewGenerator(tr, seed), nil
}

// Request is one inference request: a prefilled context plus the number of
// tokens to generate during decode.
type Request struct {
	ID      int
	Context int // prompt tokens already in the KV cache
	Decode  int // tokens to generate
}

// Generator samples deterministic request streams from a trace.
type Generator struct {
	trace Trace
	rng   *rand.Rand
	// DecodeLen is the generation length per request. The paper's
	// throughput metric is decode tokens/sec; a fixed modest generation
	// window mirrors the LongBench answer lengths.
	DecodeLen int
	// sampleCtx, when set, replaces the truncated-normal context sampler
	// (HeavyTailed installs a bounded-Pareto draw).
	sampleCtx func(*rand.Rand) int
	next      int
}

// NewGenerator creates a deterministic generator for a trace.
func NewGenerator(t Trace, seed int64) *Generator {
	return &Generator{trace: t, rng: rand.New(rand.NewSource(seed)), DecodeLen: 256}
}

// SampleContext draws one context length from the truncated normal fit of
// the trace statistics (or the generator's custom sampler, if installed).
func (g *Generator) SampleContext() int {
	if g.sampleCtx != nil {
		return g.sampleCtx(g.rng)
	}
	for {
		v := g.trace.Mean + g.trace.Std*g.rng.NormFloat64()
		if v >= float64(g.trace.Min) && v <= float64(g.trace.Max) {
			return int(v)
		}
	}
}

// SampleDecode returns one generation length: the fixed DecodeLen.
func (g *Generator) SampleDecode() int { return g.DecodeLen }

// Next produces the next request.
func (g *Generator) Next() Request {
	r := Request{ID: g.next, Context: g.SampleContext(), Decode: g.SampleDecode()}
	g.next++
	return r
}

// Batch produces n requests.
func (g *Generator) Batch(n int) []Request {
	rs := make([]Request, n)
	for i := range rs {
		rs[i] = g.Next()
	}
	return rs
}

// ---------------------------------------------------------------------------
// Synthetic variation sets (Fig. 17)
// ---------------------------------------------------------------------------

// ThreeSigma builds the paper's Fig. 17 workload: requests centred on a
// target context with 3-sigma variation, truncated to [mean/2, 3*mean/2] so
// the mean context is exactly the sweep point.
func ThreeSigma(meanContext int, seed int64) *Generator {
	m := float64(meanContext)
	t := Trace{
		Name:  fmt.Sprintf("3sigma-%d", meanContext),
		Suite: "synthetic",
		Mean:  m,
		Std:   m / 6, // 3 sigma spans half the mean
		Min:   int(m / 2),
		Max:   int(3 * m / 2),
	}
	return NewGenerator(t, seed)
}

// Uniform builds a fixed-length workload (every request at exactly n
// tokens) for controlled microbenchmarks.
func Uniform(n int, seed int64) *Generator {
	t := Trace{Name: fmt.Sprintf("uniform-%d", n), Suite: "synthetic", Mean: float64(n), Std: 0, Min: n, Max: n}
	return NewGenerator(t, seed)
}

// ---------------------------------------------------------------------------
// Heavy-tailed workloads (serving scenario diversity beyond Table II)
// ---------------------------------------------------------------------------

// boundedPareto draws from a Pareto distribution with tail index alpha
// truncated to [lo, hi], via the inverse CDF. Small alpha (≈1) puts
// real mass on the extreme contexts that stress KV capacity; large
// alpha concentrates near lo.
func boundedPareto(rng *rand.Rand, lo, hi float64, alpha float64) float64 {
	u := rng.Float64()
	r := math.Pow(lo/hi, alpha)
	return lo / math.Pow(1-u*(1-r), 1/alpha)
}

// boundedParetoMean is the analytic mean of the bounded Pareto.
func boundedParetoMean(lo, hi, alpha float64) float64 {
	if alpha == 1 {
		return lo * hi / (hi - lo) * math.Log(hi/lo)
	}
	r := math.Pow(lo/hi, alpha)
	return alpha * math.Pow(lo, alpha) / (1 - r) *
		(math.Pow(hi, 1-alpha) - math.Pow(lo, 1-alpha)) / (1 - alpha)
}

// minParetoAlpha is the smallest tail index HeavyTailed models. The
// inverse-CDF draw's relative error grows like 2^-53/alpha, so below
// this a draw can leave [lo, hi] (alpha 1e-16 on [100, 200] drew 303).
const minParetoAlpha = 0x1p-26

// HeavyTailed builds a generator whose context lengths follow a bounded
// Pareto (power-law) distribution on [minCtx, maxCtx] with tail index
// alpha — mostly modest prompts with a fat tail of near-window ones,
// the mix that makes static T_max reservation waste the most capacity
// (every small request still reserves for the tail). Alpha must be
// finite and at least minParetoAlpha, and its analytic mean must come
// out finite and inside the bounds: a large alpha overflows the mean's
// powers (alpha 95 on [2048, 30000] gives +Inf).
func HeavyTailed(minCtx, maxCtx int, alpha float64, seed int64) (*Generator, error) {
	if minCtx <= 0 || maxCtx <= minCtx || !(alpha >= minParetoAlpha) || math.IsInf(alpha, 1) {
		return nil, fmt.Errorf("workload: heavy-tailed params out of range (min %d, max %d, alpha %g)",
			minCtx, maxCtx, alpha)
	}
	mean := boundedParetoMean(float64(minCtx), float64(maxCtx), alpha)
	if !(mean >= float64(minCtx) && mean <= float64(maxCtx)) {
		return nil, fmt.Errorf("workload: heavy-tailed alpha %g has mean %g outside [%d, %d]",
			alpha, mean, minCtx, maxCtx)
	}
	t := Trace{
		Name:  fmt.Sprintf("heavy-%d-%d", minCtx, maxCtx),
		Suite: "synthetic",
		Mean:  mean,
		Std:   mean, // descriptive: heavy tails have std on the order of the mean
		Min:   minCtx,
		Max:   maxCtx,
	}
	g := NewGenerator(t, seed)
	g.sampleCtx = func(rng *rand.Rand) int {
		return int(boundedPareto(rng, float64(minCtx), float64(maxCtx), alpha))
	}
	return g, nil
}

// ---------------------------------------------------------------------------
// Statistics (to verify Table II reproduction)
// ---------------------------------------------------------------------------

// Stats summarises a sample of context lengths.
type Stats struct {
	Mean, Std        float64
	Min, Max, Median int
	N                int
}

// Summarize computes sample statistics over request context lengths.
func Summarize(reqs []Request) Stats {
	if len(reqs) == 0 {
		return Stats{}
	}
	xs := make([]int, len(reqs))
	var sum float64
	mn, mx := reqs[0].Context, reqs[0].Context
	for i, r := range reqs {
		xs[i] = r.Context
		sum += float64(r.Context)
		if r.Context < mn {
			mn = r.Context
		}
		if r.Context > mx {
			mx = r.Context
		}
	}
	mean := sum / float64(len(reqs))
	var ss float64
	for _, x := range xs {
		d := float64(x) - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(reqs)))
	sort.Ints(xs)
	return Stats{Mean: mean, Std: std, Min: mn, Max: mx, Median: xs[len(xs)/2], N: len(reqs)}
}
