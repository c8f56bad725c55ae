package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// summary is one metric's samples across the repetitions of a set.
type summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize computes a metric's median and quartiles.
func summarize(m metricDef, samples []float64) summary {
	s := summary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, N: len(samples),
		Samples: append([]float64(nil), samples...)}
	if len(samples) > 0 {
		s.Median = median(samples)
		s.Q1, s.Q3 = quartiles(samples)
	}
	return s
}

// median is the middle value (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the method the
// benchmark's acceptance spread is defined with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// gain is the relative change from base to cur, signed so that a
// positive value is an improvement in the metric's direction.
func gain(better string, base, cur float64) float64 {
	if base == 0 {
		if cur == base {
			return 0
		}
		return math.Inf(1) * sign(better, cur-base)
	}
	return sign(better, cur-base) * math.Abs((cur-base)/base)
}

func sign(better string, d float64) float64 {
	switch {
	case d == 0:
		return 0
	case (d < 0) == (better == "lower"):
		return 1
	default:
		return -1
	}
}

// beats reports whether every sample of a is better than every sample
// of b.
func beats(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign(better, x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

// verdict judges one metric between two sets by its direction and
// bound. A side whose quartile spread is wider than the bound leaves the
// metric unresolved, unless every run of one side beats every run of the
// other; otherwise a median change beyond the bound is an improvement or
// a regression, and anything within it is unchanged.
func verdict(base, cur summary) string {
	bound := base.Bound
	separated := beats(base.Better, cur.Samples, base.Samples) || beats(base.Better, base.Samples, cur.Samples)
	if (base.spread() > bound || cur.spread() > bound) && !separated {
		return unresolved
	}
	switch g := gain(base.Better, base.Median, cur.Median); {
	case g > bound:
		return improved
	case g < -bound:
		return worse
	default:
		return unchanged
	}
}

// setFile is one benchmark set as written by -out: every workload's
// end-to-end summaries, its traced run's per-layer values and its
// digest.
type setFile struct {
	Schema    int                        `json:"schema"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	GoVersion string                     `json:"go_version"`
	NumCPU    int                        `json:"num_cpu"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const setSchema = 1

// workloadResult is one workload's part of a set.
type workloadResult struct {
	Runs      int                `json:"runs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Scale is each child's host-time factor, reference over measured
	// calibration time: a raw time is the reported one divided by it.
	Scale []float64      `json:"scale"`
	runs  []*childResult // every child, for the trace file
	wall  []childWall    // when each child ran
}

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f setFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != setSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, f.Schema, setSchema)
	}
	return &f, nil
}

// compareSets prints one row per workload and end-to-end metric with
// its verdict, then whether each workload's digest and every modelled
// value and work counter repeat exactly. It reports whether anything
// got worse or the simulated results differ.
func compareSets(w io.Writer, base, cur *setFile) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tchange\tbound\tbase spread\tnew spread\tverdict\t")
	var exact []string
	for _, name := range sortedKeys(base.Workloads) {
		b, c := base.Workloads[name], cur.Workloads[name]
		if c == nil {
			fmt.Fprintf(tw, "%s\t(missing from new set)\t\t\t\t\t\t\t\t%s\t\n", name, worse)
			regressed = true
			continue
		}
		for _, m := range endToEnd {
			bs, ok1 := b.EndToEnd[m.Name]
			cs, ok2 := c.EndToEnd[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(bs, cs)
			regressed = regressed || v == worse
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\t\n",
				name, m.Name, m.Unit, bs.Median, cs.Median, 100*gain(m.Better, bs.Median, cs.Median),
				100*bs.Bound, 100*bs.spread(), 100*cs.spread(), v)
		}
		if b.Digest != c.Digest {
			regressed = true
			exact = append(exact, fmt.Sprintf("%s: digest differs (%.12s vs %.12s)", name, b.Digest, c.Digest))
		} else {
			exact = append(exact, fmt.Sprintf("%s: digest identical (%.12s)", name, b.Digest))
		}
		for _, k := range sortedKeys(b.PerLayer) {
			m, ok := metricByName(k)
			cv, present := c.PerLayer[k]
			if ok && (m.kind == modelled || m.kind == work || m.kind == cacheWork) && present && cv != b.PerLayer[k] {
				regressed = true
				exact = append(exact, fmt.Sprintf("%s: %s differs (%v vs %v)", name, k, b.PerLayer[k], cv))
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	for _, line := range exact {
		fmt.Fprintln(w, line)
	}
	return regressed
}
