package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"pimphony/internal/cluster"
	"pimphony/internal/perfmodel"
	"pimphony/internal/sweep"
	"pimphony/internal/timing"
)

// span is one timed call the benchmark made, relative to the start of
// its process.
type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// tracer keeps a process's spans in memory until it reports them.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	start := time.Now()
	return func() {
		t.spans = append(t.spans, span{Name: name,
			StartUs: micros(start.Sub(t.t0)), DurUs: micros(time.Since(start))})
	}
}

// spanSeconds totals the duration of every span with a name.
func spanSeconds(spans []span, name string) float64 {
	var us float64
	for _, s := range spans {
		if s.Name == name {
			us += s.DurUs
		}
	}
	return us / 1e6
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// childResult is what one measured process reports to its parent, as
// the last line of its standard output.
type childResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// StartUnixNano is when the process's main began, on the wall clock
	// the parent shares, so spans line up across processes.
	StartUnixNano int64    `json:"start_unix_nano"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	Problems      []string `json:"problems,omitempty"`
	// Values holds every metric the process measured, by name.
	Values map[string]float64 `json:"values"`
	// Digest is a SHA-256 over the inputs and every modelled value and
	// work counter: equal digests mean the run simulated the same thing
	// and got the same answer.
	Digest string `json:"digest"`
	Spans  []span `json:"spans"`
}

// perfCounters sums the shared kernel caches' lookups and misses over a
// set of devices.
func perfCounters(devices []timing.Device) (lookups, misses int64) {
	for _, d := range devices {
		s := perfmodel.Shared(d)
		lookups += s.CacheLookups()
		misses += int64(s.CacheMisses())
	}
	return lookups, misses
}

// setupReps is how many times a child sets its workload up.
const setupReps = 15

// measure runs one workload once in this process: set-up, the timed
// simulation calls and the checks. t0 is when the process started. A
// traced run also profiles itself and re-runs the simulation warm.
func measure(ctx context.Context, w workloadDef, seed int64, short, traced bool, t0 time.Time) *childResult {
	res := &childResult{Workload: w.name, Seed: seed, Traced: traced,
		StartUnixNano: t0.UnixNano(), Values: map[string]float64{}}
	fail := func(err error) *childResult {
		res.Failed = max(res.Attempted, 1)
		res.Attempted = res.Failed
		res.Problems = append(res.Problems, err.Error())
		return res
	}
	tr := &tracer{t0: t0}
	var prof bytes.Buffer
	// One sweep worker: the simulation is then a single thread whose
	// cost does not depend on the host's core count.
	sweep.SetDefault(1)
	// Set up setupReps times and keep the last; setup_s is the fastest.
	// A set-up lasts milliseconds, and on a shared host bursts of
	// interference tens of milliseconds long stretch some repetitions to
	// twice the time, so the fastest is the closest to the work itself.
	// Each starts from a collected heap, so one repetition's garbage is
	// not collected inside the next. Every repetition must build the same
	// inputs.
	var p *prepared
	var fastest float64
	var setupSpans []span
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		// The profile covers one set-up and the run, as a user's process
		// would.
		if traced && i == setupReps-1 {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fail(fmt.Errorf("starting CPU profile: %w", err))
			}
		}
		mark := len(tr.spans)
		start := time.Now()
		q, err := w.prepare(seed, short, tr)
		if err != nil {
			if traced && i == setupReps-1 {
				pprof.StopCPUProfile()
			}
			return fail(fmt.Errorf("set-up: %w", err))
		}
		if d := time.Since(start).Seconds(); i == 0 || d < fastest {
			fastest, setupSpans = d, tr.spans[mark:]
		}
		if p != nil && q.inputs != p.inputs {
			res.Problems = append(res.Problems, fmt.Sprintf("set-up %d generated different inputs", i))
		}
		p = q
	}
	res.Attempted = p.ops
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	lookups0, misses0 := perfCounters(p.devices)
	tok0 := cluster.SimulatedTokens()
	start := time.Now()
	out, err := p.run(ctx)
	run := time.Since(start).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return fail(fmt.Errorf("run: %w", err))
	}
	lookups1, misses1 := perfCounters(p.devices)
	simTokens := cluster.SimulatedTokens() - tok0
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)

	res.Failed = out.failed
	res.Problems = append(res.Problems, out.problems...)
	if simTokens < out.tokens {
		res.Problems = append(res.Problems, fmt.Sprintf("simulator priced %d tokens, fewer than the %d its reports count", simTokens, out.tokens))
	}
	if len(res.Problems) > 0 && res.Failed == 0 {
		res.Failed = 1 // a failed check fails the run
	}
	v := res.Values
	v["setup_s"] = fastest
	v["run_s"] = run
	v["sim_tok_per_s"] = float64(simTokens) / run
	for _, m := range perLayer {
		v[m.Name] = 0
	}
	for k, x := range out.values {
		v[k] = x
	}
	v["perfmodel.lookups"] = float64(lookups1 - lookups0)
	v["perfmodel.misses"] = float64(misses1 - misses0)
	if n := lookups1 - lookups0; n > 0 {
		v["perfmodel.hit_pct"] = 100 * (1 - float64(misses1-misses0)/float64(n))
	}
	v["cluster.sim_tokens"] = float64(simTokens)
	v["cluster.ns_per_sim_token"] = run * 1e9 / float64(simTokens)
	if n := v["serve.requests"]; n > 0 {
		v["serve.ns_per_request"] = run * 1e9 / n
	}
	v["runtime.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
	v["runtime.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	v["workload.gen_s"] = spanSeconds(setupSpans, "workload.gen")
	v["core.new_system_s"] = spanSeconds(setupSpans, "core.new_system")
	res.Digest = digest(p.inputs, v)

	if traced {
		shares, err := foldProfile(prof.Bytes())
		if err != nil {
			return fail(fmt.Errorf("folding CPU profile: %w", err))
		}
		for l, s := range shares {
			v[l+".self_pct"] = s
		}
		end := tr.begin("cluster.warm")
		warm, err := p.rerun(ctx)
		end()
		if err != nil {
			return fail(fmt.Errorf("warm re-run: %w", err))
		}
		v["cluster.warm_s"] = warm
		v["perfmodel.cold_s"] = run - warm
		if m := v["perfmodel.misses"]; m > 0 {
			v["perfmodel.ms_per_miss"] = (run - warm) * 1e3 / m
		}
	}
	res.Spans = tr.spans
	return res
}

// digest hashes the inputs fingerprint and every modelled value and
// work counter, in name order.
func digest(inputs [sha256.Size]byte, values map[string]float64) string {
	h := sha256.New()
	h.Write(inputs[:])
	var b [8]byte
	for _, name := range sortedKeys(values) {
		m, ok := metricByName(name)
		if !ok || (m.kind != modelled && m.kind != work) {
			continue
		}
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(values[name]))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
