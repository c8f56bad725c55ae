package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// minReps is the fewest untraced repetitions a workload gets, however
// short --seconds is.
const minReps = 3

// childTimeout bounds one child process, so a hung simulation cannot
// outlive the benchmark.
const childTimeout = 120 * time.Second

// calibIters is the length of the calibration loop, about 0.1 s on the
// reference host.
const calibIters = 1 << 26

// calibRefSeconds is the calibration loop's time on the reference host
// (see README.md). Host times are reported as seconds on that host.
const calibRefSeconds = 0.1

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed integer multiply-xor loop. On a shared host
// the simulator's speed drifts by up to half over minutes as neighbours
// come and go; the loop's speed moves with that drift, so scaling each
// child's host times by calibRefSeconds over the loop's time, taken just
// before and just after the child, removes much of it.
func calibrate() float64 {
	start := time.Now()
	acc := uint64(1469598103934665603)
	for i := 0; i < calibIters; i++ {
		acc ^= uint64(i)
		acc *= 1099511628211
	}
	calibSink = acc
	return time.Since(start).Seconds()
}

// scaleTimes converts a child's host times to reference-host time and
// recomputes the simulation rate from the scaled run time.
func scaleTimes(r *childResult, f float64) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if v, ok := r.Values[m.Name]; ok && m.kind == hostTime {
				r.Values[m.Name] = v * f
			}
		}
	}
	if run := r.Values["run_s"]; run > 0 {
		r.Values["sim_tok_per_s"] = r.Values["cluster.sim_tokens"] / run
	}
}

// childWall is when one child process ran, as the parent saw it.
type childWall struct {
	start time.Time
	dur   time.Duration
}

// spawn runs one child process and reads its result. The child's peak
// resident set comes from the kernel's accounting of the finished
// process.
func spawn(ctx context.Context, exe, name string, seed int64, traced bool) (*childResult, childWall, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, childArgs(name, seed, traced)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	wall := childWall{start: time.Now()}
	err := cmd.Run()
	wall.dur = time.Since(wall.start)
	if err != nil {
		return nil, wall, fmt.Errorf("%s child: %w", name, err)
	}
	res, err := lastJSONLine(stdout.Bytes())
	if err != nil {
		return nil, wall, fmt.Errorf("%s child: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.Values["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, wall, nil
}

// childArgs is the command line of one child process.
func childArgs(name string, seed int64, traced bool) []string {
	trace := "0"
	if traced {
		trace = "1"
	}
	return []string{"-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace}
}

// lastJSONLine decodes the last non-empty line of a child's output.
func lastJSONLine(out []byte) (*childResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// measureWorkload runs cold child processes one at a time — a closed
// loop of one client — until the next one would end past the time
// budget (but at least minReps), then, when traced, one more child that
// profiles itself. A calibration brackets every child.
func measureWorkload(ctx context.Context, exe, name string, seed int64, budget time.Duration, traced bool) *workloadResult {
	wr := &workloadResult{EndToEnd: map[string]summary{}}
	fail := func(err error) {
		wr.Attempted++
		wr.Failed++
		wr.Problems = append(wr.Problems, err.Error())
	}
	var untraced []*childResult
	var durs []float64
	calib := calibrate()
	run := func(traced bool) (*childResult, error) {
		res, wall, err := spawn(ctx, exe, name, seed, traced)
		if err != nil {
			return nil, err
		}
		next := calibrate()
		f := calibRefSeconds / ((calib + next) / 2)
		calib = next
		scaleTimes(res, f)
		wr.Scale = append(wr.Scale, f)
		wr.runs = append(wr.runs, res)
		wr.wall = append(wr.wall, wall)
		durs = append(durs, wall.dur.Seconds())
		return res, nil
	}
	start := time.Now()
	for {
		res, err := run(false)
		if err != nil {
			fail(err)
			break // a child that cannot report would fail every repetition
		}
		untraced = append(untraced, res)
		next := time.Since(start) + time.Duration(median(durs)*float64(time.Second))
		if len(untraced) >= minReps && next > budget {
			break
		}
	}
	var tracedRes *childResult
	if traced && wr.Failed == 0 {
		res, err := run(true)
		if err != nil {
			fail(err)
		}
		tracedRes = res
	}

	wr.Runs = len(untraced)
	for _, m := range endToEnd {
		var xs []float64
		for _, r := range untraced {
			xs = append(xs, r.Values[m.Name])
		}
		wr.EndToEnd[m.Name] = summarize(m, xs)
	}
	for _, r := range wr.runs {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for _, p := range r.Problems {
			wr.Problems = append(wr.Problems, fmt.Sprintf("seed %d: %s", r.Seed, p))
		}
	}
	// Every repetition simulates the same inputs, so every modelled value,
	// work counter and digest must repeat exactly.
	if len(wr.runs) > 0 {
		ref := wr.runs[0]
		wr.Digest = ref.Digest
		for i, r := range wr.runs[1:] {
			if r.Digest != ref.Digest {
				wr.Problems = append(wr.Problems, fmt.Sprintf("run %d digest %.12s differs from run 0 %.12s", i+1, r.Digest, ref.Digest))
			}
			for _, m := range perLayer {
				if (m.kind == modelled || m.kind == work || m.kind == cacheWork) && r.Values[m.Name] != ref.Values[m.Name] {
					wr.Problems = append(wr.Problems, fmt.Sprintf("run %d %s = %v, run 0 had %v", i+1, m.Name, r.Values[m.Name], ref.Values[m.Name]))
				}
			}
		}
	}
	if tracedRes != nil {
		wr.PerLayer = map[string]float64{}
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = tracedRes.Values[m.Name]
		}
		if base := wr.EndToEnd["run_s"].Median; base > 0 {
			wr.PerLayer["trace.overhead_pct"] = 100 * (tracedRes.Values["run_s"]/base - 1)
		}
	}
	wr.Correct = wr.Failed == 0 && len(wr.Problems) == 0 && wr.Runs > 0
	return wr
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the last output line from a set: end-to-end medians
// without tracing, the traced run's per-layer values with it. With more
// than one workload, metric names carry a "<workload>/" prefix.
func result(set *setFile, traced bool) resultLine {
	out := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range sortedKeys(set.Workloads) {
		wr := set.Workloads[name]
		out.Correct = out.Correct && wr.Correct
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		key := func(m string) string {
			if len(set.Workloads) > 1 {
				return name + "/" + m
			}
			return m
		}
		if traced {
			out.Correct = out.Correct && wr.PerLayer != nil
			for _, m := range perLayer {
				out.Metrics[key(m.Name)] = metricValue{wr.PerLayer[m.Name], m.Unit}
			}
			continue
		}
		for _, m := range endToEnd {
			out.Metrics[key(m.Name)] = metricValue{wr.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	return out
}

// writeJSON writes v as indented JSON, creating the directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
