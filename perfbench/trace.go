package main

import (
	"fmt"
	"time"
)

// traceEvent is one Chrome trace-event record (the JSON format Perfetto
// and chrome://tracing load as-is). Times are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace document.
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// chromeTrace lays out every child of a set on one track per workload:
// a span per child process as the parent timed it, the child's own
// spans inside it, all tagged with the run's id, and the traced run's
// layer shares as a counter.
func chromeTrace(set *setFile, order []string, t0 time.Time) traceFile {
	const pid = 1
	tf := traceFile{DisplayTimeUnit: "ms", OtherData: map[string]any{
		"seed": set.Seed, "go_version": set.GoVersion, "num_cpu": set.NumCPU}}
	add := func(e traceEvent) { tf.TraceEvents = append(tf.TraceEvents, e) }
	add(traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": "perfbench"}})
	since := func(t time.Time) float64 { return micros(t.Sub(t0)) }
	for i, name := range order {
		wr := set.Workloads[name]
		if wr == nil {
			continue
		}
		tid := i + 1
		add(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
		for j, r := range wr.runs {
			id := fmt.Sprintf("%s#%d", name, j)
			label := "child"
			if r.Traced {
				label = "child (traced)"
			}
			w := wr.wall[j]
			add(traceEvent{Name: label, Cat: "process", Ph: "X", Ts: since(w.start), Dur: micros(w.dur),
				Pid: pid, Tid: tid, Args: map[string]any{"run_id": id, "seed": r.Seed, "digest": r.Digest}})
			base := since(time.Unix(0, r.StartUnixNano))
			var end float64
			for _, s := range r.Spans {
				add(traceEvent{Name: s.Name, Cat: "span", Ph: "X", Ts: base + s.StartUs, Dur: s.DurUs,
					Pid: pid, Tid: tid, Args: map[string]any{"run_id": id}})
				end = max(end, base+s.StartUs+s.DurUs)
			}
			if r.Traced {
				shares := map[string]any{}
				for _, l := range layers {
					shares[l] = r.Values[l+".self_pct"]
				}
				add(traceEvent{Name: name + " self %", Ph: "C", Ts: end, Pid: pid, Tid: tid, Args: shares})
			}
		}
	}
	return tf
}
