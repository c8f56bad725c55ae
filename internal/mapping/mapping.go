// Package mapping implements the intra-module workload partitioning
// strategies compared in Sec. IV of the paper: conventional Head-First
// Partitioning (HFP), which assigns whole (request, head) attention tiles
// to individual PIM channels, and PIMphony's Token-Centric Partitioning
// (TCP), which splits the token axis of every head across all channels.
//
// The package is purely combinatorial: it produces per-channel work lists
// and balance metrics for the partitioning figures and examples, and
// backend's reference pricer prices its work lists through
// internal/perfmodel. The decode stepper derives the same per-channel
// shapes in closed form.
package mapping

import (
	"fmt"
)

// Request is one in-flight decode request with its current context length.
type Request struct {
	ID     int
	Tokens int // KV-cache entries currently attended over
}

// Work is one unit of attention work mapped onto a channel: the given
// number of tokens of one KV head of one request. Queries counts the query
// vectors sharing those tokens (GQA group size).
type Work struct {
	Req     int
	KVHead  int
	Tokens  int
	Queries int
}

// Assignment is the per-channel work distribution within one module.
type Assignment struct {
	Strategy string
	Channels [][]Work
}

// Strategy partitions a batch of requests' attention heads over channels.
type Strategy interface {
	Name() string
	// Assign maps every (request, KV head) pair of the batch onto the
	// module's channels. kvHeads is the number of KV heads resident on this
	// module (after tensor parallelism), queries the GQA group size.
	Assign(reqs []Request, kvHeads, queries, channels int) (*Assignment, error)
}

// HFP is the conventional head/batch-first partitioning used by CENT,
// NeuPIMs and AttAcc: each (request, KV head) attention tile — the KV
// cache plus the query head(s) reading it — runs entirely on one channel,
// because a PIM channel can only compute against its own DRAM. Tiles are
// assigned round-robin; under GQA the whole query group stays with its KV.
//
// CapacityTokens, when positive, is the KV capacity of one channel in
// tokens for one head: a tile larger than a channel is force-split across
// ceil(tokens/capacity) channels (how conventional systems cope once a
// single request outgrows a channel, at the cost of extra channels per
// tile).
type HFP struct {
	CapacityTokens int
}

// Name implements Strategy.
func (HFP) Name() string { return "hfp" }

// Assign implements Strategy.
func (s HFP) Assign(reqs []Request, kvHeads, queries, channels int) (*Assignment, error) {
	if err := validate(reqs, kvHeads, queries, channels); err != nil {
		return nil, err
	}
	a := &Assignment{Strategy: "hfp", Channels: make([][]Work, channels)}
	i := 0
	place := func(req, head, tokens int) {
		ch := i % channels
		a.Channels[ch] = append(a.Channels[ch], Work{Req: req, KVHead: head, Tokens: tokens, Queries: queries})
		i++
	}
	for _, r := range reqs {
		for h := 0; h < kvHeads; h++ {
			t := r.Tokens
			if s.CapacityTokens > 0 {
				for t > s.CapacityTokens {
					place(r.ID, h, s.CapacityTokens)
					t -= s.CapacityTokens
				}
			}
			if t > 0 {
				place(r.ID, h, t)
			}
		}
	}
	return a, nil
}

// TCP is PIMphony's token-centric partitioning: the token range of every
// (request, head) pair is sliced evenly across all channels, so every
// channel participates in every head regardless of batch size.
type TCP struct{}

// Name implements Strategy.
func (TCP) Name() string { return "tcp" }

// Assign implements Strategy.
func (TCP) Assign(reqs []Request, kvHeads, queries, channels int) (*Assignment, error) {
	if err := validate(reqs, kvHeads, queries, channels); err != nil {
		return nil, err
	}
	a := &Assignment{Strategy: "tcp", Channels: make([][]Work, channels)}
	for _, r := range reqs {
		for h := 0; h < kvHeads; h++ {
			base := r.Tokens / channels
			rem := r.Tokens % channels
			for ch := 0; ch < channels; ch++ {
				t := base
				if ch < rem {
					t++
				}
				if t == 0 {
					continue
				}
				a.Channels[ch] = append(a.Channels[ch], Work{Req: r.ID, KVHead: h, Tokens: t, Queries: queries})
			}
		}
	}
	return a, nil
}

func validate(reqs []Request, kvHeads, queries, channels int) error {
	if channels <= 0 {
		return fmt.Errorf("mapping: channels must be positive, got %d", channels)
	}
	if kvHeads <= 0 {
		return fmt.Errorf("mapping: kvHeads must be positive, got %d", kvHeads)
	}
	if queries <= 0 {
		return fmt.Errorf("mapping: queries must be positive, got %d", queries)
	}
	for _, r := range reqs {
		if r.Tokens < 0 {
			return fmt.Errorf("mapping: request %d has negative token count %d", r.ID, r.Tokens)
		}
	}
	return nil
}

// TokenLoads returns the total token count per channel (a latency proxy).
func (a *Assignment) TokenLoads() []int {
	loads := make([]int, len(a.Channels))
	for ch, ws := range a.Channels {
		for _, w := range ws {
			loads[ch] += w.Tokens
		}
	}
	return loads
}

// Utilization measures channel balance as mean(load)/max(load) over the
// token-count proxy. 1.0 means perfectly balanced; idle channels and
// stragglers both reduce it. An empty assignment has zero utilization.
func (a *Assignment) Utilization() float64 {
	loads := a.TokenLoads()
	var sum, max int
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return 0
	}
	return float64(sum) / float64(len(loads)) / float64(max)
}

// ActiveChannels counts channels with any work.
func (a *Assignment) ActiveChannels() int {
	n := 0
	for _, ws := range a.Channels {
		if len(ws) > 0 {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Fig. 6 style activity grids
// ---------------------------------------------------------------------------

// ActivityGrid is a channels x timesteps boolean activity map used by the
// partitioning visualizer to reproduce the paper's Fig. 6 comparison.
type ActivityGrid struct {
	Strategy string
	Grid     [][]bool // [step][channel]
}

// PipelineActivity builds a schematic activity grid: at each pipeline step,
// the given assignment executes the work of one layer for the requests
// scheduled in that step (HFP activates only the channels owning those
// requests' heads; TCP activates all channels that received token slices).
func PipelineActivity(strategy Strategy, reqs []Request, kvHeads, queries, channels, steps int, reqsAtStep func(step int) []int) (*ActivityGrid, error) {
	g := &ActivityGrid{Strategy: strategy.Name(), Grid: make([][]bool, steps)}
	for s := 0; s < steps; s++ {
		active := reqsAtStep(s)
		set := map[int]bool{}
		for _, id := range active {
			set[id] = true
		}
		var sub []Request
		for _, r := range reqs {
			if set[r.ID] {
				sub = append(sub, r)
			}
		}
		a, err := strategy.Assign(sub, kvHeads, queries, channels)
		if err != nil {
			return nil, err
		}
		row := make([]bool, channels)
		for ch, ws := range a.Channels {
			row[ch] = len(ws) > 0
		}
		g.Grid[s] = row
	}
	return g, nil
}

// ActiveFraction is the fraction of (step, channel) cells that were active.
func (g *ActivityGrid) ActiveFraction() float64 {
	var on, total int
	for _, row := range g.Grid {
		for _, b := range row {
			total++
			if b {
				on++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(on) / float64(total)
}
