package serve

import (
	"fmt"

	"pimphony/internal/workload"
)

// Order names one replica order a FleetView can search. Every order
// breaks ties to the lowest replica index.
type Order int

const (
	// MostFreeKV orders replicas by unreserved KV pool bytes,
	// descending.
	MostFreeKV Order = iota
	// FewestTokens orders replicas by outstanding decode tokens
	// (remaining generation tokens of active requests plus the full
	// generation length of queued ones), ascending.
	FewestTokens
	// ByIndex orders replicas by index.
	ByIndex
)

// FleetView is the read-only fleet a Placement searches for the request
// being placed. Its searches visit only the decode replicas that can
// take new work — online and not slowdown-degraded — and return -1 when
// none qualifies.
type FleetView interface {
	// Len is the number of decode replicas: replica indexes run from 0
	// to Len()-1, whether or not a replica is a candidate now.
	Len() int
	// First returns the first candidate in order o.
	First(o Order) int
	// FirstFit returns the first candidate in order o whose allocator
	// could admit the request right now at its serving horizon (the
	// predicate the engine's own admission uses). A ByIndex search
	// starts at replica from and wraps once; the keyed orders ignore
	// from.
	FirstFit(o Order, from int) int
}

// Placement places one request on a decode replica index, or returns -1
// to hold it in the fleet's global queue until a later decision point
// (the cross-replica admission control: no replica has KV headroom, so
// the request should not yet be committed to any per-replica queue).
// Placement receives the arrival the request came with, so a policy
// can key on its session. Placements may keep state, so each simulation
// needs its own instance.
type Placement interface {
	Name() string
	Place(a workload.Arrival, v FleetView) int
}

// KVHeadroom places on the fitting replica with the most free KV pool
// (ties break to the lowest index) and holds when nothing fits — the
// default global-scheduler policy: pack by capacity headroom, never
// commit a request to a replica that would have to queue it on memory.
func KVHeadroom() Placement { return kvHeadroom{} }

type kvHeadroom struct{}

func (kvHeadroom) Name() string { return "kv-headroom" }

func (kvHeadroom) Place(_ workload.Arrival, v FleetView) int { return v.FirstFit(MostFreeKV, 0) }

// LeastTokensFit places on the fitting replica owing the fewest decode
// tokens (ties break to the lowest index) and holds when nothing fits —
// the load-balancing analogue of LeastOutstandingTokens under the
// fleet's admission control.
func LeastTokensFit() Placement { return leastTokensFit{} }

type leastTokensFit struct{}

func (leastTokensFit) Name() string { return "least-tokens-fit" }

func (leastTokensFit) Place(_ workload.Arrival, v FleetView) int { return v.FirstFit(FewestTokens, 0) }

// RoundRobinFit cycles through the fitting replicas in decision order
// and holds when nothing fits — the load-oblivious fleet baseline. The
// cursor advances only on a successful placement.
func RoundRobinFit() Placement { return &roundRobinFit{} }

type roundRobinFit struct{ next int }

func (*roundRobinFit) Name() string { return "round-robin-fit" }

func (p *roundRobinFit) Place(_ workload.Arrival, v FleetView) int {
	i := v.FirstFit(ByIndex, p.next%v.Len())
	if i >= 0 {
		p.next = i + 1
	}
	return i
}

// PlacementByName builds a fresh placement instance from its CLI name.
func PlacementByName(name string) (Placement, error) {
	switch name {
	case "kv-headroom":
		return KVHeadroom(), nil
	case "least-tokens-fit":
		return LeastTokensFit(), nil
	case "round-robin-fit":
		return RoundRobinFit(), nil
	default:
		return nil, fmt.Errorf("serve: unknown placement %q (known: %v)", name, PlacementNames())
	}
}

// PlacementNames lists the selectable fleet placement policies in CLI
// order.
func PlacementNames() []string {
	return []string{"kv-headroom", "least-tokens-fit", "round-robin-fit"}
}
