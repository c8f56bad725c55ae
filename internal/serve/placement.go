package serve

import (
	"fmt"

	"pimphony/internal/workload"
)

// FleetLoad is one decode replica's state at a placement decision: its
// queue state plus the KV-headroom view the global scheduler admits
// against.
type FleetLoad struct {
	// OutstandingTokens is the decode work still owed by the replica:
	// remaining generation tokens of active requests plus the full
	// generation length of pending ones.
	OutstandingTokens int
	// Active and Pending are the replica's admitted and queued request
	// counts.
	Active, Pending int
	// Clock is the replica's simulated time (it can run ahead of the
	// request being placed by up to one decode iteration).
	Clock float64
	// Role is the replica's place in the prefill/decode split
	// (RoleUnified or RoleDecode; pure-prefill replicas are not decode
	// targets and never appear in a placement decision).
	Role Role
	// FreeKVBytes is the replica's unreserved KV pool capacity.
	FreeKVBytes int64
	// Fits reports whether the replica's allocator could admit the
	// request being placed right now at its serving horizon (the same
	// predicate the engine's own admission uses). Placement against
	// fleet-wide headroom means preferring fitting replicas; a request
	// fitting nowhere is held in the global queue until capacity frees.
	Fits bool
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
	Place(a workload.Arrival, loads []FleetLoad) int
}

// indexedPlacement is the built-in policies' O(log n) fast path: answer
// a placement from the fleet's ordered indexes (views.go) instead of a
// freshly built []FleetLoad scan. Each implementation must pick the
// byte-identical replica its Place method picks — the indexes order by
// (key, replica index), so "first acceptable entry in index order"
// reproduces the scans' lowest-index tie-breaking exactly; the oracle
// suite in views_test.go pins the equivalence. Custom Placements
// without this interface still get the full snapshot scan.
type indexedPlacement interface {
	placeIndexed(fs *fleetSim, a workload.Arrival) int
}

// KVHeadroom places on the fitting replica with the most free KV pool
// (ties break to the lowest index) and holds when nothing fits — the
// default global-scheduler policy: pack by capacity headroom, never
// commit a request to a replica that would have to queue it on memory.
func KVHeadroom() Placement { return kvHeadroom{} }

type kvHeadroom struct{}

func (kvHeadroom) Name() string { return "kv-headroom" }

func (kvHeadroom) Place(_ workload.Arrival, loads []FleetLoad) int {
	best := -1
	for i, l := range loads {
		if !l.Fits {
			continue
		}
		if best < 0 || l.FreeKVBytes > loads[best].FreeKVBytes {
			best = i
		}
	}
	return best
}

// placeIndexed walks online decoders by free KV descending (ties to the
// lowest index) and takes the first that can admit the request.
func (kvHeadroom) placeIndexed(fs *fleetSim, a workload.Arrival) int {
	dst := -1
	fs.views.byFreeKV.ascend(func(i int) bool {
		if !fs.decoders[i].eng.HasHeadroom(a.Req) {
			return true
		}
		dst = i
		return false
	})
	return dst
}

// LeastTokensFit places on the fitting replica owing the fewest decode
// tokens (ties break to the lowest index) and holds when nothing fits —
// the load-balancing analogue of LeastOutstandingTokens under the
// fleet's admission control.
func LeastTokensFit() Placement { return leastTokensFit{} }

type leastTokensFit struct{}

func (leastTokensFit) Name() string { return "least-tokens-fit" }

func (leastTokensFit) Place(_ workload.Arrival, loads []FleetLoad) int {
	best := -1
	for i, l := range loads {
		if !l.Fits {
			continue
		}
		if best < 0 || l.OutstandingTokens < loads[best].OutstandingTokens {
			best = i
		}
	}
	return best
}

// placeIndexed walks online decoders by outstanding decode tokens
// ascending (ties to the lowest index) and takes the first that can
// admit the request.
func (leastTokensFit) placeIndexed(fs *fleetSim, a workload.Arrival) int {
	dst := -1
	fs.views.byTokens.ascend(func(i int) bool {
		if !fs.decoders[i].eng.HasHeadroom(a.Req) {
			return true
		}
		dst = i
		return false
	})
	return dst
}

// RoundRobinFit cycles through the fitting replicas in decision order
// and holds when nothing fits — the load-oblivious fleet baseline.
func RoundRobinFit() Placement { return &roundRobinFit{} }

type roundRobinFit struct{ next int }

func (*roundRobinFit) Name() string { return "round-robin-fit" }

func (p *roundRobinFit) Place(_ workload.Arrival, loads []FleetLoad) int {
	for probe := 0; probe < len(loads); probe++ {
		i := (p.next + probe) % len(loads)
		if loads[i].Fits {
			p.next = i + 1
			return i
		}
	}
	return -1
}

// placeIndexed resumes the cyclic probe at the cursor over the online
// set (keyed by replica index): entries at or after the cursor first,
// then wrapping to those before it. The linear probe visited non-online
// replicas too, but they never fit, so skipping them is identical; the
// cursor advances only on a successful placement, as in Place. Degraded
// replicas stay in the online index (they are online), so the probe
// skips them explicitly, matching the snapshot's Fits=false.
func (p *roundRobinFit) placeIndexed(fs *fleetSim, a workload.Arrival) int {
	start := p.next % len(fs.decoders)
	dst := -1
	probe := func(i int) bool {
		if fs.degraded(i) || !fs.decoders[i].eng.HasHeadroom(a.Req) {
			return true
		}
		dst = i
		return false
	}
	fs.views.online.ascendFrom(int64(start), start, probe)
	if dst < 0 {
		fs.views.online.ascend(func(i int) bool {
			if i >= start {
				return false // wrapped back to the cursor; stop
			}
			return probe(i)
		})
	}
	if dst >= 0 {
		p.next = dst + 1
	}
	return dst
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
