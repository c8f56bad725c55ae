package serve

import (
	"fmt"
	"hash/fnv"

	"pimphony/internal/workload"
)

// The load-balancing policies of the Config{System, Replicas, Policy}
// shorthand. Each is a Placement that never holds a request: the
// shorthand's replicas are all online, healthy decode engines that
// queue what they cannot admit yet, as a load balancer's backends do.
// On an explicit fleet they would route to replicas that cannot take
// work; PlacementByName does not offer them there.

// RoundRobin cycles through replicas in arrival order, the baseline
// load-oblivious policy.
func RoundRobin() Placement { return &roundRobin{} }

type roundRobin struct{ next int }

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) Place(_ workload.Arrival, loads []FleetLoad) int { return p.pick(len(loads)) }

// placeIndexed picks by index alone; it reads no view.
func (p *roundRobin) placeIndexed(fs *fleetSim, _ workload.Arrival) int {
	return p.pick(len(fs.decoders))
}

func (p *roundRobin) pick(n int) int {
	i := p.next % n
	p.next++
	return i
}

// LeastOutstandingTokens routes to the replica owing the fewest decode
// tokens (ties break to the lowest index), the serving analogue of
// least-outstanding-requests that weights long generations more.
func LeastOutstandingTokens() Placement { return leastTokens{} }

type leastTokens struct{}

func (leastTokens) Name() string { return "least-tokens" }

func (leastTokens) Place(_ workload.Arrival, loads []FleetLoad) int {
	best := 0
	for i, l := range loads {
		if l.OutstandingTokens < loads[best].OutstandingTokens {
			best = i
		}
	}
	return best
}

// placeIndexed takes the first entry of the outstanding-tokens index:
// the fewest tokens owed, ties to the lowest index. The index covers
// online, healthy replicas — every replica of the shorthand.
func (leastTokens) placeIndexed(fs *fleetSim, _ workload.Arrival) int {
	return fs.views.byTokens.first()
}

// SessionAffinity hashes the arrival's session key to a replica, so all
// requests of one conversation land on the same engine (where a KV-prefix
// cache would make their contexts cheap to re-admit).
func SessionAffinity() Placement { return sessionAffinity{} }

type sessionAffinity struct{}

func (sessionAffinity) Name() string { return "session" }

func (sessionAffinity) Place(a workload.Arrival, loads []FleetLoad) int {
	return sessionReplica(a.Session, len(loads))
}

// placeIndexed picks by index alone; it reads no view.
func (sessionAffinity) placeIndexed(fs *fleetSim, a workload.Arrival) int {
	return sessionReplica(a.Session, len(fs.decoders))
}

// sessionReplica hashes a session key (FNV-1a over its 8 little-endian
// bytes) onto one of n replicas.
func sessionReplica(session, n int) int {
	h := fnv.New32a()
	var buf [8]byte
	v := uint64(session)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return int(h.Sum32() % uint32(n))
}

// PolicyByName builds a fresh load-balancing policy for the shorthand
// from its CLI name.
func PolicyByName(name string) (Placement, error) {
	switch name {
	case "round-robin":
		return RoundRobin(), nil
	case "least-tokens":
		return LeastOutstandingTokens(), nil
	case "session":
		return SessionAffinity(), nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (known: %v)", name, PolicyNames())
	}
}

// PolicyNames lists the selectable policies in CLI order.
func PolicyNames() []string { return []string{"round-robin", "least-tokens", "session"} }
