package serve

import (
	"testing"

	"pimphony/internal/workload"
)

// LinearOnly wraps a placement so that it searches the linear oracle
// view (views_test.go) in place of the indexed view it is handed: the
// same policy code over a second FleetView implementation.
func LinearOnly(p Placement) Placement { return linearOnly{p} }

// NoCandidates is a FleetView of n replicas none of which can take
// work, enough for a policy that picks by index alone.
func NoCandidates(n int) FleetView { return make(linearView, n) }

// WithLeapHorizon returns cfg with every engine leap capped at n
// iterations (1 prices one iteration per call, the reference the
// equivalence suites compare leaping runs against).
func WithLeapHorizon(cfg Config, n int) Config {
	cfg.leapHorizon = n
	return cfg
}

// LargeFleet is one of the larger fleets the lookahead oracles run
// (lookahead_test.go): a fresh configuration per run and its arrivals.
type LargeFleet struct {
	Name     string
	Config   func() Config
	Arrivals []workload.Arrival
}

// LargeFleets lists the larger fleets: six migrating and stealing
// decoders under crashes and under slowdowns, and an SLO-autoscaled
// fleet of eight.
func LargeFleets(tb testing.TB) []LargeFleet {
	var out []LargeFleet
	for _, c := range largeFleets(tb) {
		out = append(out, LargeFleet{Name: c.name, Config: c.cfg, Arrivals: c.arr})
	}
	return out
}
