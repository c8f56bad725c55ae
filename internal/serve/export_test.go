package serve

// LinearOnly wraps a placement so that it searches the linear oracle
// view (views_test.go) in place of the indexed view it is handed: the
// same policy code over a second FleetView implementation.
func LinearOnly(p Placement) Placement { return linearOnly{p} }

// NoCandidates is a FleetView of n replicas none of which can take
// work, enough for a policy that picks by index alone.
func NoCandidates(n int) FleetView { return make(linearView, n) }
