# Local mirror of .github/workflows/ci.yml: `make ci` runs the exact
# gates CI enforces.

GO ?= go

# Statement-coverage floor for the system-backend seam (make cover / CI).
BACKEND_COVER_MIN ?= 80

# Statement-coverage floor for the serving spine's advancement and
# placement seams (make cover-serve / CI).
SERVE_COVER_MIN ?= 85

.PHONY: all fmt fmt-check vet api-lint staticcheck build examples test test-short race-serve race-pricing fuzz-smoke fleet autoscale megafleet resilience bench bench-check bench-baseline perfbench-check cover cover-serve ci

all: build

# Format the tree in place.
fmt:
	gofmt -w .

# CI gate: fail if any file needs formatting.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# CI's exported-API lint: fail on an exported func, method or type, or
# an exported method of a module interface, with no caller outside test
# files (the module, cmd/ and examples/ included, plus perfbench); an
# interface method counts as called when some code calls it through the
# interface or on a type that implements it. staticcheck reports only
# unused unexported code.
api-lint:
	$(GO) test -count=1 -run TestExportedAPIHasCallers -v ./internal/doclint/

# CI pins staticcheck@2025.1.1; locally the gate runs when the tool is
# installed (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)
# and is skipped with a warning otherwise.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs the pinned version)" >&2; \
	fi

build:
	$(GO) build ./...

# Build and vet every documented example walkthrough explicitly.
examples:
	$(GO) vet ./examples/...
	$(GO) build -o /dev/null ./examples/...

# Full test suite (regenerates every paper figure on the full grids).
test:
	$(GO) test ./...

# The CI race lane: scaled-down grids, race detector on.
test-short:
	$(GO) test -race -short ./...

# The serving-spine race lane: the fleet scheduler and DES tests on
# their full grids, twice, under the race detector with a deadline — a
# schedule-order race that only bites on a warm second run still fails.
race-serve:
	$(GO) test -race -count=2 -timeout 10m ./internal/serve/

# The cold-pricing race lane: sweep workers pricing overlapping cold
# shapes share one perfmodel.Service and its cache (no stepper prices
# concurrently: a System's engines run on one goroutine); ten
# repetitions of the Service's oracle and of the stepper's under the
# race detector.
race-pricing:
	$(GO) test -race -count=10 -run TestConcurrentColdPricing ./internal/perfmodel/
	$(GO) test -race -count=10 -run TestStepMatchesReference ./internal/backend/

# Fuzz smoke: 10 seconds of the trace-flag grammar — a -trace value
# either fails as a flag or samples contexts inside its trace's bounds —
# then 10 seconds of the arrivals grammar — an -arrivals value at any
# rate either fails or returns n ordered, non-NaN arrival times, before
# a deadline — then 10 seconds of the fleet grammar — a -fleet value
# either fails or yields specs with a positive count, a known role and
# a non-negative KV budget that validate and build without a panic,
# before a deadline — then 30 seconds over the DES spine — randomized (seed,
# arrival-mix, fleet-shape, fault-schedule) tuples must keep every
# leaping run, whichever bound the spine derives, byte-identical to
# single stepping and every DES invariant intact — then 10 seconds of
# the KV pool differential oracle (the counting pool's chunk counts
# against the eager reference).
fuzz-smoke:
	$(GO) test -fuzz FuzzGeneratorByFlag -fuzztime 10s ./internal/workload/
	$(GO) test -fuzz FuzzArrivalsByFlag -fuzztime 10s ./internal/workload/
	$(GO) test -fuzz FuzzFleetSpecs -fuzztime 10s ./cmd/pimphony-serve/
	$(GO) test -fuzz FuzzDESSchedule -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz FuzzDPA -fuzztime 10s ./internal/memory/

# Render the fleet study on the full grids: homogeneous PIM-only and
# GPU fleets vs the disaggregated xPU-prefill/PIM-decode split at an
# equal aggregate KV budget (the README's fleet table).
fleet:
	$(GO) run ./cmd/pimphony-bench -run fleet

# Render the autoscaling study on the full grids: fixed vs SLO-driven
# provisioning under bursty diurnal and MMPP traffic, priced in
# goodput per dollar (the README's autoscale table).
autoscale:
	$(GO) run ./cmd/pimphony-bench -run autoscale

# Render the megafleet scaling study on the full grids: SLO-autoscaled
# fleets from 100 to 10k replicas under a diurnal trace, per-replica
# load held constant (the scheduler-scaling table).
megafleet:
	$(GO) run ./cmd/pimphony-bench -run megafleet

# Render the resilience study on the full grids: fixed vs SLO-autoscaled
# fleets under seeded replica-crash schedules (MTBF x MTTR), reporting
# goodput retained, retry amplification and tail-TTFT inflation.
resilience:
	$(GO) run ./cmd/pimphony-bench -run resilience

# One iteration of every paper-figure benchmark on the short grids.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# CI mirror of the bench-regression gate: time the serving experiments,
# hash their tables, and fail on >20% runtime regression or table drift
# vs the checked-in baseline. BENCH_serve.json is the CI artifact.
bench-check:
	$(GO) run ./cmd/pimphony-bench -short -gate-emit BENCH_serve.json -gate-check bench/baseline.json

# Regenerate the checked-in gate baseline (after an intentional change
# to a gated experiment's output or cost).
bench-baseline:
	$(GO) run ./cmd/pimphony-bench -short -gate-emit bench/baseline.json

# perfbench is its own module, so `go test ./...` never builds it: vet
# and unit-test it, then run every workload for about a second at seeds
# 1 and 2, and batch-ladder alone at seeds 3 to 12. run.sh exits
# non-zero when the build fails, a child crashes, a repetition's digest
# or work counter differs from the first, or an output check fails.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...
	bash perfbench/run.sh -seed 1 -seconds 1 -trace 0
	bash perfbench/run.sh -seed 2 -seconds 1 -trace 0
	for s in 3 4 5 6 7 8 9 10 11 12; do \
		bash perfbench/run.sh -workload batch-ladder -seed $$s -seconds 1 -trace 0 || exit 1; \
	done

# Coverage: a whole-tree profile (coverage.out, the CI artifact) plus a
# gate on the system-backend seam — internal/backend below
# $(BACKEND_COVER_MIN)% statement coverage fails the target. The backend
# profile counts only the package's own tests, so the seam stays
# directly tested rather than incidentally covered through the stack.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) test -short -coverprofile=coverage-backend.out -coverpkg=./internal/backend ./internal/backend
	@pct=$$($(GO) tool cover -func=coverage-backend.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	echo "internal/backend statement coverage: $$pct% (floor $(BACKEND_COVER_MIN)%)"; \
	awk -v p="$$pct" -v min="$(BACKEND_COVER_MIN)" 'BEGIN { exit (p + 0 < min) ? 1 : 0 }' || \
		{ echo "internal/backend coverage $$pct% is below $(BACKEND_COVER_MIN)%" >&2; exit 1; }

# Per-file statement-coverage gate on the serving spine's two policy
# seams: replica advancement (advance.go) and fleet placement
# (placement.go) must each stay at or above $(SERVE_COVER_MIN)%. The
# per-file numbers come straight from the coverage profile (cover -func
# only reports per-function), summed per block.
cover-serve:
	$(GO) test -coverprofile=coverage-serve.out ./internal/serve/
	@awk -v min="$(SERVE_COVER_MIN)" '\
		NR > 1 { \
			n = split($$1, loc, "/"); split(loc[n], parts, ":"); f = parts[1]; \
			tot[f] += $$2; if ($$3 > 0) cov[f] += $$2; \
		} \
		END { \
			bad = 0; \
			split("advance.go placement.go", want, " "); \
			for (i in want) { f = want[i]; \
				pct = tot[f] ? 100 * cov[f] / tot[f] : 0; \
				printf "internal/serve/%s statement coverage: %.1f%% (floor %d%%)\n", f, pct, min; \
				if (pct < min) bad = 1; \
			} \
			exit bad; \
		}' coverage-serve.out || { echo "serve spine coverage below $(SERVE_COVER_MIN)%" >&2; exit 1; }

ci: fmt-check vet api-lint staticcheck build examples test-short race-serve race-pricing bench bench-check perfbench-check cover cover-serve
