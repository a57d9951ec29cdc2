# ParaCOSM reproduction — common entry points.

GO ?= go

.PHONY: all build lint lint-json test race bench bench-lastlevel debug-smoke serve-smoke metrics-lint recover-smoke fuzz experiments examples clean

all: lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# lint = build + go vet (via build) + the project-specific concurrency and
# allocation analyzers (lockguard, lockescape, atomicmix, goroutineleak,
# waitgroup, chandrop, noalloc, rangedeterminism, lockcopy). Non-zero exit
# on any finding, including stale //lint:ignore directives (strict mode is
# the default); see DESIGN.md "Static analysis layer" for the annotation
# grammar and escape hatches.
lint: build
	$(GO) run ./cmd/paracosmvet ./...

# Machine-readable lint report: findings as JSON plus the ignore-directive
# inventory on stderr. CI uploads paracosmvet.json as a build artifact.
lint-json:
	$(GO) run ./cmd/paracosmvet -json ./... | tee paracosmvet.json
	$(GO) run ./cmd/paracosmvet -ignores ./... 1>&2

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem ./...

# One benchmark of `make bench` on its own: Find-Matches ns/node with the
# last level counted (OnMatch nil) against enumerated (OnMatch set),
# GraphFlow and Symbi. A few seconds, no harness.
bench-lastlevel:
	$(GO) test -run '^$$' -bench FindMatchesLastLevel -benchtime 20x .

# End-to-end smoke of the observability layer: run paracosm with
# -debug-addr on a generated dataset and curl /healthz, /metrics and
# /trace while the server lingers.
debug-smoke:
	./scripts/debug_smoke.sh

# End-to-end smoke of the serving layer: paracosm serve + paracosm client
# over TCP, streamed delta totals checked against the sequential oracle,
# plus /queries and `paracosm top` against the live standing query.
serve-smoke:
	./scripts/serve_smoke.sh

# Prometheus exposition lint: scrape a live server twice (idle, then
# after client traffic) and validate both scrapes with cmd/metricslint —
# unique series, valid names and label escaping, one TYPE per metric,
# monotone _total counters.
metrics-lint:
	./scripts/metrics_lint.sh

# Crash-recovery smoke of the durability layer: kill -9 a WAL-enabled
# server mid-stream, restart it, and require the recovered totals to
# equal the sequential prefix oracle — then resume the stream and match
# the uninterrupted full-stream oracle.
recover-smoke:
	./scripts/recover_smoke.sh

fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzLabelIndex -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzRead -fuzztime 30s ./internal/stream/
	$(GO) test -fuzz FuzzCoalesce -fuzztime 30s ./internal/stream/
	$(GO) test -fuzz FuzzWireRoundTrip -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzWALRecord -fuzztime 30s ./internal/wal/

# Regenerate every paper table/figure plus ablations at the default
# laptop-friendly configuration (see EXPERIMENTS.md for the recorded run).
experiments:
	$(GO) run ./cmd/experiments -run all \
		-scale 0.005 -queries 4 -updates 2000 -budget 1s -threads 32

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/frauddetection
	$(GO) run ./examples/recommendation
	$(GO) run ./examples/netmon
	$(GO) run ./examples/multiquery

clean:
	$(GO) clean ./...
