# Tier-1 gate: vet plus the full test suite under the race detector.
# The parallel segmentary query phase and the signature-program cache are
# exercised concurrently by the tests, so -race is part of the gate.
# check also builds every command so CLI-only breakage cannot slip past.
.PHONY: check build test bench bench-smoke bench-diff lint fuzz fuzz-smoke chaos serve-smoke crash profile-smoke xrperf-test

check: fuzz-smoke crash profile-smoke
	go build ./cmd/...
	go vet ./...
	go test -race ./...

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem

# bench-smoke regenerates the committed machine-readable report for the S3
# genome profile at scale 0.1 (small enough for CI, large enough that the
# instance is inconsistent and the solver counters are live).
bench-smoke:
	go run ./cmd/xrbench -json BENCH_S3.json -profile S3 -scale 0.1

# bench-diff reruns the S3 profile and diffs it against the committed
# baseline report; exits 4 when a wall time regresses by more than the
# threshold (wall times on shared CI hardware are noisy, so the gate is
# generous) or when any deterministic work counter changes at all.
bench-diff:
	go run ./cmd/xrbench -compare BENCH_S3.json -profile S3 -scale 0.1 -threshold 100

# xrperf-test vets and tests the xrperf benchmark module. It is a module of
# its own (replace repro => ../), so the root go build and go test skip it,
# yet it imports internal packages: this target catches an internal API
# change that would break the benchmark. Kept out of check so check does
# not get slower.
xrperf-test:
	cd xrperf && go vet ./... && go test ./...

# fuzz runs each fuzzer for 30s (go's engine takes one fuzzer per
# invocation). fuzz-smoke is the 5s-per-fuzzer CI variant wired into check.
fuzz:
	go test -fuzz=FuzzParse -fuzztime=30s ./internal/asp/
	go test -fuzz=FuzzGround -fuzztime=30s ./internal/asp/
	go test -fuzz=FuzzAssumptions -fuzztime=30s ./internal/asp/
	go test -fuzz=FuzzParseMapping -fuzztime=30s ./internal/parser/
	go test -fuzz=FuzzParseFacts -fuzztime=30s ./internal/parser/
	go test -fuzz=FuzzParseQueries -fuzztime=30s ./internal/parser/

fuzz-smoke:
	go test -fuzz=FuzzParse -fuzztime=5s ./internal/asp/
	go test -fuzz=FuzzGround -fuzztime=5s ./internal/asp/
	go test -fuzz=FuzzAssumptions -fuzztime=5s ./internal/asp/
	go test -fuzz='^FuzzParseMapping$$' -fuzztime=5s ./internal/parser/
	go test -fuzz='^FuzzParseFacts$$' -fuzztime=5s ./internal/parser/
	go test -fuzz='^FuzzParseQueries$$' -fuzztime=5s ./internal/parser/

# serve-smoke boots the xrserved daemon on an ephemeral port, loads two
# tricolor scenarios concurrently, queries both end-to-end (asserting the
# exact answer bodies), exercises budget degradation with ?-marked
# unknowns over both framings, drives the request-observability chain
# (X-Request-Id through header, body, JSON access log, /v1/slowlog, and
# the span tree), and checks graceful SIGTERM drain. Requires curl and jq.
serve-smoke:
	bash scripts/serve_smoke.sh

# crash replays the crash-recovery harness under the race detector: 60
# seed-keyed trials that kill the scenario store at every filesystem
# injection point (including torn writes and post-crash bit rot), reboot,
# and require byte-identical answers from every committed tenant plus a
# quarantine — never a boot failure — for every damaged artifact.
crash:
	go test -race -count=1 -run 'Crash|Recover|Quarantine|Drain' \
		./internal/store/ ./internal/server/

# profile-smoke replays the workload-profiler contract under the race
# detector: the whole internal/profile suite (snapshot wire-byte golden,
# exact sums under concurrent recording, eviction order and decay, merge
# round trip), then the Profile tests of the packages around it:
# byte-identical answers and counter aggregates with profiling on at
# Parallelism 1/4/8, concurrent multi-tenant top-N reads, and the
# drain-persist / reboot-restore round trip (the crash target covers the
# store-level profile artifacts; this one focuses the profiler suites).
profile-smoke:
	go test -race -count=1 ./internal/profile/
	go test -race -count=1 -run 'Profile' \
		./internal/benchkit/ ./internal/store/ ./internal/server/

# chaos replays the fault-injection suite (budgets, timeouts, panics,
# cache corruption) under the race detector at high parallelism.
chaos:
	go test -race -count=1 -run 'Chaos|Fault|Degrad|Panic|Budget|Signature' \
		./internal/faultkit/ ./internal/xr/ ./internal/asp/

# lint runs staticcheck when it is installed and degrades gracefully when it
# is not (the container image does not bake it in). The gofmt and grep gates
# are unconditional: every Go file must be gofmt-clean, and the server and
# daemon log exclusively through slog, so a bare log.Print* would bypass the
# structured access log and its request IDs — reject it at lint time.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: not gofmt-clean (run gofmt -w):" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	@if grep -rnE '\blog\.(Print|Printf|Println|Fatal|Fatalf|Fatalln)\(' \
		internal/server cmd/xrserved; then \
		echo "lint: bare log.Print*/log.Fatal* in server code; use the injected *slog.Logger" >&2; \
		exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go vet runs in 'make check')"; \
	fi
