# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet fmt-check test cover race fault chaos bench bench-smoke benchdiff snapshot-check delta-check metrics-check experiments examples e2e clean

all: build vet fmt-check test

build:
	go build ./...

vet:
	go vet ./...

# Fails if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	go test ./...

# Tests with a merged coverage profile (CI uploads coverage.out as an
# artifact and prints the total).
cover:
	go test -coverprofile=coverage.out -coverpkg=./... ./...

race:
	go test -race ./...

# Fault-injection suite (panic quarantine, step budgets, chaotic I/O,
# load shedding, deadlines) under the race detector.
fault:
	go test -race -run TestFault ./internal/repair ./internal/server

# Chaos drills for the self-healing lifecycle, repeated under the race
# detector: canary reload rejection (strict self-check, shadow replay),
# watchdog auto-rollback under live traffic, reloads racing serving
# traffic against corrupt/suspect candidates — full and incremental
# delta alike (corrupt delta bytes, stale-base refusal, mixed
# full/delta swaps under load) — circuit-breaker trip/probe/recovery,
# and registry tenant churn (64 tenants through 8 residency slots with
# evictions racing in-flight requests).
chaos:
	go test -race -count=3 -run 'TestFaultBreaker' ./internal/repair
	go test -race -count=3 -run 'TestCanary|TestFaultCanary|TestRollback|TestReloadUnderLoad|TestFaultDelta|TestDeltaCanary' ./internal/server
	go test -race -count=3 -run 'TestLRUChurn|TestEvictionSkipsPinnedTenants|TestReadmissionAfterEviction' ./internal/registry

bench:
	go test -bench=. -benchmem ./...

# One iteration of every benchmark in the module: catches benchmarks
# that no longer compile or panic without paying for real measurement.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# Remeasure the repair benchmarks and gate against the committed
# baseline (the CI benchmark-regression gate, runnable locally).
benchdiff:
	go run ./cmd/experiments -bench-repair BENCH_repair.json
	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_repair.json

# Snapshot golden gate: packing the checked-in sample KB must be
# byte-deterministic, and unpacking the snapshot must round-trip to
# the canonical text source byte-for-byte. verify also cross-checks
# the mmap'd load against the streamed load.
snapshot-check:
	@tmp="$$(mktemp -d)" && \
	go run ./cmd/kbtool pack testdata/sample_kb.nt "$$tmp/a.snap" && \
	go run ./cmd/kbtool pack testdata/sample_kb.nt "$$tmp/b.snap" && \
	cmp "$$tmp/a.snap" "$$tmp/b.snap" && \
	go run ./cmd/kbtool unpack "$$tmp/a.snap" "$$tmp/roundtrip.nt" && \
	cmp "$$tmp/roundtrip.nt" testdata/sample_kb.nt && \
	go run ./cmd/kbtool info "$$tmp/a.snap" >/dev/null && \
	go run ./cmd/kbtool verify "$$tmp/a.snap" && \
	rm -rf "$$tmp" && echo "snapshot-check: OK"

# Delta golden gate: diffing the checked-in old/new snapshot pair must
# be byte-deterministic and match the committed golden delta, and
# `diff | apply` must reproduce the directly-packed new snapshot
# byte-for-byte. The committed .dkbs/.dkbsd binaries are themselves
# regenerable from the canonical .nt sources (cross-checked here).
delta-check:
	@tmp="$$(mktemp -d)" && \
	go run ./cmd/kbtool pack testdata/delta/old.nt "$$tmp/old.dkbs" && \
	cmp "$$tmp/old.dkbs" testdata/delta/old.dkbs && \
	go run ./cmd/kbtool pack testdata/delta/new.nt "$$tmp/new.dkbs" && \
	cmp "$$tmp/new.dkbs" testdata/delta/new.dkbs && \
	go run ./cmd/kbtool diff testdata/delta/old.dkbs testdata/delta/new.dkbs "$$tmp/a.dkbsd" && \
	go run ./cmd/kbtool diff testdata/delta/old.dkbs testdata/delta/new.dkbs "$$tmp/b.dkbsd" && \
	cmp "$$tmp/a.dkbsd" "$$tmp/b.dkbsd" && \
	cmp "$$tmp/a.dkbsd" testdata/delta/old_to_new.dkbsd && \
	go run ./cmd/kbtool apply testdata/delta/old.dkbs testdata/delta/old_to_new.dkbsd "$$tmp/applied.dkbs" && \
	cmp "$$tmp/applied.dkbs" testdata/delta/new.dkbs && \
	rm -rf "$$tmp" && echo "delta-check: OK"

# Drives real traffic through an httptest server, scrapes the registry
# the way the `-ops-addr` listener does, and validates the Prometheus
# exposition parses and carries the expected series.
metrics-check:
	go test -run 'TestMetricsExposition' -count=1 -v ./internal/server
	go test -run 'TestOpsMux|TestExpositionRoundTrip|TestValidateExpositionRejectsGarbage' -count=1 ./internal/telemetry

# Regenerate every table and figure of the paper (reduced scale).
experiments:
	go run ./cmd/experiments -exp all -csv results

examples:
	go run ./examples/quickstart
	go run ./examples/multiversion
	go run ./examples/rulegen
	go run ./examples/pathrule
	go run ./examples/nobel
	go run ./examples/webtables

# Daemon end-to-end suite: boots detectived in single-tenant and
# registry mode against the checked-in sample KB and drives the HTTP
# surfaces (including ensemble requests and confidence trailers) with
# curl. The CI e2e job runs exactly this.
e2e:
	./scripts/e2e.sh

clean:
	rm -rf results test_output.txt bench_output.txt coverage.out
