# Build/verify entry points. `make verify` is the tier-1 gate: vet plus the
# full test suite. `make race` runs the race detector over the parallel
# runtime, the AMR mesh and both mini-app step loops (the packages that
# dispatch on the worker pool) and the experiment service. `make
# serve-smoke` exercises the precisiond daemon end to end: submit a job
# twice, assert the second is a cache hit. `make chaos-smoke` SIGKILLs a fault-injected daemon mid-sweep
# and asserts the recovered sweep is bit-identical (DESIGN.md §7).
# `make obs-smoke` checks the telemetry surface end to end: /metrics
# exposition, job traces, the client's -trace timeline and the pprof debug
# listener (DESIGN.md §8). `make dispatch-smoke` runs the paper sweep on a
# two-node worker fleet, SIGKILLs one worker mid-lease and asserts the
# results are bit-identical to a single-node run (DESIGN.md §9).
# `make read-smoke` runs the paper sweep twice against a 2-worker fleet and
# asserts the second pass is served entirely above the disk tier — replica
# reads plus ETag 304s, zero disk_hits growth (DESIGN.md §11).
# `make campaign-smoke` submits a server-side grid campaign to a 2-worker
# fleet, SIGKILLs a worker and then the coordinator mid-expansion, and
# asserts the resumed campaign's aggregates bit-match a client-side sweep
# and a warm resubmit is all dedup (DESIGN.md §12).
# `make straggler-smoke` runs a campaign against a 3-worker fleet with one
# fault-armed slow worker and asserts hedged re-dispatch absorbs it with a
# bit-identical digest, hash-verified hedge pairs, the straggler ending
# quarantined and a clean SIGTERM drain (DESIGN.md §13).
# `make fleetobs-smoke` runs the same campaign against an uninstrumented
# single node and a fully-instrumented 2-worker fleet (stitched traces,
# /metrics federation, energy/cost accounting) and asserts bit-identical
# digests, a node=worker solve span in every job trace, /metrics/fleet
# summing to the per-worker scrapes, and a cache-stable energy line
# (DESIGN.md §14).
# `make autotune-smoke` warms a 2-worker fleet with full-mode references,
# asserts auto-mode submissions demote one shadow-verified rung at a time,
# SIGKILLs the coordinator and requires the learned table back from the
# journal, injects runner.nan to force a revert, and checks tight budgets
# resolve to full bit-matching the reference (DESIGN.md §15).
# `make bench-par` regenerates the committed pool-vs-spawn dispatch
# numbers in results/. `make bench-json` regenerates the committed
# benchmark trajectories in BENCH_6.json (read path), BENCH_7.json
# (campaign expansion), BENCH_9.json (observability hot paths),
# BENCH_12.json (CLAMR step, 1 to 4 lanes) and BENCH_13.json (mesh adapt
# cycle, 1 and 2 lanes); `make bench-gate` is the CI regression gate against
# them (the step and adapt benches must stay at 0 allocs/op).

GO ?= go

.PHONY: build test vet verify race serve-smoke chaos-smoke obs-smoke dispatch-smoke read-smoke campaign-smoke straggler-smoke fleetobs-smoke autotune-smoke bench-par bench-step bench-json bench-gate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

verify: build vet test

race:
	$(GO) test -race ./internal/par/... ./internal/mesh/... ./internal/clamr/... ./internal/self/... ./internal/serve/... ./internal/runner/...

serve-smoke:
	GO="$(GO)" ./scripts/serve_smoke.sh

chaos-smoke:
	GO="$(GO)" ./scripts/chaos_smoke.sh

obs-smoke:
	GO="$(GO)" ./scripts/obs_smoke.sh

dispatch-smoke:
	GO="$(GO)" ./scripts/dispatch_smoke.sh

read-smoke:
	GO="$(GO)" ./scripts/read_smoke.sh

campaign-smoke:
	GO="$(GO)" ./scripts/campaign_smoke.sh

straggler-smoke:
	GO="$(GO)" ./scripts/straggler_smoke.sh

fleetobs-smoke:
	GO="$(GO)" ./scripts/fleetobs_smoke.sh

autotune-smoke:
	GO="$(GO)" ./scripts/autotune_smoke.sh

bench-json:
	GO="$(GO)" ./scripts/bench_json.sh

bench-gate:
	GO="$(GO)" ./scripts/bench_json.sh --check

bench-par:
	$(GO) test ./internal/par/ -run '^$$' -bench BenchmarkParDispatch -benchmem | tee results/par_pool_bench.txt

bench-step:
	$(GO) test ./internal/clamr/ -run '^$$' -bench BenchmarkCLAMRStep -benchmem
	$(GO) test ./internal/self/ -run '^$$' -bench BenchmarkSELFStep -benchmem
