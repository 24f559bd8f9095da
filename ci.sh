#!/bin/sh
# ci.sh — the full pre-merge check, also reachable as `make check`.
#
# Order matters: cheap static checks first (gofmt, vet, lbvet) so
# formatting, vet or invariant findings surface before the minutes-long
# test run. lbvet runs the project-specific analyzers — the syntactic
# ones (randcontract, nondeterminism, identcompare, metricsguard,
# layercheck) and the dataflow ones (detflow, lockguard, hotalloc,
# floatorder) — see DESIGN.md "Enforced invariants". The race pass
# covers the packages that exercise real concurrency (livenet's
# goroutine-per-subtree rounds, par's worker pools, sim's engine
# contract, ktree's parallel tree build and faults' goroutine-spawning
# tests, lbnode — whose machines are single-goroutine by construction
# but whose cross-executor equivalence test drives the concurrent
# livenet rounds — protocol, a single-goroutine sim executor whose
# rounds rebuild and repair the tree through ktree's parallel build, wire's
# reader/retry goroutines, and cluster's in-process daemon tests;
# cluster's child-process e2e tests skip themselves under -race via a
# build tag, since the race runtime doesn't cross exec). The rest of
# the tree is single-goroutine by design.
#
# The project binaries (lbvet, lbbench) are built exactly once into a
# temp dir and reused by every later step — `go run` would rebuild
# them on each invocation, and the smoke steps below invoke lbbench
# four times.
set -eu
cd "$(dirname "$0")"

bin=$(mktemp -d)
tmp1=
tmp2=
cleanup() { rm -rf "$bin" ${tmp1:+"$tmp1"} ${tmp2:+"$tmp2"}; }
trap cleanup EXIT INT TERM

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build (tools)"
go build -o "$bin/lbvet" ./cmd/lbvet
go build -o "$bin/lbbench" ./cmd/lbbench

echo "== lbvet"
# The JSON gate: machine-readable findings on stdout, nonzero exit on
# any finding. The array lands in the log so a CI failure shows the
# structured findings without a rerun.
"$bin/lbvet" -json

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== perfbench module (vet + test)"
# perfbench is a nested module (its own go.mod, replacing p2plb with
# this tree), so the root `go build ./...` and `go test ./...` above
# skip it — yet it compiles against the internal APIs (livenet,
# protocol, cluster, ...). Vetting and testing it here catches an API
# change that would only break the benchmark.
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race (concurrent packages)"
go test -race ./internal/livenet/ ./internal/par/ ./internal/sim/ ./internal/ktree/ ./internal/faults/ ./internal/lbnode/ ./internal/protocol/ ./internal/wire/ ./internal/cluster/

echo "== lbbench scale smoke (time-boxed, determinism-diffed)"
# A small scale run keeps the O(log n) maintenance path honest without
# the full 1M-VS sweep. Each size runs the whole lifecycle — ring
# build, tree build, a full balancing round, ~1% node churn, an
# incremental Repair, and CheckInvariants on the repaired tree — and
# fails hard if the compressed tree regresses in shape (height >
# 2·log2(V) or more than 5 KT nodes per VS). The timeout catches
# accidental re-quadratization (the 20k run takes well under a second —
# 120 s means something is badly wrong). Run twice at the same seed:
# the reports must match byte-for-byte once the wall-clock fields
# (unix_time and the *_ms phase timings) are stripped, gating the
# whole lifecycle's seed-determinism.
tmp1=$(mktemp -d)
tmp2=$(mktemp -d)
timeout 120 "$bin/lbbench" -bench scale -scalesizes 20000 -out "$tmp1"
timeout 120 "$bin/lbbench" -bench scale -scalesizes 20000 -out "$tmp2"
grep -vE '"unix_time"|"[a-z_]*_ms"' "$tmp1/BENCH_scale.json" > "$tmp1/stripped"
grep -vE '"unix_time"|"[a-z_]*_ms"' "$tmp2/BENCH_scale.json" > "$tmp2/stripped"
if ! diff "$tmp1/stripped" "$tmp2/stripped"; then
	echo "scale lifecycle is nondeterministic across identical runs" >&2
	exit 1
fi
rm -rf "$tmp1" "$tmp2"
tmp1=
tmp2=

echo "== lbbench runtime smoke (time-boxed, executor-equivalence-gated)"
# A small cross-executor round: the runtime benchmark runs the same
# balancing round under the deterministic-sim driver (internal/protocol)
# and the concurrent channel executor (internal/livenet) and fails hard
# inside runRuntime if the transfer sets differ — the gate that caught
# the intermediate-rendezvous divergence this smoke exists to keep
# caught. 8k VSs keeps it under a second; 120 s means a hang.
tmp1=$(mktemp -d)
timeout 120 "$bin/lbbench" -bench runtime -runtimesizes 8000 -out "$tmp1"
rm -rf "$tmp1"
tmp1=

echo "== lbbench fault smoke (time-boxed, determinism-diffed)"
# A small drop-rate sweep plus partition recovery, run twice at the same
# seed: the reports must match byte-for-byte once the two wall-clock
# fields are stripped. This gates the fault path's (seed, plan)
# determinism, not just its correctness.
tmp1=$(mktemp -d)
tmp2=$(mktemp -d)
timeout 120 "$bin/lbbench" -bench faults -faultnodes 128 -out "$tmp1"
timeout 120 "$bin/lbbench" -bench faults -faultnodes 128 -out "$tmp2"
grep -v '"unix_time"\|"wall_ms"' "$tmp1/BENCH_faults.json" > "$tmp1/stripped"
grep -v '"unix_time"\|"wall_ms"' "$tmp2/BENCH_faults.json" > "$tmp2/stripped"
if ! diff "$tmp1/stripped" "$tmp2/stripped"; then
	echo "fault sweep is nondeterministic across identical runs" >&2
	exit 1
fi
rm -rf "$tmp1" "$tmp2"
tmp1=
tmp2=

echo "== lbbench serve smoke (time-boxed, determinism-diffed)"
# A small serving run — 3 variants (balancer on/off/nocache) over the
# same Zipf request plan — run twice at the same seed: the reports must
# match byte-for-byte once the wall-clock fields are stripped. The
# per-request latency checksums inside the report make this diff pin
# the raw latency streams, not just the summaries. The tail-contrast
# acceptance gate inside lbbench only arms at >= 100k requests, so this
# smoke gates determinism; BENCH_serve.json (committed, 1M requests)
# gates the tail claim. serve needs no -race leg: it is single-goroutine
# on the sim engine (the three variants parallelize via internal/par,
# which has its own race pass; livenet never participates).
tmp1=$(mktemp -d)
tmp2=$(mktemp -d)
timeout 120 "$bin/lbbench" -bench serve -servesizes 128 -serverequests 20000 -out "$tmp1"
timeout 120 "$bin/lbbench" -bench serve -servesizes 128 -serverequests 20000 -out "$tmp2"
grep -vE '"unix_time"|"[a-z_]*_ms"' "$tmp1/BENCH_serve.json" > "$tmp1/stripped"
grep -vE '"unix_time"|"[a-z_]*_ms"' "$tmp2/BENCH_serve.json" > "$tmp2/stripped"
if ! diff "$tmp1/stripped" "$tmp2/stripped"; then
	echo "serving layer is nondeterministic across identical runs" >&2
	exit 1
fi
rm -rf "$tmp1" "$tmp2"
tmp1=
tmp2=

echo "== cluster chaos smoke (4 processes, time-boxed)"
# A real multi-process run: four lbd daemons over TCP, one SIGKILL
# mid-round, supervisor restart, conservation + settle gates inside the
# test. -short keeps the bigger 8-process e2e out of this step (it
# already ran under `go test ./...` above); the hard timeout catches a
# hung settle — the smoke itself finishes in well under a minute, and
# each round has its own 30 s in-test settle bound, so 300 s means the
# supervisor or the harness is wedged, not slow.
timeout 300 go test -short -count=1 -run TestClusterChaosSmoke ./internal/cluster/

echo "ci: all checks passed"
