#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, format, perf gates. Run from anywhere;
# operates on the repo root. The workspace vendors all external deps under
# vendor/, so this works fully offline (--offline keeps cargo from touching
# the network at all).
#
# Usage: scripts/ci.sh [mode]
#   all        (default) every check below, in order
#   build-test release build + test suite
#   clippy     clippy with -D warnings
#   fmt        rustfmt --check
#   fault      the fault-injection suites under one CCA_FAULT_SEED
#   fleet      the multi-process kill-matrix under one CCA_FAULT_SEED
#   bench-gate quick-mode E10/E11/E13/E14/E15/E16/E17 perf gates
#
# The CI workflow fans these out as separate jobs; `all` keeps the
# one-command local story.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"

# The quick-mode perf gates write throwaway artifacts next to the committed
# ones; clean them up however the script exits so a failed gate can't leak
# a stale BENCH_*.ci.json for the committed-artifact check to trip over.
# The fleet scenarios re-exec the test binary as rank children, so the trap
# also reaps any orphaned rank (identified by CCA_FLEET_RANK in its
# environment) that a killed-mid-run supervisor failed to collect.
cleanup() {
    rm -f BENCH_obs.ci.json BENCH_obs.ci.json.tmp \
        BENCH_resilience.ci.json BENCH_resilience.ci.json.tmp \
        BENCH_rpc.ci.json BENCH_rpc.ci.json.tmp \
        BENCH_data.ci.json BENCH_data.ci.json.tmp \
        BENCH_fleet.ci.json BENCH_fleet.ci.json.tmp \
        BENCH_repo.ci.json BENCH_repo.ci.json.tmp
    reap_fleet_orphans
}
reap_fleet_orphans() {
    local pid
    for pid in $(ls /proc 2>/dev/null | grep -E '^[0-9]+$'); do
        [ "$pid" = "$$" ] && continue
        if tr '\0' '\n' 2>/dev/null < "/proc/$pid/environ" |
            grep -q '^CCA_FLEET_RANK='; then
            echo "reaping orphaned fleet rank pid $pid" >&2
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
}
trap cleanup EXIT

build_test() {
    echo "==> cargo build --release"
    cargo build --offline --release --workspace

    echo "==> cargo test"
    cargo test --offline --workspace -q

    # The monitoring example reaches the MonitorPort only through
    # invoke_checked against the deposited service-port SIDL, and asserts
    # the call count it observes: an end-to-end check of the generated
    # skeletons that no test binary replaces.
    echo "==> monitoring example"
    cargo run --offline --release --example monitoring >/dev/null
}

clippy() {
    echo "==> cargo clippy -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
}

# One run of the failure-injection + resilience + remote-transport +
# wire-tracing suites under a fixed fault schedule. CI calls this once per
# seed in {1, 7, 42, 1999}; the suites are mock-clock driven (the remote
# ones use real sockets but a seeded server-side drop plan), so a seed
# fully determines every outcome. The flight recorder is armed at
# target/flight so a failing run leaves incident JSONL behind for the
# workflow to upload.
fault() {
    local seed="${CCA_FAULT_SEED:-1}"
    echo "==> fault matrix (CCA_FAULT_SEED=$seed)"
    mkdir -p target/flight
    CCA_FAULT_SEED="$seed" CCA_FLIGHT_DIR="$(pwd)/target/flight" cargo test --offline \
        --test failure_injection --test resilience --test remote_transport \
        --test wire_tracing --test bulk_redist --test repository_scale
}

# The supervised-fleet kill-matrix: 4 ranks as real child processes, a
# seed-chosen victim kill -9'd mid-run, convergence to the unkilled answer
# required (tests/fleet.rs). The hard timeout is the zombie backstop — a
# hung supervisor or an undetected rank death must fail the lane rather
# than park it forever; the EXIT trap then reaps whatever re-exec'd ranks
# the killed test left behind. Forensics (incident JSONL plus the
# supervisor event log) land in target/flight for the workflow to upload.
fleet() {
    local seed="${CCA_FAULT_SEED:-1}"
    echo "==> fleet kill-matrix (CCA_FAULT_SEED=$seed)"
    mkdir -p target/flight
    CCA_FAULT_SEED="$seed" CCA_FLIGHT_DIR="$(pwd)/target/flight" \
        timeout -k 30 420 cargo test --offline --test fleet
}

bench_gate() {
    # Quick-mode observability gate: asserts instrumentation-off stays
    # ≤1.1x the pre-instrumentation call and counters-on ≤1.5x (see
    # EXPERIMENTS.md E10). The committed-artifact JSON check runs with the
    # test suite (crates/bench/tests/bench_json.rs).
    echo "==> E10 observability overhead gate (quick mode)"
    CCA_BENCH_FAST=1 BENCH_OBS_OUT="$(pwd)/BENCH_obs.ci.json" \
        cargo bench --offline -p cca-bench --bench e10_obs_overhead

    # Quick-mode resilience gate: a closed circuit breaker on the
    # CachedPort fast path stays ≤1.1x the PR-1 cached call (E11).
    echo "==> E11 resilience overhead gate (quick mode)"
    CCA_BENCH_FAST=1 BENCH_RESILIENCE_OUT="$(pwd)/BENCH_resilience.ci.json" \
        cargo bench --offline -p cca-bench --bench e11_resilience

    # Quick-mode mux gate: 1,000 logical clients share ≤8 sockets and the
    # multiplexed transport outruns the thread-per-connection pool (E13).
    # Writes a throwaway artifact so the committed BENCH_rpc.json (full-run
    # numbers) is never clobbered by a fast-mode run.
    echo "==> E13 mux throughput gate (quick mode)"
    CCA_BENCH_FAST=1 BENCH_RPC_OUT="$(pwd)/BENCH_rpc.ci.json" \
        cargo bench --offline -p cca-bench --bench e13_mux_throughput

    # Quick-mode wire-tracing gate: the tracing-off v2 frame encode stays
    # ≤1.1x the PR-6 codec and tracing-on remote calls stay ≤1.5x
    # tracing-off (E14). Reuses the E10 throwaway artifact so the merge
    # path gets exercised too.
    echo "==> E14 wire tracing gate (quick mode)"
    CCA_BENCH_FAST=1 BENCH_OBS_OUT="$(pwd)/BENCH_obs.ci.json" \
        cargo bench --offline -p cca-bench --bench e14_wire_trace

    # Quick-mode bulk-data-plane gate: raw slabs beat the generic value
    # encoding at small payloads and sender memory stays window-bounded
    # (E15). Full-mode sweeps and the headline ratio run via bench.sh.
    echo "==> E15 bulk data plane gate (quick mode)"
    CCA_BENCH_FAST=1 BENCH_DATA_OUT="$(pwd)/BENCH_data.ci.json" \
        cargo bench --offline -p cca-bench --bench e15_bulk_data

    # Quick-mode fleet gate: the hub-routed wire allreduce stays well under
    # a hydro timestep and restart-to-rejoin beats the survivors' park
    # deadline (E16). Full-run numbers live in the committed
    # BENCH_fleet.json via bench.sh.
    echo "==> E16 worker fleet gate (quick mode)"
    CCA_BENCH_FAST=1 BENCH_FLEET_OUT="$(pwd)/BENCH_fleet.ci.json" \
        cargo bench --offline -p cca-bench --bench e16_fleet

    # Quick-mode repository gate: 100k-type catalog, exact lookup p50
    # under 5us, trigram fuzzy p50 under 5ms, and concurrent readers
    # don't collapse (E17). The committed BENCH_repo.json carries the
    # full 1M-type numbers via bench.sh.
    echo "==> E17 repository scale gate (quick mode)"
    CCA_BENCH_FAST=1 BENCH_REPO_OUT="$(pwd)/BENCH_repo.ci.json" \
        cargo bench --offline -p cca-bench --bench e17_repository
}

case "$MODE" in
all)
    build_test
    clippy
    fmt
    fault
    fleet
    bench_gate
    ;;
build-test) build_test ;;
clippy) clippy ;;
fmt) fmt ;;
fault) fault ;;
fleet) fleet ;;
bench-gate) bench_gate ;;
*)
    echo "unknown mode '$MODE' (want all|build-test|clippy|fmt|fault|fleet|bench-gate)" >&2
    exit 2
    ;;
esac

echo "CI OK ($MODE)"
