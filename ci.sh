#!/usr/bin/env bash
# Tier-1 gate for the voltsense workspace. Runs fully offline: the
# workspace has zero external dependencies (see DESIGN.md §3), so a failure
# here is a real build/test failure, never a registry problem.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test -q --offline (all targets + doctests, VOLTSENSE_THREADS=1)"
VOLTSENSE_THREADS=1 cargo test -q --offline

echo "==> cargo test -q --offline (all targets + doctests, VOLTSENSE_THREADS=4)"
VOLTSENSE_THREADS=4 cargo test -q --offline

echo "==> cargo bench --no-run --offline (bench targets must compile)"
cargo bench --no-run --offline

echo "==> perfbench build + tests (its own workspace, so the steps above skip it)"
# perfbench drives only the public API; building it here catches a library
# change that breaks the repo benchmark.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> fault-tolerance sweep smoke (small scale, fast bench config)"
VOLTSENSE_SCALE=small TESTKIT_BENCH_FAST=1 \
    cargo run --release --offline -p voltsense-bench --bin fault_tolerance_sweep

echo "==> parallel scaling smoke (bit-identity + machine-aware speedup gate)"
# One rep per point keeps this fast; the binary hard-asserts bit-identity
# across thread counts and applies a lenient speedup floor on small
# runners (override with VOLTSENSE_MIN_SPEEDUP). Results go to a scratch
# dir so the committed results/bench_parallel_scaling.json reference is
# only compared against (gate below), never overwritten.
VOLTSENSE_BENCH_REPS=1 TESTKIT_RESULTS_DIR="$(mktemp -d)" \
    cargo run --release --offline -p voltsense-bench --bin parallel_scaling

echo "==> telemetry smoke (instrumented example + export validation)"
telemetry_prefix="$(mktemp -d)/telemetry_smoke"
VOLTSENSE_TELEMETRY="$telemetry_prefix" \
    cargo run --release --offline -p voltsense --example emergency_monitor
cargo run --release --offline -p voltsense-bench --bin validate_telemetry \
    "$telemetry_prefix.json" "$telemetry_prefix.trace.json"

echo "==> live observability smoke (flight recorder + /metrics scrape + incidents)"
# Run the example with NO export capture: only the always-on flight
# recorder is active. Scrape the live endpoint while it runs, then let it
# finish and validate the incident files the mid-trace sensor fault left
# behind.
obs_dir="$(mktemp -d)"
VOLTSENSE_TELEMETRY_ADDR=127.0.0.1:0 \
VOLTSENSE_TELEMETRY_ADDR_FILE="$obs_dir/addr" \
VOLTSENSE_TELEMETRY_LINGER=120 \
VOLTSENSE_TELEMETRY_STOP="$obs_dir/stop" \
VOLTSENSE_INCIDENT_DIR="$obs_dir/incidents" \
    cargo run --release --offline -p voltsense --example emergency_monitor &
example_pid=$!
trap 'kill "$example_pid" 2>/dev/null || true' EXIT
cargo run --release --offline -p voltsense-bench --bin scrape_endpoint "@$obs_dir/addr"
touch "$obs_dir/stop"   # release the linger
wait "$example_pid"
trap - EXIT
cargo run --release --offline -p voltsense-bench --bin validate_incident -- \
    --expect-kind alarm --expect-kind hot_swap \
    --expect-ring-event monitor.alarm --expect-attribution \
    "$obs_dir"/incidents/*.json

echo "==> profiling smoke (span-stack sampler + /profile scrape + attribution)"
# Run the seeded table2 bench with the 99 Hz sampler on and scrape
# /profile while it lingers. The validator checks both formats
# (voltsense-profile-v1 JSON and collapsed flamegraph text) and pins
# sampler attribution end to end: within the solver subtree
# (methodology.*) the hottest sampled callee must be a group-lasso
# solver span (gl.bcd.* / gl.fista.*).
prof_dir="$(mktemp -d)"
VOLTSENSE_PROFILE=1 \
VOLTSENSE_TELEMETRY_ADDR=127.0.0.1:0 \
VOLTSENSE_TELEMETRY_ADDR_FILE="$prof_dir/addr" \
VOLTSENSE_TELEMETRY_LINGER=120 \
VOLTSENSE_TELEMETRY_STOP="$prof_dir/stop" \
    cargo run --release --offline -p voltsense-bench --bin table2_error_rates &
prof_pid=$!
trap 'kill "$prof_pid" 2>/dev/null || true' EXIT
cargo run --release --offline -p voltsense-bench --bin validate_profile \
    "@$prof_dir/addr" --under methodology. --expect-top gl.bcd --expect-top gl.fista
touch "$prof_dir/stop"   # release the linger
wait "$prof_pid"
trap - EXIT

echo "==> fleet chaos smoke (seeded soak + restart resume + /trace + /slo scrape)"
# Chaos schedule is replayable from the seed; the binary hard-asserts
# zero server panics, latch-through-reconnect, an all-sessions resume
# (zero refits) after abort()+restart, a histogram-vs-exact-trace p99
# agreement, and a deterministic SLO fast-burn page from the laggy
# tenant. The scraper validates /metrics, /snapshot, /trace, /slo, and
# /healthz against the live soak; the incident validator then checks
# the fast-burn page left a voltsense-incident-v1 snapshot behind.
# Results go to a scratch dir: the committed results/bench_fleet.json
# reference is only compared against (gate below), never overwritten.
fleet_dir="$(mktemp -d)"
VOLTSENSE_FLEET_SESSIONS=64 VOLTSENSE_FLEET_FRAMES=10000 \
TESTKIT_RESULTS_DIR="$(mktemp -d)" \
VOLTSENSE_TELEMETRY_ADDR=127.0.0.1:0 \
VOLTSENSE_TELEMETRY_ADDR_FILE="$fleet_dir/addr" \
VOLTSENSE_TELEMETRY_LINGER=120 \
VOLTSENSE_TELEMETRY_STOP="$fleet_dir/stop" \
VOLTSENSE_INCIDENT_DIR="$fleet_dir/incidents" \
    cargo run --release --offline -p voltsense-bench --bin fleet_soak &
fleet_pid=$!
trap 'kill "$fleet_pid" 2>/dev/null || true' EXIT
cargo run --release --offline -p voltsense-bench --bin scrape_endpoint \
    "@$fleet_dir/addr" --fleet
touch "$fleet_dir/stop"   # release the linger
wait "$fleet_pid"
trap - EXIT
cargo run --release --offline -p voltsense-bench --bin validate_incident -- \
    --expect-kind slo_fast_burn \
    "$fleet_dir"/incidents/*.json

if [[ "${VOLTSENSE_BENCH_GATE:-}" == 1 ]]; then
    echo "==> bench regression gate (VOLTSENSE_BENCH_GATE=1)"
    fresh_dir="$(mktemp -d)"
    for ref in results/bench_*.json; do
        name="$(basename "$ref" .json)"
        case "$name" in
        bench_fleet)
            # Bin-generated report: a short soak regenerates it. Only the
            # microbench entries live inside `benchmarks` (soak stats sit
            # outside). The bodies are sub-µs and sampled min-of-k, but on
            # a shared single-core runner sustained CPU steal still
            # spreads back-to-back mins ~2x, so fleet compares at ±150%:
            # wide enough to never flap on neighbor noise, tight enough
            # to catch the step-change regressions (allocation blowups,
            # accidental quadratic scans) a µs gate can honestly detect.
            VOLTSENSE_FLEET_SESSIONS=16 VOLTSENSE_FLEET_FRAMES=2000 \
            TESTKIT_RESULTS_DIR="$fresh_dir" \
                cargo run --release --offline -p voltsense-bench --bin fleet_soak ||
                continue
            [[ -f "$fresh_dir/$name.json" ]] &&
                cargo run --release --offline -p voltsense-bench --bin bench_compare \
                    "$fresh_dir/$name.json" "$ref" --tolerance 1.5
            continue
            ;;
        bench_parallel_scaling)
            # Bin-generated report (not a bench target): regenerate with one
            # rep per point. Extra tN entries on wider machines are noted by
            # bench_compare, never gated; t1/t2/t4 always exist.
            VOLTSENSE_BENCH_REPS=1 TESTKIT_RESULTS_DIR="$fresh_dir" \
                cargo run --release --offline -p voltsense-bench --bin parallel_scaling ||
                continue
            ;;
        *)
            TESTKIT_BENCH_FAST=1 TESTKIT_RESULTS_DIR="$fresh_dir" \
                cargo bench --offline -p voltsense-bench --bench "${name#bench_}" 2>/dev/null ||
                continue
            ;;
        esac
        [[ -f "$fresh_dir/$name.json" ]] &&
            cargo run --release --offline -p voltsense-bench --bin bench_compare \
                "$fresh_dir/$name.json" "$ref"
    done
fi

echo "==> dependency policy: no external crates in any manifest"
if grep -rEn 'rand|proptest|criterion' Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: external dependency reference found in a manifest" >&2
    exit 1
fi

echo "CI gate passed."
