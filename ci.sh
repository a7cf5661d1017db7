#!/usr/bin/env bash
# Local/CI gate for the whole workspace. Everything runs offline: the
# workspace vendors its few third-party interfaces as local shim crates
# under shims/ (see README "Offline builds"), so no network or registry
# access is needed beyond a Rust toolchain.
#
# Usage: ./ci.sh [--quick]
#   --quick   skip the triple test run used to shake out flaky tests
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The literal tier-1 command first, so the `default-members` wiring
# (umbrella + zc-des) is exercised exactly as the pipeline runs it.
echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release && cargo test -q

echo "==> cargo test (workspace)"
cargo test -q --workspace

# Bench smokes, each writing BENCH_<name>.json. Every binary gates on
# ratios, conservation and same-seed reproducibility — never on
# absolute speed:
#  - bench_des_throughput: both scheduling policies of the one DES
#    kernel on the oversubscribed 128-vCPU ZC scenario; full mode
#    enforces the >=100x event-driven floor in
#    simulated-calls-per-wall-second (DESIGN.md §11).
#  - call_overhead: where every cycle of a call goes on the ZC,
#    fallback and Intel paths; reports parse, per-phase cycles sum to
#    within 1% of whole-call cycles, byte-identical reports (§12).
#  - overload: seeded open-loop MMPP traffic at 0.5x/1x/2x of measured
#    saturation on the 128-vCPU event-driven kernel; offered == completed +
#    shed + abandoned at every point, >=70% of capacity held as goodput
#    at 2x, bounded p99 sojourn (§13).
#  - recovery: three whole-enclave crash/restart cycles plus a
#    crash-during-replay, then an all-non-idempotent refusal probe;
#    offered == completed + refused_non_idempotent, journal drained,
#    bounded restart-to-first-completion latency (§14).
#  - multitenant: a well-behaved tenant sharing the global worker
#    budget with a 4x-saturation hog, an enclave crash-looper and an
#    all-six-Byzantine tenant; per-tenant and global conservation,
#    >=90% of solo goodput, p99 within 2x of solo, guard violations
#    only on the offending shard (§15).
bench_flag=
[[ $quick -eq 1 ]] && bench_flag=--quick
for bench in \
    "bench_des_throughput|DES kernel throughput smoke (event-driven vs round-robin policy)" \
    "call_overhead|call-overhead perf smoke (per-phase SLO reports)" \
    "overload|overload sweep smoke (admission, shedding, goodput)" \
    "recovery|recovery smoke (enclave crash/restart, exactly-once ledger)" \
    "multitenant|multitenant fleet smoke (bulkhead isolation, global budget)"; do
    echo "==> ${bench#*|}"
    cargo build --release -q -p zc-bench --bin "${bench%%|*}"
    "./target/release/${bench%%|*}" $bench_flag
done

# Collect every benchmark report into the perf trajectory uploaded by
# CI — one directory per run, so regressions can be traced across
# commits instead of vanishing with the runner.
mkdir -p results/bench_trajectory
cp BENCH_*.json results/bench_trajectory/
echo "==> bench trajectory: $(ls results/bench_trajectory)"

if [[ $quick -eq 0 ]]; then
    # Cross-commit pin on the DES: the trace and soak suites below only
    # compare two runs of the *same* build, so a simulator change that
    # is deterministic but different passes them all. The committed
    # paper figures are full-mode output of this generator; regenerate
    # them in a scratch directory (results/ stays untouched) and
    # require every CSV byte-identical. The two memcpy figures are
    # wall-clock measurements of this host and are skipped.
    echo "==> all_figures vs committed results/*.csv (cross-commit DES pin)"
    cargo build --release -q -p zc-bench --bin all_figures
    root=$PWD
    figdir=$(mktemp -d)
    (cd "$figdir" && "$root/target/release/all_figures" > all_figures.txt)
    for csv in "$figdir"/results/*.csv; do
        name=${csv##*/}
        case $name in fig7_memcpy_vanilla.csv | fig13_memcpy_zc.csv) continue ;; esac
        cmp "$csv" "results/$name"
    done
    rm -rf "$figdir"

    # The fault-injection, property and telemetry-trace suites must be
    # deterministic on the virtual clock: two more full runs guard
    # against flakes, plus an explicit pass of the trace-determinism,
    # chaos-soak and adversarial-soak suites (each test itself compares
    # two same-seed runs, so each pass here is a bounded deterministic
    # soak).
    for i in 2 3; do
        echo "==> cargo test (flake check, run $i/3)"
        cargo test -q --workspace
        echo "==> cargo test --test telemetry_trace (determinism, run $i/3)"
        cargo test -q --test telemetry_trace
        echo "==> cargo test --test chaos_soak (seeded soak, run $i/3)"
        cargo test -q --test chaos_soak
        echo "==> cargo test --test byzantine_soak (hostile host, run $i/3)"
        cargo test -q -p zc-switchless --test byzantine_soak --test byzantine_props
        echo "==> cargo test -p zc-des overload soak (MMPP, run $i/3)"
        cargo test -q -p zc-des zc_mmpp_overload
        echo "==> cargo test --test recovery_soak (crash/restart cycles, run $i/3)"
        cargo test -q --test recovery_soak
        echo "==> cargo test -p zc-des recovery conservation (run $i/3)"
        cargo test -q -p zc-des --test recovery_conservation
        echo "==> cargo test --test fleet_isolation (noisy neighbours, run $i/3)"
        cargo test -q -p zc-des --test fleet_isolation
    done
    # The zc worker mailbox has no lock: its correctness rests on the
    # acquire/release ordering of the status CAS, and debug builds hide
    # exactly the reorderings that would break it. One optimised pass
    # of the protocol and hostile-host suites.
    echo "==> cargo test --release (zc protocol + Byzantine suites)"
    cargo test -q --release -p zc-switchless \
        --test protocol_stress --test byzantine_soak --test byzantine_props
fi

echo "ci.sh: all green"
