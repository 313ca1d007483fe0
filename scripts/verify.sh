#!/usr/bin/env bash
# Tier-1-plus verification for the MFTI workspace:
#   build → tests (debug, then release numeric and core) → benches
#   compile → lint → benchmark package tests → digest smokes (thread
#   invariance and committed digests) → perf snapshot.
#
# Usage: scripts/verify.sh [--no-bench-run]
#   --no-bench-run  skip the timing snapshot (CI boxes with noisy clocks)
set -euo pipefail
cd "$(dirname "$0")/.."

run() { echo "==> $*"; "$@"; }

run cargo build --release --workspace
run cargo test -q --workspace
# The numeric kernels' bit-for-bit oracle tests (DESIGN.md §6) hold each
# level-2 kernel to its indexed reference loop; they prove something
# only where the optimizer vectorizes, and the run above is the debug
# profile.
run cargo test -q --release -p mfti-numeric
# The core crate's bit-identity tests (realified assembly == realified
# oracle, slide == from-scratch build, thread invariance, session ==
# one-shot fit) also run in the release profile, which the smokes and
# the benchmark use.
run cargo test -q --release -p mfti-core
run cargo bench --no-run --workspace
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --all --check
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Determinism invariants at source level (DESIGN.md §7): the in-repo
# analyzer walks every workspace .rs file and fails fast — before the
# digest smokes below — on hash-order iteration, rogue thread fan-out,
# unordered float reductions, undocumented/unconfined unsafe, ambient
# env/clock reads, and dangling DESIGN.md §n references. Findings are
# printed as file:line: [MFTI-Dn] …; the JSON artifact is gitignored.
run cargo run --release -p mfti-lint -- --json LINT_findings.json

# The benchmark package (perf/, BENCHMARK.json) is not a workspace
# member, so nothing above builds it. Its quick tests build it against
# the library sources and run every workload once, so removing or
# renaming a public item it calls fails here rather than in a
# benchmark run.
run cargo test --release --offline --manifest-path perf/Cargo.toml

# Real-vs-complex detection equivalence (Lemma 3.2): fits and sessions
# detect on the realified shifted pencil, and the realize_complex
# oracle on the complex one. The two σ must match elementwise to
# 1e-13·σ₁ and every OrderSelection variant must make the identical
# rank decision on both — gated here, *before* the digest smokes, so a
# detection-arithmetic regression surfaces as the typed assertion
# rather than an opaque digest mismatch.
run cargo test -q --release --test detection_equivalence

# Deterministic-parallelism smoke: the same sweep (sweep_smoke), the
# same fit (fit_smoke: parallel pencil assembly + blocked-SVD trailing
# updates), the same streamed session (session_smoke: per-append
# rank-revealing SVD updates, digesting every per-append σ and the
# final model), the same sliding-window sessions (window_smoke,
# DESIGN.md §9: a clean window's verified downdates and probe gates, and
# a noisy window's fresh re-anchor on every slide — digesting every
# per-append σ plus the eviction/quarantine/re-anchor provenance) and
# the same realization stage (realize_smoke: lazy rank-limited WY slab
# accumulation on the fresh real path and the
# complex realize_complex oracle + the session-retained-factor path,
# digesting every model's bits) at
# 1 worker and at many workers must be bit-identical (static-chunk
# executor guarantee).
run cargo build --release -p mfti-bench --bin sweep_smoke --bin fit_smoke --bin session_smoke \
    --bin window_smoke --bin realize_smoke
# Fault campaign (fault_smoke, DESIGN.md §8): every failure class of
# the taxonomy through all four engines — zero panics, typed errors
# only, and the outcome digest (orders, error strings, response bits)
# must be exactly as thread-invariant as the success-path digests.
run cargo build --release -p mfti-faults --bin fault_smoke
# Committed digests (scripts/smoke_digests.txt): each smoke's 1-thread
# line must also equal its committed line, so moving model bits is a
# deliberate change recorded in CHANGES.md. The split-complex GEMM
# takes FMA where the host has AVX2+FMA (DESIGN.md §6), so the committed
# bits hold on such x86_64 hosts only; elsewhere the comparison is
# skipped with a notice and only thread invariance is checked.
digests=scripts/smoke_digests.txt
compare_digests=0
if [[ "$(uname -m)" == x86_64 ]] && grep -qw avx2 /proc/cpuinfo 2>/dev/null \
    && grep -qw fma /proc/cpuinfo 2>/dev/null; then
    compare_digests=1
else
    echo "==> notice: not an x86_64 host with AVX2+FMA; skipping the comparison with $digests"
fi
for smoke in sweep_smoke fit_smoke session_smoke window_smoke realize_smoke fault_smoke; do
    digest_1=$(MFTI_THREADS=1 "target/release/$smoke")
    digest_n=$(MFTI_THREADS=8 "target/release/$smoke")
    echo "==> $smoke 1-thread:  $digest_1"
    echo "==> $smoke 8-thread:  $digest_n"
    if [[ "$digest_1" != "$digest_n" ]]; then
        echo "verify: FAIL — parallel $smoke is not bit-identical to serial" >&2
        exit 1
    fi
    if [[ $compare_digests == 1 ]] && ! grep -qxF -- "$digest_1" "$digests"; then
        echo "verify: FAIL — $smoke's digest differs from $digests" >&2
        echo "    committed: $(grep -F -- "${digest_1%% digest:*} digest:" "$digests" || true)" >&2
        exit 1
    fi
done

if [[ "${1:-}" != "--no-bench-run" ]]; then
    # Perf trajectory: one JSON snapshot of the end-to-end fit + GEMM
    # kernels per verify run (BENCH_end_to_end.json, gitignored).
    run cargo run --release -p mfti-bench --bin bench_json
    # Bounded-memory contract (BENCH_session_window.json): per-append
    # cost under a sliding window must stay flat — last-decile median
    # <= 1.5x first-decile median of each append's minimum over five
    # identical streams, on clean W = 48 and W = 96 streams and on a
    # noisy W = 48 stream that re-anchors on every slide — and the peak
    # pencil order must never exceed the capacity; a never-evicting
    # control stream must read above 1.5x. window_bench exits nonzero
    # otherwise.
    run cargo run --release -p mfti-bench --bin window_bench
fi

echo "verify: all green"
