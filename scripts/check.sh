#!/usr/bin/env bash
# Offline-friendly CI gate: build, test, format, lint.
#
# Everything runs against the vendored path dependencies in vendor/, so no
# network or registry access is needed. Every step is a hard gate: each
# command exits nonzero when its own condition fails, so the script holds
# no output greps.
#
#   scripts/check.sh          # full gate

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*" >&2
    "$@"
}

lrb() {
    cargo run -q --release --offline -p lrb-cli --bin lrb -- "$@"
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# --locked doubles as the lockfile-drift gate: a stale Cargo.lock fails the
# build instead of being silently rewritten.
run cargo build --release --workspace --offline --locked
# The workspace [profile.test] sets overflow-checks = true, so this whole
# suite runs with integer-overflow detection on. It includes the golden
# schema tests (crates/lrb-cli/tests/golden.rs): every report type must
# decode its committed golden and re-encode it byte for byte, and live
# command output must decode into its type at its schema version.
run cargo test -q --workspace --offline
# The benchmark package builds against its own lockfile. Testing it here
# catches a dependency-edge change, or a break in an API it calls, before
# a benchmark run does.
run cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

# Certification suites: the exact-oracle differential tests and the
# metamorphic property tests are the PR-3 quality gate — run them explicitly
# (they are part of the workspace run above, but a bare name here makes a
# regression impossible to miss in the log).
run cargo test -q --release --offline --test differential
run cargo test -q --release --offline --test metamorphic
# Online-vs-batch equivalence (PR-5): every checkpoint of the streaming
# subsystem must be bit-identical to a from-scratch batch solve at every
# engine thread count.
run cargo test -q --release --offline --test online_equivalence
# Heterogeneous-machine certification (PR-8): the speed-scaled solvers are
# certified cell-by-cell against the uniform-machine exact oracle, and the
# metamorphic families (equal-speeds bit-identity, uniform speed scaling,
# relabeling, engine thread invariance, path independence) must all hold.
run cargo test -q --release --offline --test differential_hetero
run cargo test -q --release --offline --test metamorphic_hetero
# Competitive-ratio lab (PR-9): every short event stream is replayed
# through all three migration policies against the incremental exact
# oracle, and the metamorphic axes (size scaling, arrival permutation,
# equal-speeds collapse, engine thread invariance) must all hold.
run cargo test -q --release --offline --test differential_online
run cargo test -q --release --offline --test metamorphic_online_policies

# Report smoke runs. Each command writes its report from its Rust type and
# fails on its own invariants: `trace` on a scenario without a span of its
# container (engine.worker here), `hetero` on any solver row over its move
# budget, `compete` on a certificate overspend or a Maack 8/3 envelope
# break.
run lrb trace --scenario smoke_ladder --threads 4 --seed 7 --out "$tmp/trace.json" >/dev/null
run lrb chaos --epochs 50 --crash-rate 0.1 >/dev/null
run lrb online --servers 4 --epochs 10 --moves 3 >/dev/null
run lrb hetero --smoke >/dev/null
run lrb compete --smoke >/dev/null

# Committed-baseline gate: a fresh `bench --smoke` report must stay within
# a generous threshold of the committed BENCH_4.json (same scenario, seed,
# and thread list; oversubscribed points never gate). The comparator exits
# nonzero on a regression, and refuses a report that does not decode at
# schema v3 or v4. 0.5 absorbs host-to-host hardware differences, and
# best-of-three absorbs transient load spikes on shared runners — only a
# regression that persists across all three runs gates. (Self-comparison
# and injected-regression detection are tested through the binary in
# crates/lrb-cli/tests/cli.rs.)
echo "==> bench smoke + committed-baseline gate (BENCH_4.json)" >&2
baseline_ok=""
for attempt in 1 2 3; do
    lrb bench --smoke --threads 1,2 --out "$tmp/bench.json" >/dev/null
    if lrb bench --baseline BENCH_4.json --compare "$tmp/bench.json" --threshold 0.5 \
        >/dev/null 2>&1; then
        baseline_ok=1
        break
    fi
    echo "    committed-baseline attempt $attempt regressed; retrying" >&2
done
if [ -z "$baseline_ok" ]; then
    echo "bench committed-baseline gate failed: regression vs BENCH_4.json persisted across 3 runs" >&2
    exit 1
fi

# Serve gate: SIGKILL the daemon mid-load and restart it. The drill exits
# nonzero on any lost acked event, resurrected departed key, or
# live-vs-recovered digest divergence. Cycle 1 is killed; cycle 2 verifies
# the survivors, shuts down cleanly, and compares the live digests against
# an offline recovery. The drill must leave a snapshot, offline recovery
# refuses one that does not decode into `SnapshotDoc` at schema_version 1,
# and two offline recoveries must agree.
run lrb loadgen --drill --data "$tmp/serve" --cycles 2 --tenants 5 --events 20 \
    --workers 2 --snapshot-every 16 --kill-lo 40 --kill-hi 150 --seed 11
if [ ! -f "$tmp/serve/snapshot.json" ]; then
    echo "serve gate failed: the drill left no snapshot" >&2
    exit 1
fi
digest_a="$(lrb serve --data "$tmp/serve" --digest)"
digest_b="$(lrb serve --data "$tmp/serve" --digest)"
if [ "$digest_a" != "$digest_b" ]; then
    echo "serve gate failed: offline digest recovery is not deterministic" >&2
    exit 1
fi

# Static invariant gate: lrb-lint exits nonzero on any violation of the
# lexical rules (no-nondeterminism, no-panic-core, checked-arith,
# obs-name-registry, unsafe-audit) or the call-graph passes
# (panic-reachability, nondeterminism taint, checked-arith dataflow,
# stale-suppression), and on an empty call graph, which would make every
# reachability pass vacuously clean.
run cargo run -q --release --offline -p lrb-lint --bin lrb-lint -- --root .

# Concurrency-schedule gate (PR-5): the work-stealing engine must produce
# bit-identical results under seeded pathological schedules (steal storms,
# single-slot stripes, adversarial yields) across 8 seeds.
run cargo run -q --release --offline -p lrb-lint --bin lrb-lint -- \
    --schedules --seeds 0..8 --threads 2,4

# Zero-cost tracing gate: the NoopTracer-monomorphized hot loop must stay
# within 2% of the untraced loop (the bench asserts and aborts otherwise).
run cargo bench -q -p lrb-bench --bench trace_overhead --offline

run cargo fmt --all --check

run cargo clippy --workspace --all-targets --offline -- -D warnings

echo "all checks passed"
