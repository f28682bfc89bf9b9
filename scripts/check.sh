#!/usr/bin/env bash
# Repo gate: everything a PR must pass, in the order a human wants the
# failures reported. Fully offline (vendored dev-deps, no crates.io).
#
#   scripts/check.sh          # tier-1 build+test, workspace tests, clippy, rustdoc
#   scripts/check.sh --quick  # tier-1 only
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: root package tests =="
cargo test -q

if [[ "${1:-}" == "--quick" ]]; then
    exit 0
fi

echo "== workspace tests =="
cargo test --workspace -q

echo "== examples build =="
cargo build --release --examples

echo "== scheduler x-ray example (export validates, sinks agree, HPL ranks never preempted) =="
cargo run --release -q --example scheduler_xray

echo "== event-loop smoke (fast vs reference fingerprints) =="
cargo run --release -q -p hpl-bench --bin eventloop -- --smoke --out target/BENCH_eventloop_smoke.json

echo "== multi-node smoke (lockstep co-simulation completes) =="
cargo run --release -q -p hpl-bench --bin cluster -- --smoke --out target/BENCH_cluster_smoke.json

echo "== kernel hot-path golden digests (release) =="
cargo test -q --release -p hpl-kernel --test hot_path_golden

echo "== steady-state allocations (release: no allocation while dispatching after warm-up) =="
cargo test -q --release --test steady_state_allocs

echo "== paper-experiment golden digests (release: figures, tables, per-run records) =="
cargo test -q --release -p hpl-bench --test paper_golden

echo "== paper distribution gate (release: per-run records vs the recorded baseline, Bonferroni KS) =="
cargo test -q --release -p hpl-bench --test paper_distributions -- --ignored distributions_match

echo "== repro, every experiment through the binary (one repetition each) =="
cargo run --release -q -p hpl-bench --bin repro -- all --reps 1 >/dev/null

echo "== batch engine golden digests (release: job completion read where the benchmark runs) =="
cargo test -q --release -p hpl-batch --test engine_golden

echo "== parallel co-sim differential (release: serial vs pooled bit-equality) =="
cargo test -q --release --test parallel_cosim

echo "== scheduler torture smoke (fuzzed scenarios + invariant oracle) =="
cargo run --release -q -p hpl-torture --bin torture -- --smoke

echo "== fault torture smoke (forced fault plans: loss, degrade, crash/restart churn) =="
cargo run --release -q -p hpl-torture --bin torture -- --smoke --faults --skip-analytic --skip-selftest

echo "== batch scheduler smoke (two-level sweep completes) =="
cargo run --release -q -p hpl-bench --bin batch -- --smoke --out target/BENCH_batch_smoke.json

echo "== SWF smoke (parse vendored trace, run the policy zoo, audit invariants) =="
cargo run --release -q -p hpl-bench --bin batch -- --swf-smoke

echo "== DFRS smoke (gang rotation on, fractional shares audited, bit-exact replay) =="
cargo run --release -q -p hpl-bench --bin batch -- --dfrs-smoke

echo "== fault sweep smoke (crash/requeue sweep completes) =="
cargo run --release -q -p hpl-bench --bin faults -- --smoke --out target/BENCH_faults_smoke.json

echo "== coord smoke (weighted slicing + user-space arbiter, bit-exact replay) =="
cargo run --release -q -p hpl-bench --bin coord -- --smoke --out target/BENCH_coord_smoke.json

echo "== bench flags (each sweep binary rejects an unknown flag with exit 2, before any work) =="
for bin in eventloop cluster batch faults coord; do
    rc=0
    cargo run --release -q -p hpl-bench --bin "$bin" -- --no-such-flag 2>/dev/null || rc=$?
    if [[ $rc -ne 2 ]]; then
        echo "$bin --no-such-flag exited $rc, want 2" >&2
        exit 1
    fi
done

echo "== repo benchmark smoke (perfbench, every workload: every case correct, host paths agree) =="
for workload in node cluster batch coord; do
    perfbench_out=$(cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 11 --seconds 1 --trace 0)
    echo "$perfbench_out"
    if ! grep -q '"correct": true' <<<"$perfbench_out" || ! grep -q '"failed": 0,' <<<"$perfbench_out"; then
        echo "perfbench $workload smoke: a case failed or the run is incorrect" >&2
        exit 1
    fi
done

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings: broken or ambiguous doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --exclude proptest

echo "all checks passed"
