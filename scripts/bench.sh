#!/usr/bin/env bash
# Offline perf-regression harness.
#
#   scripts/bench.sh          # full sweeps  (~minutes)
#   scripts/bench.sh --quick  # short sweeps
#   scripts/bench.sh --smoke  # seconds-long CI-sized sweeps
#
# The arguments go to each of the five sweep binaries, which share one
# flag parser (`--smoke | --quick`; an unknown flag exits 2 before any
# work) and one claim gate: replay, audit, occupancy and lost-job flags
# fail the run (exit 1) at every flavour, comparative claims except
# under --smoke.
#
# Writes five JSON reports at the repo root:
#
#   BENCH_eventloop.json — per-sweep events/sec and wall seconds for the
#     event-loop fast path vs the reference path, a loop-bound headline
#     speedup, and an identical-results flag (the speedup only counts
#     because the two paths are byte-identical).
#   BENCH_cluster.json — the mechanistic multi-node amplification curve:
#     noise slowdown vs node count under CFS and the HPL scheduler,
#     cross-checked against the analytic resonance model.
#   BENCH_batch.json — the two-level scheduling sweep: batch allocation
#     policies (FCFS, EASY backfilling, 2x oversubscription) crossed
#     with CFS and HPL kernels; per-cell mean wait, bounded slowdown,
#     utilization and makespan, with determinism and ordering claims.
#     Plus the SWF policy-zoo sweep over the vendored production trace
#     (FCFS/EASY/conservative/multi-queue/fair-share + a walltime-
#     enforcement cell), gated on bit-exact replay, zero conservative
#     reservation violations, fair-share spread <= FCFS, and
#     serial-vs-pooled bit equality. `batch --trace FILE.swf` replays
#     an external SWF trace instead of the vendored fixture.
#     Gang-rotation cells (oversubscribed and DFRS under the HPL kernel
#     with a gang epoch) gate the formerly ungated oversub x HPL
#     combination: rotation must close the run-to-block serialisation
#     gap to within 1.2x of CFS, DFRS bounded slowdown must beat EASY,
#     and the fractional-share audit must be violation-free and
#     bit-exact on replay.
#   BENCH_faults.json — the crash/churn sweep: the batch stream under a
#     rising crash count with checkpoint/restart requeue; gates on
#     zero lost jobs, zero occupancy violations, bit-identical replay
#     and graceful bounded-slowdown degradation.
#   BENCH_coord.json — the coordination-backend sweep: a 750/250 share
#     split measured differentially against a 500/500 control under
#     both the weighted kernel gang slicer and the user-space lease
#     arbiter; gates on the all-equal-shares identity with no share
#     table, the differential skew on both backends, a bounded
#     user-vs-kernel coordination tax, and serial-vs-pooled bit
#     equality.
#
# BENCH_batch.json additionally carries the capacity cell (non-smoke):
# the vendored SWF fragment tiled to thousands of jobs on a 128-node
# (64 under --quick) cluster, gated on bit-exact replay, clean
# occupancy and a sane host wall-clock.
#
# No criterion, no network.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p hpl-bench --bin eventloop --bin cluster --bin batch --bin faults --bin coord
./target/release/eventloop "$@"
./target/release/cluster "$@"
./target/release/batch "$@"
./target/release/faults "$@"
./target/release/coord "$@"
