#!/usr/bin/env bash
# Builds the ThreadSanitizer preset and runs the concurrency-sensitive
# tests: test_buffer_pool (the one-lock pool's park/notify path under
# churn, waiters woken by release, resize and shutdown), test_obs
# (lock-free histograms, TraceRing wrap under racing
# snapshot), test_crfs_concurrency (full pipeline under contention),
# test_epoch_ledger (EpochState handoff through WriteJobs while explicit
# epochs rotate under concurrent writers), test_work_queue (write batches owning their file while
# other threads pop, ownership released from another thread),
# test_io_pool (last-writer-wins across two IO threads, one backend
# writer per file, write errors completing on IO threads, large-write
# bypass racing queued chunks), and
# test_control (knob-plane snapshot publication racing tunes and a
# Prometheus scrape while the sampler ticks), test_read_path (readahead fills completing on IO
# threads while their readers wait and copy out of slots; concurrent
# scans sharing the pool; unmount with fills in flight; the prefetcher
# racing appending writers, flush-before-read barriers under concurrent
# reads), and test_journal (journal flusher thread racing cold-path
# appends and re-rendering the postmortem frame, the SLO monitor ticking on the sampler thread, a real ThrottledBackend
# mount driving breach events from IO threads), and test_tiered (the
# background drain thread evicting staged extents while writers stage,
# stall on backpressure, and read across tiers; drain workers claiming
# and releasing files under the tier lock, with no round barrier, while
# writers stage, size and namespace ops wait on a file's stream and the
# drain thread waits for every file of the sealed unit; copied marks,
# per-file remote fsyncs and the shared drain_mbps budget; drain-failure
# retry racing the healing remote). The drain suites then run 5 more
# times, since those hand-offs race differently on each run.
# Any data-race report fails the run (TSan exits non-zero).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}
JOBS=${JOBS:-2}

cmake -B "$BUILD_DIR" -S . -DCRFS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS" --target test_buffer_pool test_obs test_crfs_concurrency test_epoch_ledger test_work_queue test_io_pool test_control test_read_path test_journal test_tiered

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$BUILD_DIR"/tests/test_buffer_pool
"$BUILD_DIR"/tests/test_obs
"$BUILD_DIR"/tests/test_crfs_concurrency
# Death tests fork; TSan and fork-heavy gtest styles don't mix, so the
# postmortem death tests are skipped here (they run in the plain ctest job).
"$BUILD_DIR"/tests/test_epoch_ledger --gtest_filter='-PostmortemDeathTest.*'
"$BUILD_DIR"/tests/test_work_queue
"$BUILD_DIR"/tests/test_io_pool
"$BUILD_DIR"/tests/test_control
"$BUILD_DIR"/tests/test_read_path
# The SIGKILL crash-recovery test forks; fork + TSan don't mix, so the
# JournalCrash suite is skipped here (it runs in the plain ctest job).
"$BUILD_DIR"/tests/test_journal --gtest_filter='-JournalCrash.*'
"$BUILD_DIR"/tests/test_tiered
"$BUILD_DIR"/tests/test_tiered \
  --gtest_filter='TieredDrain.*:TieredEager.*:TieredFence.*:TieredNamespace.*' --gtest_repeat=5

echo "TSan: clean"
