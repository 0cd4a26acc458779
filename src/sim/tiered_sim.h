// TieredBackendSim: the DES mirror of src/backend/tiered_backend.h.
//
// Writes land on a fast staging station and complete at staging speed; a
// background drain coroutine consumes sealed epochs oldest-first and
// copies their bytes to a slow remote station, evicting staged bytes only
// once the whole epoch is remote-durable. Like the real drain it copies
// early: while no sealed epoch waits, it streams the open epoch's landed
// bytes, so at seal only the uncopied remainder is left. When the stage is capped,
// writers block until the drain frees enough occupancy — the same
// backpressure regime the real TieredBackend applies with space_cv_.
//
// This isolates the one effect bench_tiered measures on the real mount:
// checkpoint absorption happens at staging bandwidth while durability
// trails at remote bandwidth, with stage occupancy bounded by what the
// drain has not yet evicted. Everything is deterministic on virtual
// time: two identical runs produce byte-identical counter sequences,
// which tests/test_tiered.cpp asserts by replaying the scenario twice.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/backend_sim.h"

namespace crfs::sim {

class TieredBackendSim : public BackendSim {
 public:
  struct Options {
    /// Staging-tier bandwidth (bytes/s) — the absorption speed.
    double stage_bw = 1.0 * 1024 * 1024 * 1024;
    /// Remote-tier bandwidth (bytes/s) — the durability speed.
    double remote_bw = 64.0 * 1024 * 1024;
    /// Fixed per-call cost (seconds) on either tier.
    double per_call = 50e-6;
    /// Stage capacity in bytes; 0 = unbounded (no backpressure).
    std::uint64_t stage_cap = 0;
    /// Drain granularity: bytes copied per remote write.
    std::uint64_t drain_chunk = 4 * 1024 * 1024;
  };

  explicit TieredBackendSim(Simulation& sim) : TieredBackendSim(sim, Options{}) {}
  TieredBackendSim(Simulation& sim, Options opts)
      : sim_(sim),
        opts_(opts),
        stage_station_(sim, 1),
        remote_station_(sim, 1),
        work_cv_(sim),
        space_cv_(sim) {
    sim_.spawn(drain_loop());
  }

  /// A client write: block for stage space if capped, then serve at
  /// staging speed. Bytes accrue to the currently open epoch unit.
  Task write_call(unsigned, FileId, std::uint64_t, std::uint64_t len,
                  bool) override {
    while (opts_.stage_cap != 0 && !stopping_ &&
           stage_used_ + len > opts_.stage_cap) {
      stalls_ += 1;
      co_await space_cv_.wait();
    }
    stage_used_ += len;
    open_bytes_ += len;
    const std::uint64_t unit = units_sealed_;
    co_await stage_station_.acquire();
    co_await sim_.delay(opts_.per_call + static_cast<double>(len) / opts_.stage_bw);
    stage_station_.release();
    staged_bytes_ += len;
    writes_ += 1;
    // Landed bytes of a still-open unit become eligible for the eager copy
    // (a unit sealed meanwhile copies them at seal instead).
    if (unit == units_sealed_) {
      open_landed_ += len;
      work_cv_.pulse();
    }
  }

  Task close_file(unsigned, FileId, bool) override { co_return; }

  /// Restore reads are served from whichever tier still holds the bytes;
  /// the sim charges staging speed while any staged bytes remain (the
  /// common restore-soon-after-checkpoint case), remote speed otherwise.
  Task read_call(unsigned, FileId, std::uint64_t, std::uint64_t len, bool) override {
    const double bw = stage_used_ > 0 ? opts_.stage_bw : opts_.remote_bw;
    co_await sim_.delay(opts_.per_call + static_cast<double>(len) / bw);
    read_bytes_ += len;
  }

  /// Seals the open unit under `epoch_id` and wakes the drain — the sim
  /// analogue of EpochTracker's finalize listener calling seal_epoch().
  void seal_epoch(std::uint64_t epoch_id) {
    if (open_bytes_ == 0) return;
    sealed_.push_back(Unit{epoch_id, open_bytes_, open_copied_, sim_.now()});
    open_bytes_ = 0;
    open_landed_ = 0;
    open_copied_ = 0;
    units_sealed_ += 1;
    work_cv_.pulse();
  }

  /// Lets run() terminate: the drain exits once the sealed queue empties.
  void stop() override {
    stopping_ = true;
    work_cv_.pulse();
    space_cv_.pulse();
  }

  // -- Deterministic observables (asserted byte-identical across replays) --
  std::uint64_t writes() const { return writes_; }
  std::uint64_t staged_bytes() const { return staged_bytes_; }
  std::uint64_t drained_bytes() const { return drained_bytes_; }
  std::uint64_t units_sealed() const { return units_sealed_; }
  std::uint64_t units_evicted() const { return units_evicted_; }
  std::uint64_t stalls() const { return stalls_; }
  std::uint64_t stage_used() const { return stage_used_; }
  std::uint64_t stage_peak() const { return stage_peak_; }
  double last_drain_end_s() const { return last_drain_end_s_; }
  /// Max (drain completion - seal) over all drained units: durability lag.
  double max_drain_lag_s() const { return max_drain_lag_s_; }

 private:
  struct Unit {
    std::uint64_t epoch_id;
    std::uint64_t bytes;
    std::uint64_t copied;  ///< bytes the eager copy already moved
    double seal_s;
  };

  /// One drain step: `bytes` to the remote station.
  Task copy_step(std::uint64_t bytes) {
    co_await remote_station_.acquire();
    co_await sim_.delay(opts_.per_call + static_cast<double>(bytes) / opts_.remote_bw);
    remote_station_.release();
    drained_bytes_ += bytes;
  }

  Task drain_loop() {
    for (;;) {
      while (sealed_.empty()) {
        if (stopping_) co_return;
        if (open_landed_ > open_copied_) break;
        co_await work_cv_.wait();
      }
      if (sealed_.empty()) {
        // Copy early: nothing sealed waits, so stream the open unit. The
        // step is claimed first, so a seal mid-step counts it as copied.
        const std::uint64_t avail = open_landed_ - open_copied_;
        const std::uint64_t step = avail < opts_.drain_chunk ? avail : opts_.drain_chunk;
        open_copied_ += step;
        co_await copy_step(step);
        continue;
      }
      const Unit unit = sealed_.front();
      sealed_.pop_front();
      // Copy the uncopied rest in drain_chunk steps; eviction (the
      // stage_used_ release) happens only after the WHOLE unit is
      // remote-durable, mirroring the real backend, which evicts a unit
      // only after every file of it is copied and fsynced.
      std::uint64_t left = unit.bytes - unit.copied;
      while (left > 0) {
        const std::uint64_t step = left < opts_.drain_chunk ? left : opts_.drain_chunk;
        co_await copy_step(step);
        left -= step;
      }
      if (stage_used_ > stage_peak_) stage_peak_ = stage_used_;
      stage_used_ -= unit.bytes < stage_used_ ? unit.bytes : stage_used_;
      units_evicted_ += 1;
      last_drain_end_s_ = sim_.now();
      const double lag = sim_.now() - unit.seal_s;
      if (lag > max_drain_lag_s_) max_drain_lag_s_ = lag;
      space_cv_.pulse();
    }
  }

  Simulation& sim_;
  const Options opts_;
  Resource stage_station_;
  Resource remote_station_;
  Event work_cv_;  ///< a unit sealed, open bytes landed, or stop
  Event space_cv_;
  bool stopping_ = false;

  std::deque<Unit> sealed_;
  std::uint64_t stage_used_ = 0;
  std::uint64_t stage_peak_ = 0;
  std::uint64_t open_bytes_ = 0;
  std::uint64_t open_landed_ = 0;  ///< open-unit bytes on the stage
  std::uint64_t open_copied_ = 0;  ///< of those, claimed by the eager copy

  std::uint64_t writes_ = 0;
  std::uint64_t staged_bytes_ = 0;
  std::uint64_t drained_bytes_ = 0;
  std::uint64_t units_sealed_ = 0;
  std::uint64_t units_evicted_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t read_bytes_ = 0;
  double last_drain_end_s_ = 0.0;
  double max_drain_lag_s_ = 0.0;
};

}  // namespace crfs::sim
