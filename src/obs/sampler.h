// crfs::obs sampler: the live telemetry plane on top of the Registry.
//
// PR 1's metrics are snapshot-at-exit: monotonic totals you read after the
// checkpoint finishes. The paper's §IV argument, though, is about what
// happens *during* an epoch — transient buffer-pool exhaustion and
// IO-thread saturation. The Sampler turns the Registry into a time
// series: tick() captures a timestamped Sample frame (full snapshot plus
// windowed derivatives of every counter and histogram count) into a
// fixed-capacity ring, so callers get bytes/s, writes/s, and errors/s
// over the last window instead of totals since mount.
//
// The telemetry plane (obs/plane.h) owns the Sampler and observes every
// frame through the tick observer (rule engine, journal). tick() is
// clock-agnostic — the caller supplies the timestamp — so the same
// Sampler serves two tick sources:
//   * start(interval): a background thread on the monotonic clock (the
//     real mount, Config::sample_ms / mount option sample_ms=N);
//   * the simulator, which ticks on virtual time from a coroutine
//     (CrfsSimNode spawns it at sample_ms), making the rules
//     deterministic.
//
// Cost model: tick() takes the Registry snapshot mutex and allocates —
// it is a cold path by construction (default 100 ms period; the write
// hot path never touches the Sampler). With sample_ms=0 no Sampler (and
// no thread) exists at all.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace crfs::obs {

/// Windowed derivative of one monotonic series between two samples.
struct Rate {
  std::uint64_t delta = 0;  ///< increase over the window
  double per_sec = 0.0;     ///< delta / window, in events (or bytes) per second
};

/// One timestamped telemetry frame: a full Registry snapshot plus the
/// derivatives against the previous frame.
struct Sample {
  std::uint64_t seq = 0;    ///< 0-based sample index since the Sampler started
  std::uint64_t ts_ns = 0;  ///< capture timestamp (monotonic or virtual ns)
  std::uint64_t dt_ns = 0;  ///< window vs the previous frame; 0 for the first
  Registry::Snapshot snap;

  /// Parallel to snap.counters / snap.histograms (same order). Counter
  /// rates derive from the value; histogram rates from the sample count
  /// (e.g. pwrites completed in the window).
  std::vector<Rate> counter_rates;
  std::vector<Rate> histogram_rates;

  // Name lookups; nullptr / nullopt when the metric is absent.
  const Rate* counter_rate(std::string_view name) const;
  const Rate* histogram_rate(std::string_view name) const;
  std::optional<std::int64_t> gauge(std::string_view name) const;
  const HistogramSnapshot* histogram(std::string_view name) const;
};

struct SamplerOptions {
  /// Frames kept in the ring (oldest evicted). 600 ≈ one minute at the
  /// 100 ms default period.
  std::size_t ring_capacity = 600;
};

/// Periodically snapshots a Registry into a bounded ring of Samples.
class Sampler {
 public:
  explicit Sampler(const Registry& registry, SamplerOptions opts = {});

  /// Stops the background thread, if running.
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Captures one frame at `ts_ns`: snapshot, derivatives vs the previous
  /// frame, append to the ring, then hand the new frame to the tick
  /// observer (if any). Returns a copy of the frame.
  /// Thread-compatible with concurrent readers; tick() itself must come
  /// from one driver at a time (the thread, or the sim coroutine).
  Sample tick(std::uint64_t ts_ns);

  /// Per-tick hook invoked with the fresh frame (where the plane's rule
  /// engine and journal observe samples — same call site whether the
  /// real thread or the sim coroutine ticks). Attach before the first
  /// tick; read unsynchronized after.
  void set_tick_observer(std::function<void(const Sample&)> observer) {
    tick_observer_ = std::move(observer);
  }

  /// Starts the background thread ticking every `interval` on the
  /// monotonic clock. No-op if already running.
  void start(std::chrono::milliseconds interval);

  /// Runtime re-arm of the background period (knob plane); picked up on
  /// the next wakeup. No effect on a sim-driven Sampler (no thread).
  void set_interval(std::chrono::milliseconds interval) {
    interval_ms_.store(interval.count() > 0 ? interval.count() : 1,
                       std::memory_order_relaxed);
  }

  std::chrono::milliseconds interval() const {
    return std::chrono::milliseconds(interval_ms_.load(std::memory_order_relaxed));
  }

  /// Joins the background thread. Idempotent; safe without start().
  void stop();

  bool running() const { return thread_.joinable(); }

  std::uint64_t samples_taken() const { return seq_.load(std::memory_order_relaxed); }

  /// Self-health: counter bumped whenever one tick (snapshot + observer)
  /// took longer than the configured period, i.e. the
  /// sampler is falling behind its own schedule. Attach before start();
  /// `c` must outlive the Sampler. Exposed as `crfs.obs.sampler_overruns`.
  void set_overrun_counter(Counter* c) { overruns_ = c; }

  /// Most recent frame; nullopt before the first tick.
  std::optional<Sample> latest() const;

  /// Up to `n` most recent frames, oldest-first.
  std::vector<Sample> window(std::size_t n) const;

 private:
  const Registry& registry_;
  const SamplerOptions opts_;
  std::function<void(const Sample&)> tick_observer_;
  Counter* overruns_ = nullptr;
  std::atomic<long long> interval_ms_{100};

  mutable std::mutex mu_;
  std::deque<Sample> ring_;
  std::atomic<std::uint64_t> seq_{0};

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
};

}  // namespace crfs::obs
