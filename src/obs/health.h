// crfs::obs health: stall/starvation detection over sampled telemetry.
//
// The HealthMonitor evaluates a fixed rule set against each Sample frame
// the Sampler captures and emits structured Event records into a bounded
// EventBuffer. Rules watch the congestion signals the paper's §IV/§V
// analysis turns on:
//
//   pool_starvation  free_chunks == 0 for >= starvation_samples
//                    consecutive frames — writers are blocked on the
//                    finite BufferPool (Fig 5's backpressure regime).
//   queue_stall      queue depth > 0 while zero pwrites completed in the
//                    window, for >= stall_samples consecutive frames —
//                    chunks are waiting but the IO threads make no
//                    progress (saturated or wedged backend).
//   slow_pwrite      p99 of crfs.io.pwrite_ns above slow_pwrite_p99_ns.
//   error_burst      >= error_burst new crfs.io.pwrite_errors in one
//                    window.
//
// Rules are edge-triggered with hysteresis: each fires once when its
// condition has held for the configured run length, then re-arms only
// after the condition clears — a stall that persists for a thousand
// samples produces one event, not a thousand.
//
// The EventBuffer is also the sink for directly-pushed events (the IO
// pool attaches path/offset/errno to every failed pwrite), so the event
// log is the single post-hoc record of everything that went wrong.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sampler.h"

namespace crfs::obs {

enum class Severity { kInfo, kWarning, kCritical };

/// "info" / "warning" / "critical".
const char* severity_name(Severity s);

/// One structured health/error event.
struct Event {
  Severity severity = Severity::kInfo;
  std::string rule;     ///< rule id: "pool_starvation", "pwrite_error", ...
  std::string message;  ///< human-readable detail (path, offset, errno, ...)
  double value = 0.0;     ///< measured value that tripped the rule
  double threshold = 0.0; ///< configured threshold it was compared against
  std::uint64_t ts_ns = 0;  ///< timestamp of the sample (or of the error)

  /// {"severity":...,"rule":...,"message":...,"value":...,"threshold":...,"ts_ns":...}
  std::string to_json() const;
};

/// JSON array of events (stats_json embedding).
std::string events_to_json(const std::vector<Event>& events);

/// Bounded, thread-safe event log. Oldest events are dropped past
/// `capacity`; total() keeps counting so drops are detectable.
class EventBuffer {
 public:
  explicit EventBuffer(std::size_t capacity = 256);

  void push(Event ev);

  /// Current contents, oldest-first.
  std::vector<Event> snapshot() const;

  /// Events ever pushed (>= size()).
  std::uint64_t total() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Notification hook, invoked after each push OUTSIDE the buffer lock
  /// (the callback may snapshot() this buffer; the plane journals each
  /// event here). Install before any pusher thread runs; the pointer is
  /// read unsynchronized after.
  void set_listener(std::function<void(const Event&)> listener) {
    listener_ = std::move(listener);
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Event> events_;
  std::uint64_t total_ = 0;
  std::function<void(const Event&)> listener_;
};

/// Rule thresholds. Defaults are deliberately conservative: only
/// unambiguous pipeline pathology fires.
struct HealthConfig {
  /// Consecutive frames with free_chunks == 0 before pool_starvation.
  unsigned starvation_samples = 3;
  /// Consecutive frames with depth > 0 and zero pwrite completions
  /// before queue_stall.
  unsigned stall_samples = 3;
  /// p99 pwrite latency (ns) above which slow_pwrite fires; 0 disables.
  std::uint64_t slow_pwrite_p99_ns = 0;
  /// New pwrite errors within one window to fire error_burst.
  std::uint64_t error_burst = 1;
};

/// Evaluates the rule set against successive Samples. Single-driver (the
/// Sampler's tick path); the output EventBuffer is thread-safe.
class HealthMonitor {
 public:
  HealthMonitor(HealthConfig cfg, EventBuffer& out)
      : cfg_(cfg), slow_p99_ns_(cfg.slow_pwrite_p99_ns), out_(out) {}

  void evaluate(const Sample& s);

  /// Static thresholds as configured; the slow_pwrite threshold may have
  /// been retuned since — read it via slow_pwrite_p99_ns().
  const HealthConfig& config() const { return cfg_; }

  /// Runtime re-arm of the slow_pwrite threshold (knob plane); 0
  /// disables the rule. Thread-safe against the evaluating driver.
  void set_slow_pwrite_p99_ns(std::uint64_t ns) {
    slow_p99_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t slow_pwrite_p99_ns() const {
    return slow_p99_ns_.load(std::memory_order_relaxed);
  }

 private:
  HealthConfig cfg_;
  std::atomic<std::uint64_t> slow_p99_ns_;
  EventBuffer& out_;

  // Per-rule run lengths and fired/armed state (hysteresis).
  unsigned starved_run_ = 0;
  bool starvation_fired_ = false;
  unsigned stall_run_ = 0;
  bool stall_fired_ = false;
  bool slow_fired_ = false;
};

}  // namespace crfs::obs
