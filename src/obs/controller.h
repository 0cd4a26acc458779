// crfs::obs controller: the feedback half of the telemetry loop.
//
// The Sampler/HealthMonitor plane can *see* pool starvation, queue
// stalls, and slow pwrites; the Controller *acts* on them by retuning the
// runtime knob plane, and the DecisionLog keeps an operator-auditable
// trail of every decision — applied, clamped, or vetoed alike.
//
// Policy rules (all edge-damped by a per-rule cooldown):
//
//   grow_pool   a new pool_starvation event from the HealthMonitor (the
//               epoch-burst backpressure regime of Fig 5) doubles the
//               buffer pool, bounded by the pool_chunks knob's max.
//   widen_io    queue depth rising for >= widen_rising_samples frames
//               while the backend looks healthy (pwrite p99 below
//               widen_max_p99_ns): chunks are arriving faster than we
//               write, so double io_batch.
//   shed_io     pwrite p99 above shed_min_p99_ns with a standing queue:
//               the backend is the bottleneck, so halve io_batch — the
//               paper's §IV insight that IO concurrency is the throttle
//               toward the backend.
//   shed_readahead
//               read p99 (crfs.read.pread_ns) above shed_min_p99_ns while
//               checkpoint writes also queue: restore prefetch is
//               competing with checkpoint traffic on a saturated backend,
//               so halve readahead_window (floor 1).
//   shed_drain  drain pwrite p99 (crfs.tier.drain_pwrite_ns) above
//               shed_min_p99_ns while checkpoint writes queue: the tier's
//               background drain is competing with the burst on a
//               saturated remote, so halve drain_mbps to protect
//               absorption — and restore the pre-shed value as soon as
//               the burst epoch finalizes (crfs.epoch.completed edges).
//
// tick() is clock-agnostic: it only reads the Sample's ts_ns, so the same
// Controller runs on the real Sampler thread (monotonic clock) and inside
// the DES on virtual time. Decisions are stamped exclusively with sample
// timestamps, which is what makes two identical simulated runs produce
// byte-identical decision logs.
//
// The Controller does not know about crfs::KnobPlane (obs sits below the
// core); it reads and tunes knobs through callbacks the owner wires up.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace crfs::obs {

/// One audited knob-change decision (applied, clamped, or vetoed).
struct CtlDecision {
  std::uint64_t seq = 0;    ///< 1-based, assigned by the DecisionLog
  std::uint64_t ts_ns = 0;  ///< sample timestamp (monotonic or virtual)
  std::string source;       ///< "controller" | "manual" | "ctlfile"
  std::string rule;         ///< "grow_pool" | "widen_io" | "shed_io" | "tune"
  std::string knob;
  double requested = 0.0;
  double from = 0.0;
  double to = 0.0;
  std::string outcome;  ///< "applied" | "clamped" | "vetoed"
  std::string reason;   ///< clamp/veto detail; empty for a plain apply
  std::uint64_t generation = 0;  ///< knob-plane generation after the tune

  std::string to_json() const;
};

/// JSON array of decisions, oldest-first.
std::string decisions_to_json(const std::vector<CtlDecision>& decisions);

/// Bounded, thread-safe audit trail of knob-change decisions. Every
/// record lands in three places at once: the ring here, the crfs.ctl.*
/// counters in the Registry, and (as an info-severity Event) in the
/// EventBuffer — so the decision history survives into stats_json,
/// Prometheus, and the flight-recorder postmortem without extra plumbing.
class DecisionLog {
 public:
  DecisionLog(std::size_t capacity, Registry* metrics, EventBuffer* events);

  /// Assigns the sequence number, stores the decision, bumps metrics,
  /// mirrors it into the EventBuffer, then invokes the listener (if any)
  /// outside the lock. Returns the assigned sequence number.
  std::uint64_t record(CtlDecision d);

  /// Current contents, oldest-first.
  std::vector<CtlDecision> snapshot() const;

  /// Decisions ever recorded (>= size()).
  std::uint64_t total() const;

  /// JSON array of the current contents.
  std::string to_json() const;

  /// Notification hook, invoked after each record OUTSIDE the log lock
  /// (e.g. the mount refreshing its flight recorder). Install before any
  /// recorder thread runs; the pointer is read unsynchronized after.
  void set_listener(std::function<void(const CtlDecision&)> listener) {
    listener_ = std::move(listener);
  }

 private:
  const std::size_t capacity_;
  Registry* metrics_;  // may be null (bare unit tests)
  EventBuffer* events_;  // may be null
  mutable std::mutex mu_;
  std::deque<CtlDecision> ring_;
  std::uint64_t total_ = 0;
  std::function<void(const CtlDecision&)> listener_;
};

/// Rule thresholds and damping. Defaults are conservative enough that a
/// healthy pipeline never trips them (the bench idle-overhead guard).
struct ControllerConfig {
  /// Minimum sample-time ns between firings of the same rule.
  std::uint64_t cooldown_ns = 2'000'000'000;
  /// Pool growth multiplier on pool_starvation.
  double grow_factor = 2.0;
  /// Consecutive frames of strictly rising queue depth before widen_io.
  unsigned widen_rising_samples = 3;
  /// Backend considered healthy (widen allowed) below this pwrite p99.
  double widen_max_p99_ns = 5e6;
  /// Backend considered the bottleneck (shed) above this pwrite p99...
  double shed_min_p99_ns = 50e6;
  /// ...with at least this much standing queue.
  std::int64_t shed_min_depth = 2;
};

/// Reads the current value of a knob; returns fallback when unknown.
using KnobReadFn = std::function<double(std::string_view name, double fallback)>;

/// Tunes a knob; the owner fills outcome/from/to/reason/generation from
/// its knob plane's TuneResult.
struct TuneOutcome {
  std::string outcome;
  double from = 0.0;
  double to = 0.0;
  std::string reason;
  std::uint64_t generation = 0;
};
using KnobTuneFn = std::function<TuneOutcome(std::string_view name, double requested)>;

/// Evaluates the policy rules against successive Samples. Single-driver
/// (the Sampler's tick path — real thread or sim coroutine); the output
/// DecisionLog is thread-safe.
class Controller {
 public:
  Controller(ControllerConfig cfg, DecisionLog& log, EventBuffer* health_events,
             Registry* metrics, KnobReadFn read, KnobTuneFn tune);

  /// One control step against frame `s`. Clock-agnostic: uses s.ts_ns.
  void tick(const Sample& s);

  /// Control steps taken; readable from any thread.
  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  const ControllerConfig& config() const { return cfg_; }

 private:
  enum Rule {
    kGrow = 0,
    kWiden = 1,
    kShed = 2,
    kShedReadahead = 3,
    kShedDrain = 4,
    kRuleCount
  };

  bool cooled(Rule r, std::uint64_t ts_ns) const;
  void fire(const Sample& s, Rule r, const char* rule_name, std::string_view knob,
            double requested);

  const ControllerConfig cfg_;
  DecisionLog& log_;
  EventBuffer* health_events_;  // scanned for HealthMonitor edges; may be null
  Registry* metrics_;           // may be null
  KnobReadFn read_;
  KnobTuneFn tune_;

  Counter* c_ticks_ = nullptr;
  Counter* c_fired_[kRuleCount] = {};

  std::atomic<std::uint64_t> ticks_{0};
  std::uint64_t seen_events_ = 0;
  bool have_prev_depth_ = false;
  std::int64_t prev_depth_ = 0;
  unsigned rising_run_ = 0;
  std::uint64_t last_fire_ns_[kRuleCount] = {};
  bool fired_once_[kRuleCount] = {};

  // shed_drain episode state: the rule restores drain_mbps to the value
  // it halved from once an epoch finalizes while shed.
  bool drain_shed_active_ = false;
  double drain_preshed_ = 0.0;
  std::uint64_t drain_shed_epoch_mark_ = 0;
};

}  // namespace crfs::obs
