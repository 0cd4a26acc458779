// Runtime-tunable knob plane (docs/OBSERVABILITY.md "Control plane").
//
// Mount-time Config froze every hot-path parameter; the KnobPlane makes a
// declared subset of them runtime-adjustable with an audit-friendly
// contract:
//
//   * every knob is registered with declared [min, max] bounds and an
//     ApplyFn that commits the new value to the live component (pool
//     resize, io_batch re-clamp, ring re-arm, sampler period, ...);
//   * each successful tune publishes a fresh immutable KnobSnapshot via an
//     atomic pointer swap, with a monotonically increasing generation
//     counter — readers (stats_json, the write path) take an acquire load
//     and never block a writer;
//   * out-of-bounds requests are clamped, unknown knobs and apply-refusals
//     are vetoed, and every outcome is reported in a TuneResult the caller
//     records in the DecisionLog below.
//
// Snapshots are tiny (a generation plus one double per knob) and tunes
// are rare (human operators and the .crfs_tune control file), so superseded
// snapshots are simply retained for the mount's lifetime — that is what
// makes the reader side lock-free without a reclamation protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"

namespace crfs {

/// Static description of one runtime-tunable knob.
struct KnobDef {
  std::string name;
  double min_value = 0.0;
  double max_value = 0.0;
  std::string unit;  ///< "chunks", "jobs", "sqes", "ms"
};

/// Immutable, atomically-published view of all knob values.
struct KnobSnapshot {
  std::uint64_t generation = 0;
  /// Sorted by knob name (registration order is sorted at publish).
  std::vector<std::pair<std::string, double>> values;

  /// Current value, or `fallback` when the knob is not defined.
  double get(std::string_view name, double fallback = 0.0) const;
};

/// Outcome of one tune request.
struct TuneResult {
  std::string knob;
  std::string outcome;  ///< "applied" | "clamped" | "vetoed"
  double requested = 0.0;
  double from = 0.0;
  double to = 0.0;
  std::string reason;  ///< clamp/veto detail; empty for a plain apply
  std::uint64_t generation = 0;  ///< generation after the tune landed

  bool ok() const { return outcome != "vetoed"; }
};

/// Registry of runtime-tunable knobs with bounds, apply callbacks, and a
/// lock-free snapshot for the read side. Writers (tune) serialize on an
/// internal mutex; the apply callback runs under it, so applies must not
/// re-enter the plane.
class KnobPlane {
 public:
  /// Commits `value` to the live component. Returns false to veto (fill
  /// `*reason`). An apply that can only partially honour the request
  /// (e.g. a pool shrink bounded by free chunks) writes what it actually
  /// achieved to `*achieved`, which is pre-set to `value`.
  using ApplyFn = std::function<bool(double value, double* achieved, std::string* reason)>;

  KnobPlane() = default;
  ~KnobPlane() = default;
  KnobPlane(const KnobPlane&) = delete;
  KnobPlane& operator=(const KnobPlane&) = delete;

  /// Registers a knob. Call during construction, before concurrent use.
  void define(KnobDef def, double initial, ApplyFn apply);

  /// Clamps `requested` to the knob's bounds, runs the apply callback,
  /// and on success publishes a new snapshot with a bumped generation.
  /// Vetoes leave the value and generation untouched.
  TuneResult tune(std::string_view name, double requested);

  /// Lock-free acquire load of the current snapshot. Never null after the
  /// first define(); callers during construction get an empty snapshot.
  const KnobSnapshot* snapshot() const;

  std::uint64_t generation() const { return snapshot()->generation; }

  /// Declared knob table (bounds and units), sorted by name.
  std::vector<KnobDef> defs() const;

  /// {"generation":N,"knobs":[{"name":...,"value":...,"min":...,
  ///  "max":...,"unit":...},...]} — knobs sorted by name.
  std::string to_json() const;

 private:
  void publish_locked();

  mutable std::mutex mu_;
  std::vector<KnobDef> defs_;       // sorted by name
  std::vector<ApplyFn> applies_;    // parallel to defs_
  std::vector<double> values_;      // parallel to defs_
  std::uint64_t generation_ = 0;
  std::atomic<const KnobSnapshot*> current_{nullptr};
  std::vector<std::unique_ptr<KnobSnapshot>> history_;
  KnobSnapshot empty_{};
};

namespace obs {

/// One audited knob-change decision (applied, clamped, or vetoed).
struct CtlDecision {
  std::uint64_t seq = 0;    ///< 1-based, assigned by the DecisionLog
  std::uint64_t ts_ns = 0;  ///< when the tune was requested (monotonic ns)
  std::string source;       ///< "manual" | "ctlfile"
  std::string rule;         ///< "tune"
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
/// Prometheus, and the journal's postmortem frame without extra plumbing.
class DecisionLog {
 public:
  DecisionLog(std::size_t capacity, Registry* metrics, EventBuffer* events);

  /// Assigns the sequence number, stores the decision, bumps metrics and
  /// mirrors it into the EventBuffer outside the lock. Returns the
  /// assigned sequence number.
  std::uint64_t record(CtlDecision d);

  /// Current contents, oldest-first.
  std::vector<CtlDecision> snapshot() const;

  /// Decisions ever recorded (>= size()).
  std::uint64_t total() const;

  /// JSON array of the current contents.
  std::string to_json() const;

 private:
  const std::size_t capacity_;
  Registry* metrics_;  // may be null (bare unit tests)
  EventBuffer* events_;  // may be null
  mutable std::mutex mu_;
  std::deque<CtlDecision> ring_;
  std::uint64_t total_ = 0;
};

}  // namespace obs
}  // namespace crfs
