// crfs::obs rules: the one rule engine behind every health event and SLO
// burn rate (docs/OBSERVABILITY.md "Health rules", "SLOs and burn rates").
//
// A fixed table of seven rows (kRules in rules.cpp: pool_starvation,
// queue_stall, slow_pwrite, error_burst, and the lag/stall/ttfb SLOs) is
// evaluated against one RuleInput per sampler tick: the frame's windowed
// signals, extracted once by rule_input(). A row has one of two triggers:
//
//   run    the row's condition must hold for N consecutive frames; the
//          row then fires once and re-arms only after a frame where the
//          condition fails (a latch-free row fires on every bad frame).
//   burn   SRE-style two-window burn rate: each frame is a good/bad
//          observation against a target, and the bad fraction over a
//          short and a long window, divided by the error budget, is the
//          burn rate. A critical slo_breach fires when BOTH windows burn
//          at >= the threshold (the short window gives detection
//          latency, the long one rejects blips); an info slo_recovered
//          re-arms it once the short window clears.
//
// A frame without signal for a row (no pwrite completed in the window
// for slow_pwrite, no durable chunk for lag, ...) leaves that row's state
// as it was: an idle mount neither fires, re-arms, nor burns budget.
//
// Determinism contract: the engine is a pure state machine over
// RuleInputs — no clocks, no allocation-order dependence — so the
// simulator replays firing byte-identically (slo_json() emits integers
// only), and `crfsctl slo` replays the burn rows offline from the
// journal's persisted inputs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace crfs::obs {

namespace json {
struct Value;  // json_lite.h
}

/// Per-mount SLO targets. A zero target disarms that burn row.
struct SloConfig {
  std::uint64_t lag_p99_ns = 0;   ///< durability-lag p99 target
  double stall_ratio = 0.0;       ///< pool-wait ns per wall ns (0.05 = 5%)
  std::uint64_t ttfb_p99_ns = 0;  ///< restore read p99 target
  std::uint64_t short_window_ns = 300ull * 1'000'000'000;   ///< 5 min
  std::uint64_t long_window_ns = 3'600ull * 1'000'000'000;  ///< 1 h
  double budget = 0.10;          ///< allowed bad fraction of a window
  double burn_threshold = 1.0;   ///< fire when both windows burn >= this

  /// Integer-only JSON (journal meta frame; offline replay recovers the
  /// targets from this).
  std::string to_json() const;
  /// Inverse of to_json() over the parsed object (the journal meta
  /// frame's "slo" member); nullopt when it is not an object or a key is
  /// missing or not a number.
  static std::optional<SloConfig> parse(const json::Value& v);
};

/// One tick's worth of rule signal, already windowed. `*_n` is the number
/// of underlying observations in the window; 0 means "no signal" for the
/// rows that read it. The SLO fields are persisted in every journal
/// sample frame, which is what `crfsctl slo` replays.
struct RuleInput {
  std::uint64_t ts_ns = 0;
  std::uint64_t dt_ns = 0;     ///< window length; 0 on the first frame
  double lag_p99_ns = 0.0;
  std::uint64_t lag_n = 0;     ///< chunks made durable in the window
  double stall_ratio = 0.0;
  std::uint64_t stall_n = 0;   ///< app writes in the window
  double ttfb_p99_ns = 0.0;
  std::uint64_t ttfb_n = 0;    ///< preads in the window
  std::optional<std::int64_t> free_chunks;  ///< crfs.pool.free_chunks
  std::optional<std::int64_t> queue_depth;  ///< crfs.queue.depth
  double pwrite_p99_ns = 0.0;
  std::uint64_t pwrite_n = 0;       ///< backend writes completed in the window
  std::uint64_t pwrite_errors = 0;  ///< new crfs.io.pwrite_errors in the window
};

/// The cumulative histograms of the previous frame that a RuleInput's
/// windowed p99s and counts are diffed against.
using RuleBaseline = std::array<HistogramSnapshot, 5>;

/// The windowed input of frame `s` (windowed p99 = p99 of the bucket
/// deltas since `baseline`); advances `baseline` to `s`.
RuleInput rule_input(const Sample& s, RuleBaseline& baseline);

/// Evaluates the rule table against successive RuleInputs. `registry`
/// (optional) gets, per armed burn row, the gauges
/// `crfs.slo.<row>.burn_short` / `.burn_long` / `.breached` (burns in
/// milli-units: 1000 = burning exactly at threshold budget) plus the
/// `crfs.slo.breaches` counter; `events` (optional) gets every firing.
/// One evaluating thread at a time; slo_json() and the slow_pwrite
/// threshold are safe from any thread.
class RuleEngine {
 public:
  static constexpr std::size_t kRows = 7;

  RuleEngine(const SloConfig& slo, std::uint64_t slow_pwrite_ns, Registry* registry,
             EventBuffer* events);

  void evaluate(const RuleInput& in);

  /// Runtime re-arm of the slow_pwrite threshold (knob slow_pwrite_ms);
  /// 0 disables the row.
  void set_slow_pwrite_ns(std::uint64_t ns) {
    slow_pwrite_ns_.store(ns, std::memory_order_relaxed);
  }

  /// Deterministic (integer-only) "slo" section for stats_json /
  /// postmortem / `crfsctl slo`: the targets, then per armed burn row its
  /// burn state; {"enabled":false} when no SLO target is armed.
  std::string slo_json() const;

 private:
  struct RowState {
    // run rows
    unsigned run = 0;
    // both: latched (run rows) / breached (burn rows)
    bool fired = false;
    // burn rows
    bool armed = false;
    double target = 0.0;  ///< in the row's native unit
    std::deque<std::pair<std::uint64_t, bool>> obs;  ///< (ts_ns, bad)
    double burn_short = 0.0;
    double burn_long = 0.0;
    std::uint64_t bad_short = 0, n_short = 0;
    std::uint64_t bad_long = 0, n_long = 0;
    std::uint64_t breaches = 0;
    Gauge* g_burn_short = nullptr;
    Gauge* g_burn_long = nullptr;
    Gauge* g_breached = nullptr;
  };

  /// Feeds one burn-row observation (mu_ held); a breach or recovery
  /// edge is appended to `fired`.
  void burn(std::size_t row, std::uint64_t ts_ns, bool bad, std::vector<Event>* fired);
  bool any_armed() const;

  const SloConfig slo_;
  std::atomic<std::uint64_t> slow_pwrite_ns_;
  EventBuffer* events_;
  Counter* c_breaches_ = nullptr;
  // The sampler thread evaluates while stats_json/postmortem readers
  // render; events are pushed after it is released, so an event listener
  // may itself render a document that calls slo_json.
  mutable std::mutex mu_;
  std::array<RowState, kRows> rows_;
  std::uint64_t ticks_ = 0;
  std::uint64_t breaches_total_ = 0;
};

}  // namespace crfs::obs
