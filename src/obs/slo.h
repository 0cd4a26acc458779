// crfs::obs SLO burn-rate engine (docs/OBSERVABILITY.md "SLOs and burn
// rates").
//
// The HealthMonitor's rules are instantaneous and edge-triggered: "is the
// pipeline pathological right now". An operator's question is different —
// "is this mount eating its error budget fast enough that someone should
// act". The SloMonitor answers it SRE-style: each objective turns every
// Sampler tick into a good/bad observation against a target, and the bad
// fraction over two windows (short, e.g. 5 min, and long, e.g. 1 h) is
// divided by the allowed budget to give a burn rate. An alert fires only
// when BOTH windows burn at >= the threshold — the short window gives
// detection latency, the long window rejects blips.
//
// Objectives (each enabled by a non-zero target):
//   lag    windowed p99 of crfs.chunk.durability_lag_ns  > lag_p99_ns
//   stall  pool-wait ns per wall ns in the window        > stall_ratio
//   ttfb   windowed p99 of crfs.read.pread_ns            > ttfb_p99_ns
//
// Determinism contract: the monitor is pure state machine over SloInput
// observations — no clocks, no allocation-order dependence — so the
// simulator replays burn-rate firing byte-identically (slo_json() emits
// integers only), and `crfsctl slo` replays the exact same decisions
// offline from the journal's persisted SloInput fields.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/sampler.h"

namespace crfs::obs {

namespace json {
struct Value;  // json_lite.h
}

/// Per-mount SLO targets. A zero target disables that objective.
struct SloConfig {
  std::uint64_t lag_p99_ns = 0;   ///< durability-lag p99 target
  double stall_ratio = 0.0;       ///< pool-wait ns per wall ns (0.05 = 5%)
  std::uint64_t ttfb_p99_ns = 0;  ///< restore read p99 target
  std::uint64_t short_window_ns = 300ull * 1'000'000'000;   ///< 5 min
  std::uint64_t long_window_ns = 3'600ull * 1'000'000'000;  ///< 1 h
  double budget = 0.10;          ///< allowed bad fraction of a window
  double burn_threshold = 1.0;   ///< fire when both windows burn >= this

  bool any_enabled() const {
    return lag_p99_ns != 0 || stall_ratio > 0.0 || ttfb_p99_ns != 0;
  }

  /// Integer-only JSON (journal meta frame; offline replay recovers the
  /// targets from this).
  std::string to_json() const;
  /// Inverse of to_json() over the parsed object (the journal meta
  /// frame's "slo" member); nullopt when it is not an object or a key is
  /// missing or not a number.
  static std::optional<SloConfig> parse(const json::Value& v);
};

/// One tick's worth of SLO-relevant signal, already windowed. `*_n` is the
/// number of underlying observations in the window — 0 means "no signal"
/// and the objective skips the tick entirely (an idle mount burns nothing).
struct SloInput {
  std::uint64_t ts_ns = 0;
  double lag_p99_ns = 0.0;
  std::uint64_t lag_n = 0;     ///< chunks made durable in the window
  double stall_ratio = 0.0;
  std::uint64_t stall_n = 0;   ///< app writes in the window
  double ttfb_p99_ns = 0.0;
  std::uint64_t ttfb_n = 0;    ///< preads in the window
};

/// Turns successive Sample frames into SloInputs by diffing cumulative
/// histograms (windowed p99 = p99 of the bucket deltas). Stateful: keeps
/// the previous frame's snapshots. Single-driver, like the Sampler tick
/// path that owns it.
class SloExtractor {
 public:
  SloInput extract(const Sample& s);

 private:
  HistogramSnapshot prev_lag_;
  HistogramSnapshot prev_pool_wait_;
  HistogramSnapshot prev_copy_;
  HistogramSnapshot prev_pread_;
  std::uint64_t prev_ts_ns_ = 0;
  bool have_prev_ = false;
};

/// Multi-window burn-rate evaluator over SloInput observations.
/// Registry (optional) gets per-objective gauges
/// `crfs.slo.<name>.burn_short` / `.burn_long` / `.breached` (burns in
/// milli-units: 1000 = burning exactly at threshold budget) plus the
/// `crfs.slo.breaches` counter; EventBuffer (optional) gets an
/// edge-triggered critical "slo_breach" per objective, re-armed by an
/// info "slo_recovered" when the short window clears.
class SloMonitor {
 public:
  SloMonitor(SloConfig cfg, Registry* registry, EventBuffer* events);

  /// Live drive point (Sampler tick observer): extract + observe.
  void tick(const Sample& s) { observe(extractor_.extract(s)); }

  /// Replay drive point (simulator determinism tests, `crfsctl slo`).
  void observe(const SloInput& in);

  const SloConfig& config() const { return cfg_; }
  std::uint64_t ticks() const;
  std::uint64_t breaches() const;
  /// True while any objective is in the breached state.
  bool breached() const;

  /// Deterministic (integer-only) "slo" row for stats_json / postmortem /
  /// `crfsctl slo`: config, then per-objective burn state.
  std::string to_json() const;

 private:
  struct Objective {
    const char* name;     ///< "lag" / "stall" / "ttfb"
    double target = 0.0;  ///< in the objective's native unit
    bool enabled = false;
    std::deque<std::pair<std::uint64_t, bool>> obs;  ///< (ts_ns, bad)
    double burn_short = 0.0;
    double burn_long = 0.0;
    std::uint64_t bad_short = 0, n_short = 0;
    std::uint64_t bad_long = 0, n_long = 0;
    bool fired = false;
    std::uint64_t breaches = 0;
    Gauge* g_burn_short = nullptr;
    Gauge* g_burn_long = nullptr;
    Gauge* g_breached = nullptr;
  };

  /// Updates `o` (mu_ held); a breach/recovery edge is appended to
  /// `edges`, pushed by observe() after mu_ is released.
  void observe_one(Objective& o, std::uint64_t ts_ns, double value,
                   std::vector<Event>* edges);
  bool breached_locked() const;

  const SloConfig cfg_;
  EventBuffer* events_;
  Counter* c_breaches_ = nullptr;
  SloExtractor extractor_;
  // The sampler thread observes while stats_json/postmortem readers
  // render; events are pushed outside it, so an event listener may itself
  // render a document that calls to_json.
  mutable std::mutex mu_;
  Objective lag_, stall_, ttfb_;
  std::uint64_t ticks_ = 0;
  std::uint64_t breaches_total_ = 0;
};

}  // namespace crfs::obs
