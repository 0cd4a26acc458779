#include "obs/rules.h"

#include <string_view>
#include <tuple>

#include "obs/json_lite.h"

namespace crfs::obs {
namespace {

constexpr std::uint64_t kNsPerSec = 1'000'000'000;

std::int64_t milli(double v) {
  if (v <= 0.0) return 0;
  const double m = v * 1000.0 + 0.5;
  if (m >= 9.0e18) return 9'000'000'000'000'000'000LL;
  return static_cast<std::int64_t>(m);
}

/// Windowed histogram = cumulative-now minus cumulative-previous,
/// bucket-wise. quantile() only reads count + buckets, so the diff is a
/// valid input for the windowed p99; max is approximated by the cumulative
/// max (unused by quantile()).
HistogramSnapshot diff(const HistogramSnapshot& cur, const HistogramSnapshot& prev) {
  HistogramSnapshot d;
  d.count = cur.count >= prev.count ? cur.count - prev.count : 0;
  d.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : 0;
  d.max = cur.max;
  for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    d.buckets[static_cast<std::size_t>(i)] =
        cur.buckets[static_cast<std::size_t>(i)] >=
                prev.buckets[static_cast<std::size_t>(i)]
            ? cur.buckets[static_cast<std::size_t>(i)] -
                  prev.buckets[static_cast<std::size_t>(i)]
            : 0;
  }
  return d;
}

/// What one row reads from one frame: whether the frame is bad, and the
/// value that was compared against the threshold.
struct Reading {
  bool bad = false;
  double value = 0.0;
};

/// One row of the rule table.
struct Rule {
  const char* name;   ///< event rule (run rows) / objective name (burn rows)
  Severity severity;  ///< of the firing event (a burn row's recovery is info)
  unsigned frames;    ///< run rows: consecutive bad frames to fire; 0 = burn row
  bool latch;         ///< run rows: fire once per run, re-armed by a good frame
  /// The row's threshold; a burn row whose threshold is 0 is disarmed.
  double (*threshold)(const SloConfig& slo, double slow_pwrite_ns);
  /// The frame's reading; nullopt when the window has no signal for the
  /// row, which leaves its state as it was.
  std::optional<Reading> (*read)(const RuleInput& in, double threshold);
  /// Run rows: the message of the event a run of `run` bad frames fires.
  std::string (*message)(const RuleInput& in, unsigned run, const Reading& r,
                         double threshold);
};

/// A windowed value against its threshold; no signal when the window
/// holds no observation or the threshold is 0 (row off).
template <double RuleInput::*Value, std::uint64_t RuleInput::*Count>
std::optional<Reading> windowed(const RuleInput& in, double threshold) {
  if (in.*Count == 0 || threshold <= 0.0) return std::nullopt;
  return Reading{in.*Value > threshold, in.*Value};
}

double no_threshold(const SloConfig&, double) { return 0.0; }

constexpr std::array<Rule, RuleEngine::kRows> kRules = {{
    {"pool_starvation", Severity::kWarning, 3, true, no_threshold,
     [](const RuleInput& in, double) -> std::optional<Reading> {
       return Reading{in.free_chunks == 0, 0.0};
     },
     [](const RuleInput&, unsigned run, const Reading&, double) {
       return "buffer pool exhausted (free_chunks == 0) for " + std::to_string(run) +
              " consecutive samples";
     }},
    // Chunks are queued but nothing lands on the backend. The first frame
    // has no window (dt_ns == 0), so it never counts toward a stall.
    {"queue_stall", Severity::kCritical, 3, true, no_threshold,
     [](const RuleInput& in, double) -> std::optional<Reading> {
       return Reading{in.dt_ns > 0 && in.queue_depth > 0 && in.pwrite_n == 0, 0.0};
     },
     [](const RuleInput& in, unsigned run, const Reading&, double) {
       return "work queue depth " + std::to_string(in.queue_depth.value_or(0)) +
              " with zero pwrite completions for " + std::to_string(run) +
              " consecutive samples";
     }},
    {"slow_pwrite", Severity::kWarning, 1, true,
     [](const SloConfig&, double slow_pwrite_ns) { return slow_pwrite_ns; },
     windowed<&RuleInput::pwrite_p99_ns, &RuleInput::pwrite_n>,
     [](const RuleInput&, unsigned, const Reading& r, double threshold) {
       return "pwrite p99 " + format_ns(r.value) + " above threshold " + format_ns(threshold);
     }},
    // Every window with a new error is its own burst.
    {"error_burst", Severity::kCritical, 1, false,
     [](const SloConfig&, double) { return 1.0; },
     [](const RuleInput& in, double threshold) -> std::optional<Reading> {
       const auto errors = static_cast<double>(in.pwrite_errors);
       return Reading{errors >= threshold, errors};
     },
     [](const RuleInput& in, unsigned, const Reading&, double) {
       return std::to_string(in.pwrite_errors) + " pwrite errors in " +
              format_ns(static_cast<double>(in.dt_ns)) + " window";
     }},
    {"lag", Severity::kCritical, 0, true,
     [](const SloConfig& slo, double) { return static_cast<double>(slo.lag_p99_ns); },
     windowed<&RuleInput::lag_p99_ns, &RuleInput::lag_n>, nullptr},
    {"stall", Severity::kCritical, 0, true,
     [](const SloConfig& slo, double) { return slo.stall_ratio; },
     windowed<&RuleInput::stall_ratio, &RuleInput::stall_n>, nullptr},
    {"ttfb", Severity::kCritical, 0, true,
     [](const SloConfig& slo, double) { return static_cast<double>(slo.ttfb_p99_ns); },
     windowed<&RuleInput::ttfb_p99_ns, &RuleInput::ttfb_n>, nullptr},
}};

}  // namespace

std::string SloConfig::to_json() const {
  std::string s = "{\"lag_p99_ns\":" + std::to_string(lag_p99_ns);
  s += ",\"stall_ratio_ppm\":" +
       std::to_string(static_cast<std::uint64_t>(stall_ratio * 1e6 + 0.5));
  s += ",\"ttfb_p99_ns\":" + std::to_string(ttfb_p99_ns);
  s += ",\"short_window_s\":" + std::to_string(short_window_ns / kNsPerSec);
  s += ",\"long_window_s\":" + std::to_string(long_window_ns / kNsPerSec);
  s += ",\"budget_milli\":" + std::to_string(milli(budget));
  s += ",\"burn_threshold_milli\":" + std::to_string(milli(burn_threshold));
  s += "}";
  return s;
}

std::optional<SloConfig> SloConfig::parse(const json::Value& parsed) {
  if (!parsed.is_object()) return std::nullopt;
  auto num = [&](const char* key) -> std::optional<double> {
    const json::Value* v = parsed.get(key);
    if (v == nullptr || !v->is_number()) return std::nullopt;
    return v->number;
  };
  SloConfig cfg;
  const auto lag = num("lag_p99_ns");
  const auto stall_ppm = num("stall_ratio_ppm");
  const auto ttfb = num("ttfb_p99_ns");
  const auto short_s = num("short_window_s");
  const auto long_s = num("long_window_s");
  const auto budget = num("budget_milli");
  const auto threshold = num("burn_threshold_milli");
  if (!lag || !stall_ppm || !ttfb || !short_s || !long_s || !budget || !threshold) {
    return std::nullopt;
  }
  cfg.lag_p99_ns = static_cast<std::uint64_t>(*lag);
  cfg.stall_ratio = *stall_ppm / 1e6;
  cfg.ttfb_p99_ns = static_cast<std::uint64_t>(*ttfb);
  cfg.short_window_ns = static_cast<std::uint64_t>(*short_s) * kNsPerSec;
  cfg.long_window_ns = static_cast<std::uint64_t>(*long_s) * kNsPerSec;
  cfg.budget = *budget / 1000.0;
  cfg.burn_threshold = *threshold / 1000.0;
  return cfg;
}


RuleInput rule_input(const Sample& s, RuleBaseline& baseline) {
  enum { kLag, kPoolWait, kCopy, kPread, kPwrite };
  static constexpr std::array<std::string_view, std::tuple_size_v<RuleBaseline>> kNames = {
      "crfs.chunk.durability_lag_ns", "crfs.write.pool_wait_ns", "crfs.write.copy_ns",
      "crfs.read.pread_ns", "crfs.io.pwrite_ns"};
  std::array<std::optional<HistogramSnapshot>, kNames.size()> window;
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    if (const HistogramSnapshot* h = s.histogram(kNames[i])) {
      window[i] = diff(*h, baseline[i]);
      baseline[i] = *h;
    }
  }
  const auto p99 = [](const HistogramSnapshot& d) { return d.count > 0 ? d.quantile(0.99) : 0.0; };

  RuleInput in;
  in.ts_ns = s.ts_ns;
  in.dt_ns = s.dt_ns;
  if (window[kLag]) {
    in.lag_n = window[kLag]->count;
    in.lag_p99_ns = p99(*window[kLag]);
  }
  if (window[kPoolWait] && window[kCopy]) {
    // Stall ratio: app time blocked on the pool per wall time. Only
    // meaningful while writes are actually flowing.
    in.stall_n = window[kCopy]->count;
    if (in.stall_n > 0 && s.dt_ns > 0) {
      in.stall_ratio =
          static_cast<double>(window[kPoolWait]->sum) / static_cast<double>(s.dt_ns);
    }
  }
  if (window[kPread]) {
    in.ttfb_n = window[kPread]->count;
    in.ttfb_p99_ns = p99(*window[kPread]);
  }
  if (window[kPwrite]) {
    in.pwrite_n = window[kPwrite]->count;
    in.pwrite_p99_ns = p99(*window[kPwrite]);
  }
  in.free_chunks = s.gauge("crfs.pool.free_chunks");
  in.queue_depth = s.gauge("crfs.queue.depth");
  if (const Rate* errors = s.counter_rate("crfs.io.pwrite_errors")) {
    in.pwrite_errors = errors->delta;
  }
  return in;
}

RuleEngine::RuleEngine(const SloConfig& slo, std::uint64_t slow_pwrite_ns, Registry* registry,
                       EventBuffer* events)
    : slo_(slo), slow_pwrite_ns_(slow_pwrite_ns), events_(events) {
  for (std::size_t i = 0; i < kRows; ++i) {
    if (kRules[i].frames != 0) continue;
    RowState& row = rows_[i];
    row.target = kRules[i].threshold(slo_, 0.0);
    row.armed = row.target > 0.0;
    if (!row.armed || registry == nullptr) continue;
    const std::string prefix = std::string("crfs.slo.") + kRules[i].name;
    row.g_burn_short = &registry->gauge(prefix + ".burn_short");
    row.g_burn_long = &registry->gauge(prefix + ".burn_long");
    row.g_breached = &registry->gauge(prefix + ".breached");
  }
  if (registry != nullptr && any_armed()) c_breaches_ = &registry->counter("crfs.slo.breaches");
}

bool RuleEngine::any_armed() const {
  for (const RowState& row : rows_) {
    if (row.armed) return true;
  }
  return false;
}

void RuleEngine::evaluate(const RuleInput& in) {
  const auto slow_pwrite_ns =
      static_cast<double>(slow_pwrite_ns_.load(std::memory_order_relaxed));
  std::vector<Event> fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ticks_;
    for (std::size_t i = 0; i < kRows; ++i) {
      const Rule& rule = kRules[i];
      RowState& row = rows_[i];
      if (rule.frames == 0 && !row.armed) continue;
      const double threshold = rule.threshold(slo_, slow_pwrite_ns);
      const std::optional<Reading> r = rule.read(in, threshold);
      if (!r.has_value()) continue;
      if (rule.frames == 0) {
        burn(i, in.ts_ns, r->bad, &fired);
        continue;
      }
      if (!r->bad) {
        row.run = 0;
        row.fired = false;
        continue;
      }
      ++row.run;
      if (row.run < rule.frames || (rule.latch && row.fired)) continue;
      row.fired = true;
      // A multi-frame row reports its run against the run length; a
      // single-frame row the measured value against its threshold.
      const bool run_row = rule.frames > 1;
      fired.push_back(Event{rule.severity, rule.name, rule.message(in, row.run, *r, threshold),
                            run_row ? row.run : r->value,
                            run_row ? static_cast<double>(rule.frames) : threshold, in.ts_ns});
    }
  }
  if (events_ == nullptr) return;
  for (Event& ev : fired) events_->push(std::move(ev));
}

void RuleEngine::burn(std::size_t i, std::uint64_t ts_ns, bool bad, std::vector<Event>* fired) {
  RowState& o = rows_[i];
  const char* name = kRules[i].name;
  o.obs.emplace_back(ts_ns, bad);
  const std::uint64_t long_lo =
      ts_ns >= slo_.long_window_ns ? ts_ns - slo_.long_window_ns : 0;
  while (!o.obs.empty() && o.obs.front().first < long_lo) o.obs.pop_front();

  const std::uint64_t short_lo =
      ts_ns >= slo_.short_window_ns ? ts_ns - slo_.short_window_ns : 0;
  o.bad_short = o.n_short = o.bad_long = o.n_long = 0;
  for (const auto& [t, b] : o.obs) {
    ++o.n_long;
    if (b) ++o.bad_long;
    if (t >= short_lo) {
      ++o.n_short;
      if (b) ++o.bad_short;
    }
  }
  const double budget = slo_.budget > 0.0 ? slo_.budget : 1.0;
  o.burn_short = o.n_short > 0
                     ? (static_cast<double>(o.bad_short) / o.n_short) / budget
                     : 0.0;
  o.burn_long =
      o.n_long > 0 ? (static_cast<double>(o.bad_long) / o.n_long) / budget : 0.0;

  if (o.g_burn_short != nullptr) o.g_burn_short->set(milli(o.burn_short));
  if (o.g_burn_long != nullptr) o.g_burn_long->set(milli(o.burn_long));

  if (!o.fired && o.burn_short >= slo_.burn_threshold &&
      o.burn_long >= slo_.burn_threshold) {
    o.fired = true;
    ++o.breaches;
    ++breaches_total_;
    if (c_breaches_ != nullptr) c_breaches_->add(1);
    fired->push_back(Event{kRules[i].severity, "slo_breach",
                           std::string("slo ") + name + " burning error budget: short=" +
                               std::to_string(milli(o.burn_short)) + "m long=" +
                               std::to_string(milli(o.burn_long)) + "m",
                           o.burn_short, slo_.burn_threshold, ts_ns});
  } else if (o.fired && o.burn_short < slo_.burn_threshold) {
    o.fired = false;
    fired->push_back(Event{Severity::kInfo, "slo_recovered",
                           std::string("slo ") + name +
                               " short-window burn back under threshold",
                           o.burn_short, slo_.burn_threshold, ts_ns});
  }
  if (o.g_breached != nullptr) o.g_breached->set(o.fired ? 1 : 0);
}

std::string RuleEngine::slo_json() const {
  if (!any_armed()) return "{\"enabled\":false}";
  std::lock_guard<std::mutex> lock(mu_);
  bool breached = false;
  for (const RowState& row : rows_) breached |= row.armed && row.fired;
  std::string s = "{\"enabled\":true,\"config\":" + slo_.to_json();
  s += ",\"ticks\":" + std::to_string(ticks_);
  s += ",\"breaches\":" + std::to_string(breaches_total_);
  s += ",\"breached\":" + std::string(breached ? "true" : "false");
  s += ",\"objectives\":[";
  bool first = true;
  for (std::size_t i = 0; i < kRows; ++i) {
    const RowState* o = &rows_[i];
    if (!o->armed) continue;
    if (!first) s += ",";
    first = false;
    const std::string name = kRules[i].name;
    s += "{\"name\":\"" + name + "\"";
    s += ",\"target\":" + std::to_string(static_cast<std::uint64_t>(
                              name == "stall" ? o->target * 1e6 + 0.5 : o->target));
    s += ",\"burn_short_milli\":" + std::to_string(milli(o->burn_short));
    s += ",\"burn_long_milli\":" + std::to_string(milli(o->burn_long));
    s += ",\"bad_short\":" + std::to_string(o->bad_short);
    s += ",\"obs_short\":" + std::to_string(o->n_short);
    s += ",\"bad_long\":" + std::to_string(o->bad_long);
    s += ",\"obs_long\":" + std::to_string(o->n_long);
    s += ",\"breached\":" + std::string(o->fired ? "true" : "false");
    s += ",\"breaches\":" + std::to_string(o->breaches);
    s += "}";
  }
  s += "]}";
  return s;
}

}  // namespace crfs::obs
