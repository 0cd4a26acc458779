#include "obs/slo.h"

#include <algorithm>
#include <cmath>

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

std::optional<SloConfig> SloConfig::parse(std::string_view text) {
  const auto parsed = json::parse(text);
  if (!parsed.has_value() || !parsed->is_object()) return std::nullopt;
  auto num = [&](const char* key) -> std::optional<double> {
    const json::Value* v = parsed->get(key);
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

SloInput SloExtractor::extract(const Sample& s) {
  SloInput in;
  in.ts_ns = s.ts_ns;

  const HistogramSnapshot* lag = s.histogram("crfs.chunk.durability_lag_ns");
  const HistogramSnapshot* pool_wait = s.histogram("crfs.write.pool_wait_ns");
  const HistogramSnapshot* copy = s.histogram("crfs.write.copy_ns");
  const HistogramSnapshot* pread = s.histogram("crfs.read.pread_ns");

  const std::uint64_t dt_ns =
      have_prev_ && s.ts_ns > prev_ts_ns_ ? s.ts_ns - prev_ts_ns_ : s.dt_ns;

  if (lag != nullptr) {
    const HistogramSnapshot d = diff(*lag, prev_lag_);
    in.lag_n = d.count;
    if (d.count > 0) in.lag_p99_ns = d.quantile(0.99);
    prev_lag_ = *lag;
  }
  if (pool_wait != nullptr && copy != nullptr) {
    const HistogramSnapshot dw = diff(*pool_wait, prev_pool_wait_);
    const HistogramSnapshot dc = diff(*copy, prev_copy_);
    // Stall ratio: app time blocked on the pool per wall time. Only
    // meaningful while writes are actually flowing.
    in.stall_n = dc.count;
    if (dc.count > 0 && dt_ns > 0) {
      in.stall_ratio = static_cast<double>(dw.sum) / static_cast<double>(dt_ns);
    }
    prev_pool_wait_ = *pool_wait;
    prev_copy_ = *copy;
  }
  if (pread != nullptr) {
    const HistogramSnapshot d = diff(*pread, prev_pread_);
    in.ttfb_n = d.count;
    if (d.count > 0) in.ttfb_p99_ns = d.quantile(0.99);
    prev_pread_ = *pread;
  }

  prev_ts_ns_ = s.ts_ns;
  have_prev_ = true;
  return in;
}

SloMonitor::SloMonitor(SloConfig cfg, Registry* registry, EventBuffer* events)
    : cfg_(cfg), events_(events) {
  lag_.name = "lag";
  lag_.target = static_cast<double>(cfg_.lag_p99_ns);
  lag_.enabled = cfg_.lag_p99_ns != 0;
  stall_.name = "stall";
  stall_.target = cfg_.stall_ratio;
  stall_.enabled = cfg_.stall_ratio > 0.0;
  ttfb_.name = "ttfb";
  ttfb_.target = static_cast<double>(cfg_.ttfb_p99_ns);
  ttfb_.enabled = cfg_.ttfb_p99_ns != 0;
  if (registry != nullptr) {
    c_breaches_ = &registry->counter("crfs.slo.breaches");
    for (Objective* o : {&lag_, &stall_, &ttfb_}) {
      if (!o->enabled) continue;
      const std::string prefix = std::string("crfs.slo.") + o->name;
      o->g_burn_short = &registry->gauge(prefix + ".burn_short");
      o->g_burn_long = &registry->gauge(prefix + ".burn_long");
      o->g_breached = &registry->gauge(prefix + ".breached");
    }
  }
}

void SloMonitor::observe(const SloInput& in) {
  std::vector<Event> edges;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ticks_;
    if (lag_.enabled && in.lag_n > 0) observe_one(lag_, in.ts_ns, in.lag_p99_ns, &edges);
    if (stall_.enabled && in.stall_n > 0) {
      observe_one(stall_, in.ts_ns, in.stall_ratio, &edges);
    }
    if (ttfb_.enabled && in.ttfb_n > 0) observe_one(ttfb_, in.ts_ns, in.ttfb_p99_ns, &edges);
  }
  if (events_ == nullptr) return;
  for (Event& ev : edges) events_->push(std::move(ev));
}

void SloMonitor::observe_one(Objective& o, std::uint64_t ts_ns, double value,
                             std::vector<Event>* edges) {
  const bool bad = value > o.target;
  o.obs.emplace_back(ts_ns, bad);
  const std::uint64_t long_lo =
      ts_ns >= cfg_.long_window_ns ? ts_ns - cfg_.long_window_ns : 0;
  while (!o.obs.empty() && o.obs.front().first < long_lo) o.obs.pop_front();

  const std::uint64_t short_lo =
      ts_ns >= cfg_.short_window_ns ? ts_ns - cfg_.short_window_ns : 0;
  o.bad_short = o.n_short = o.bad_long = o.n_long = 0;
  for (const auto& [t, b] : o.obs) {
    ++o.n_long;
    if (b) ++o.bad_long;
    if (t >= short_lo) {
      ++o.n_short;
      if (b) ++o.bad_short;
    }
  }
  const double budget = cfg_.budget > 0.0 ? cfg_.budget : 1.0;
  o.burn_short = o.n_short > 0
                     ? (static_cast<double>(o.bad_short) / o.n_short) / budget
                     : 0.0;
  o.burn_long =
      o.n_long > 0 ? (static_cast<double>(o.bad_long) / o.n_long) / budget : 0.0;

  if (o.g_burn_short != nullptr) o.g_burn_short->set(milli(o.burn_short));
  if (o.g_burn_long != nullptr) o.g_burn_long->set(milli(o.burn_long));

  if (!o.fired && o.burn_short >= cfg_.burn_threshold &&
      o.burn_long >= cfg_.burn_threshold) {
    o.fired = true;
    ++o.breaches;
    ++breaches_total_;
    if (c_breaches_ != nullptr) c_breaches_->add(1);
    Event ev;
    ev.severity = Severity::kCritical;
    ev.rule = "slo_breach";
    ev.message = std::string("slo ") + o.name + " burning error budget: short=" +
                 std::to_string(milli(o.burn_short)) + "m long=" +
                 std::to_string(milli(o.burn_long)) + "m";
    ev.value = o.burn_short;
    ev.threshold = cfg_.burn_threshold;
    ev.ts_ns = ts_ns;
    edges->push_back(std::move(ev));
  } else if (o.fired && o.burn_short < cfg_.burn_threshold) {
    o.fired = false;
    Event ev;
    ev.severity = Severity::kInfo;
    ev.rule = "slo_recovered";
    ev.message = std::string("slo ") + o.name + " short-window burn back under threshold";
    ev.value = o.burn_short;
    ev.threshold = cfg_.burn_threshold;
    ev.ts_ns = ts_ns;
    edges->push_back(std::move(ev));
  }
  if (o.g_breached != nullptr) o.g_breached->set(o.fired ? 1 : 0);
}

std::uint64_t SloMonitor::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

std::uint64_t SloMonitor::breaches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaches_total_;
}

bool SloMonitor::breached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breached_locked();
}

bool SloMonitor::breached_locked() const {
  return lag_.fired || stall_.fired || ttfb_.fired;
}

std::string SloMonitor::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string s = "{\"enabled\":true,\"config\":" + cfg_.to_json();
  s += ",\"ticks\":" + std::to_string(ticks_);
  s += ",\"breaches\":" + std::to_string(breaches_total_);
  s += ",\"breached\":" + std::string(breached_locked() ? "true" : "false");
  s += ",\"objectives\":[";
  bool first = true;
  for (const Objective* o : {&lag_, &stall_, &ttfb_}) {
    if (!o->enabled) continue;
    if (!first) s += ",";
    first = false;
    s += "{\"name\":\"" + std::string(o->name) + "\"";
    s += ",\"target\":" + std::to_string(static_cast<std::uint64_t>(
                              o->name == std::string("stall")
                                  ? o->target * 1e6 + 0.5
                                  : o->target));
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
