#include "obs/metrics.h"

#include <cstdio>

#include "common/table.h"
#include "obs/json_out.h"

namespace crfs::obs {

std::string format_ns(double ns) {
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (1-based), then walk buckets to find it.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(seen + buckets[i]) >= rank) {
      const double lo = static_cast<double>(LatencyHistogram::bucket_lo(i));
      double hi = static_cast<double>(LatencyHistogram::bucket_hi(i));
      // The top observed bucket can't exceed the recorded max.
      if (static_cast<double>(max) < hi && max >= LatencyHistogram::bucket_lo(i)) {
        hi = static_cast<double>(max);
      }
      const double within = (rank - static_cast<double>(seen)) /
                            static_cast<double>(buckets[i]);  // (0, 1]
      return lo + (hi - lo) * within;
    }
    seen += buckets[i];
  }
  return static_cast<double>(max);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot out;
  // Relaxed loads: each field is individually consistent; a snapshot racing
  // a record() may see the count without the bucket (or vice versa), which
  // monitoring tolerates. Totals are exact once writers quiesce.
  for (int i = 0; i < kBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  // Keep the derived view internally consistent even mid-race: quantile()
  // walks buckets against count, so never report more count than buckets.
  std::uint64_t bucketed = 0;
  for (int i = 0; i < kBuckets; ++i) bucketed += out.buckets[i];
  if (out.count > bucketed) out.count = bucketed;
  return out;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& Registry::histogram(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

void Registry::gauge_fn(const std::string& name, std::function<std::int64_t()> fn) {
  std::lock_guard lock(mu_);
  gauge_fns_[name] = std::move(fn);
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot out;
  std::lock_guard lock(mu_);
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  for (const auto& [name, fn] : gauge_fns_) out.gauges.emplace_back(name, fn());
  for (const auto& [name, h] : histograms_) out.histograms.emplace_back(name, h->snapshot());
  return out;
}

std::string Registry::Snapshot::render_table() const {
  std::string out;
  if (!counters.empty() || !gauges.empty()) {
    TextTable t({"Metric", "Value"});
    for (const auto& [name, v] : counters) t.add_row({name, std::to_string(v)});
    if (!counters.empty() && !gauges.empty()) t.add_rule();
    for (const auto& [name, v] : gauges) t.add_row({name, std::to_string(v)});
    out += t.render();
  }
  if (!histograms.empty()) {
    TextTable t({"Latency", "Count", "p50", "p95", "p99", "Max"});
    for (const auto& [name, h] : histograms) {
      t.add_row({name, std::to_string(h.count), format_ns(h.p50()), format_ns(h.p95()),
                 format_ns(h.p99()), format_ns(static_cast<double>(h.max))});
    }
    if (!out.empty()) out += "\n";
    out += t.render();
  }
  return out;
}

std::string Registry::Snapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_json_escaped(out, name);
    out += "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_json_escaped(out, name);
    out += "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  char num[256];
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_json_escaped(out, name);
    std::snprintf(num, sizeof(num),
                  "\":{\"count\":%llu,\"sum\":%llu,\"max\":%llu,\"p50\":%.1f,"
                  "\"p95\":%.1f,\"p99\":%.1f}",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum),
                  static_cast<unsigned long long>(h.max), h.p50(), h.p95(), h.p99());
    out += num;
  }
  out += "}}";
  return out;
}

}  // namespace crfs::obs
