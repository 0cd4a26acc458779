#include "obs/sampler.h"

namespace crfs::obs {

namespace {

/// Derivative of `curr` vs `prev` over `dt_ns`. Counters are monotone, but
/// a racing snapshot can transiently read a smaller value; clamp to 0
/// rather than emit a huge unsigned wraparound rate.
Rate rate_of(std::uint64_t prev, std::uint64_t curr, std::uint64_t dt_ns) {
  Rate r;
  if (curr > prev) r.delta = curr - prev;
  if (dt_ns > 0) r.per_sec = static_cast<double>(r.delta) * 1e9 / static_cast<double>(dt_ns);
  return r;
}

}  // namespace

const Rate* Sample::counter_rate(std::string_view name) const {
  for (std::size_t i = 0; i < snap.counters.size() && i < counter_rates.size(); ++i) {
    if (snap.counters[i].first == name) return &counter_rates[i];
  }
  return nullptr;
}

const Rate* Sample::histogram_rate(std::string_view name) const {
  for (std::size_t i = 0; i < snap.histograms.size() && i < histogram_rates.size(); ++i) {
    if (snap.histograms[i].first == name) return &histogram_rates[i];
  }
  return nullptr;
}

std::optional<std::int64_t> Sample::gauge(std::string_view name) const {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return v;
  }
  return std::nullopt;
}

const HistogramSnapshot* Sample::histogram(std::string_view name) const {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

Sampler::Sampler(const Registry& registry, SamplerOptions opts)
    : registry_(registry), opts_(opts) {}

Sampler::~Sampler() { stop(); }

Sample Sampler::tick(std::uint64_t ts_ns) {
  Sample s;
  s.ts_ns = ts_ns;
  s.snap = registry_.snapshot();

  std::lock_guard lock(mu_);
  s.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const Sample* prev = ring_.empty() ? nullptr : &ring_.back();
  if (prev != nullptr && ts_ns > prev->ts_ns) s.dt_ns = ts_ns - prev->ts_ns;

  // Derivatives by name merge: both snapshots iterate their Registry maps
  // in sorted order, so matching names is a linear two-pointer walk. A
  // metric registered after the previous frame simply has no prior value
  // (delta from 0 would overstate the window, so it rates as 0).
  s.counter_rates.resize(s.snap.counters.size());
  s.histogram_rates.resize(s.snap.histograms.size());
  if (prev != nullptr && s.dt_ns > 0) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < s.snap.counters.size(); ++i) {
      while (j < prev->snap.counters.size() &&
             prev->snap.counters[j].first < s.snap.counters[i].first) {
        ++j;
      }
      if (j < prev->snap.counters.size() &&
          prev->snap.counters[j].first == s.snap.counters[i].first) {
        s.counter_rates[i] =
            rate_of(prev->snap.counters[j].second, s.snap.counters[i].second, s.dt_ns);
      }
    }
    j = 0;
    for (std::size_t i = 0; i < s.snap.histograms.size(); ++i) {
      while (j < prev->snap.histograms.size() &&
             prev->snap.histograms[j].first < s.snap.histograms[i].first) {
        ++j;
      }
      if (j < prev->snap.histograms.size() &&
          prev->snap.histograms[j].first == s.snap.histograms[i].first) {
        s.histogram_rates[i] = rate_of(prev->snap.histograms[j].second.count,
                                       s.snap.histograms[i].second.count, s.dt_ns);
      }
    }
  }

  ring_.push_back(s);
  while (ring_.size() > opts_.ring_capacity) ring_.pop_front();

  if (tick_observer_) tick_observer_(s);
  return s;
}

void Sampler::start(std::chrono::milliseconds interval) {
  if (thread_.joinable()) return;
  set_interval(interval);
  {
    std::lock_guard lock(wake_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] {
    std::unique_lock lock(wake_mu_);
    for (;;) {
      // Interruptible sleep: stop() wakes us immediately instead of
      // blocking unmount for up to one period. The period is re-read each
      // pass so a runtime set_interval() lands on the next wakeup.
      const auto period = this->interval();
      if (wake_cv_.wait_for(lock, period, [this] { return stop_requested_; })) return;
      lock.unlock();
      const std::uint64_t t0 = now_ns();
      tick(t0);
      // Self-health: a tick that outruns its own period means telemetry is
      // falling behind (crfs.obs.sampler_overruns).
      if (overruns_ != nullptr) {
        const std::uint64_t elapsed = now_ns() - t0;
        const auto period_ns =
            static_cast<std::uint64_t>(period.count()) * 1'000'000ULL;
        if (elapsed > period_ns) overruns_->add(1);
      }
      lock.lock();
    }
  });
}

void Sampler::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
}

std::optional<Sample> Sampler::latest() const {
  std::lock_guard lock(mu_);
  if (ring_.empty()) return std::nullopt;
  return ring_.back();
}

std::vector<Sample> Sampler::window(std::size_t n) const {
  std::lock_guard lock(mu_);
  std::vector<Sample> out;
  const std::size_t take = n < ring_.size() ? n : ring_.size();
  out.reserve(take);
  for (std::size_t i = ring_.size() - take; i < ring_.size(); ++i) out.push_back(ring_[i]);
  return out;
}

}  // namespace crfs::obs
