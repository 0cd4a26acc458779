#include "obs/health.h"

#include <cstdio>

#include "obs/json_out.h"

namespace crfs::obs {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kCritical: return "critical";
  }
  return "unknown";
}

std::string Event::to_json() const {
  std::string out = "{\"severity\":\"";
  out += severity_name(severity);
  out += "\",\"rule\":\"";
  append_json_escaped(out, rule);
  out += "\",\"message\":\"";
  append_json_escaped(out, message);
  out += "\"";
  char num[96];
  std::snprintf(num, sizeof(num), ",\"value\":%.3f,\"threshold\":%.3f,\"ts_ns\":%llu}",
                value, threshold, static_cast<unsigned long long>(ts_ns));
  out += num;
  return out;
}

std::string events_to_json(const std::vector<Event>& events) {
  std::string out = "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ",";
    out += events[i].to_json();
  }
  out += "]";
  return out;
}

EventBuffer::EventBuffer(std::size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

void EventBuffer::push(Event ev) {
  Event copy_for_listener;
  const bool notify = static_cast<bool>(listener_);
  if (notify) copy_for_listener = ev;
  {
    std::lock_guard lock(mu_);
    events_.push_back(std::move(ev));
    while (events_.size() > capacity_) events_.pop_front();
    total_ += 1;
  }
  // Outside the lock: the listener may snapshot() this buffer.
  if (notify) listener_(copy_for_listener);
}

std::vector<Event> EventBuffer::snapshot() const {
  std::lock_guard lock(mu_);
  return {events_.begin(), events_.end()};
}

std::uint64_t EventBuffer::total() const {
  std::lock_guard lock(mu_);
  return total_;
}

std::size_t EventBuffer::size() const {
  std::lock_guard lock(mu_);
  return events_.size();
}

void HealthMonitor::evaluate(const Sample& s) {
  // -- pool_starvation ----------------------------------------------------
  const auto free_chunks = s.gauge("crfs.pool.free_chunks");
  if (free_chunks.has_value() && *free_chunks == 0) {
    starved_run_ += 1;
    if (!starvation_fired_ && starved_run_ >= cfg_.starvation_samples) {
      starvation_fired_ = true;
      out_.push(Event{Severity::kWarning, "pool_starvation",
                      "buffer pool exhausted (free_chunks == 0) for " +
                          std::to_string(starved_run_) + " consecutive samples",
                      static_cast<double>(starved_run_),
                      static_cast<double>(cfg_.starvation_samples), s.ts_ns});
    }
  } else {
    starved_run_ = 0;
    starvation_fired_ = false;
  }

  // -- queue_stall --------------------------------------------------------
  // Depth > 0 with zero pwrite completions in the window: chunks are
  // queued but nothing is landing on the backend. The first frame has no
  // window (dt_ns == 0), so it never counts toward a stall.
  const auto depth = s.gauge("crfs.queue.depth");
  const Rate* pwrites = s.histogram_rate("crfs.io.pwrite_ns");
  const bool stalled = s.dt_ns > 0 && depth.has_value() && *depth > 0 &&
                       (pwrites == nullptr || pwrites->delta == 0);
  if (stalled) {
    stall_run_ += 1;
    if (!stall_fired_ && stall_run_ >= cfg_.stall_samples) {
      stall_fired_ = true;
      out_.push(Event{Severity::kCritical, "queue_stall",
                      "work queue depth " + std::to_string(*depth) +
                          " with zero pwrite completions for " +
                          std::to_string(stall_run_) + " consecutive samples",
                      static_cast<double>(stall_run_),
                      static_cast<double>(cfg_.stall_samples), s.ts_ns});
    }
  } else {
    stall_run_ = 0;
    stall_fired_ = false;
  }

  // -- slow_pwrite --------------------------------------------------------
  // The threshold is runtime-tunable (knob slow_pwrite_ms), so it is read
  // once per frame from the atomic rather than from the static config.
  const std::uint64_t slow_p99_ns = slow_pwrite_p99_ns();
  if (slow_p99_ns > 0) {
    const HistogramSnapshot* pwrite_hist = s.histogram("crfs.io.pwrite_ns");
    const double p99 = pwrite_hist != nullptr && pwrite_hist->count > 0
                           ? pwrite_hist->p99()
                           : 0.0;
    if (p99 > static_cast<double>(slow_p99_ns)) {
      if (!slow_fired_) {
        slow_fired_ = true;
        out_.push(Event{Severity::kWarning, "slow_pwrite",
                        "pwrite p99 " + format_ns(p99) + " above threshold " +
                            format_ns(static_cast<double>(slow_p99_ns)),
                        p99, static_cast<double>(slow_p99_ns), s.ts_ns});
      }
    } else {
      slow_fired_ = false;
    }
  }

  // -- error_burst --------------------------------------------------------
  // Window-scoped (not run-length): each window with >= threshold new
  // errors is its own burst, so no hysteresis state is needed.
  const Rate* errors = s.counter_rate("crfs.io.pwrite_errors");
  if (errors != nullptr && cfg_.error_burst > 0 && errors->delta >= cfg_.error_burst) {
    out_.push(Event{Severity::kCritical, "error_burst",
                    std::to_string(errors->delta) + " pwrite errors in " +
                        format_ns(static_cast<double>(s.dt_ns)) + " window",
                    static_cast<double>(errors->delta),
                    static_cast<double>(cfg_.error_burst), s.ts_ns});
  }
}

}  // namespace crfs::obs
