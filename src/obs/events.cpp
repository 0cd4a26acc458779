#include "obs/events.h"

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

}  // namespace crfs::obs
