// crfs::obs events: the bounded log of structured health/error events.
//
// Every rule of the rule engine (obs/rules.h) fires into an EventBuffer,
// and so does everything that pushes an event directly: the IO pool
// attaches path/offset/errno to every failed pwrite, the decision log
// mirrors each knob change, the tier reports drain failures. The event
// log is the single post-hoc record of everything that went wrong.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace crfs::obs {

enum class Severity { kInfo, kWarning, kCritical };

/// "info" / "warning" / "critical".
const char* severity_name(Severity s);

/// One structured health/error event.
struct Event {
  Severity severity = Severity::kInfo;
  std::string rule;     ///< rule id: "pool_starvation", "pwrite_error", ...
  std::string message;  ///< human-readable detail (path, offset, errno, ...)
  double value = 0.0;     ///< measured value that tripped the rule
  double threshold = 0.0; ///< configured threshold it was compared against
  std::uint64_t ts_ns = 0;  ///< timestamp of the sample (or of the error)

  /// {"severity":...,"rule":...,"message":...,"value":...,"threshold":...,"ts_ns":...}
  std::string to_json() const;
};

/// JSON array of events (stats_json embedding).
std::string events_to_json(const std::vector<Event>& events);

/// Bounded, thread-safe event log. Oldest events are dropped past
/// `capacity`; total() keeps counting so drops are detectable.
class EventBuffer {
 public:
  explicit EventBuffer(std::size_t capacity = 256);

  void push(Event ev);

  /// Current contents, oldest-first.
  std::vector<Event> snapshot() const;

  /// Events ever pushed (>= size()).
  std::uint64_t total() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Notification hook, invoked after each push OUTSIDE the buffer lock
  /// (the callback may snapshot() this buffer; the plane journals each
  /// event here). Install before any pusher thread runs; the pointer is
  /// read unsynchronized after.
  void set_listener(std::function<void(const Event&)> listener) {
    listener_ = std::move(listener);
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Event> events_;
  std::uint64_t total_ = 0;
  std::function<void(const Event&)> listener_;
};

}  // namespace crfs::obs
