#include "obs/chrome_trace.h"

#include <cerrno>
#include <cstdio>

#include "obs/json_out.h"

namespace crfs::obs {

std::string to_chrome_json(std::span<const TraceEvent> events) {
  std::string out = "{\"traceEvents\":[";
  char buf[192];
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ",";
    first = false;
    // ts/dur are microseconds in the trace_event spec; keep ns precision
    // in the decimals.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"crfs\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  ev.name != nullptr ? ev.name : "", ev.tid,
                  static_cast<double>(ev.ts_ns) / 1e3,
                  static_cast<double>(ev.dur_ns) / 1e3);
    out += buf;
    // Causal context rides in "args" (Perfetto surfaces it in the span
    // detail pane and `trace_id` is query-able), emitted only when set so
    // untagged spans keep the compact schema.
    const bool has_tag = ev.tag != nullptr && ev.tag[0] != '\0';
    if (ev.trace_id != 0 || has_tag) {
      out += ",\"args\":{";
      if (ev.trace_id != 0) {
        std::snprintf(buf, sizeof(buf), "\"trace_id\":%llu",
                      static_cast<unsigned long long>(ev.trace_id));
        out += buf;
      }
      if (has_tag) {
        if (ev.trace_id != 0) out += ",";
        out += "\"file\":\"";
        append_json_escaped(out, ev.tag);
        out += "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status write_chrome_trace(const std::string& path, std::span<const TraceEvent> events) {
  const std::string json = to_chrome_json(events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Error{errno, "cannot open trace output: " + path};
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Error{EIO, "short write to trace output: " + path};
  }
  return {};
}

}  // namespace crfs::obs
