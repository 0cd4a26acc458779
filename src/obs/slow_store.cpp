#include "obs/slow_store.h"

#include <cstdio>

#include "obs/json_out.h"

namespace crfs::obs {

namespace {

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

}  // namespace

std::string SlowExemplar::to_json() const {
  std::string out = "{\"trace_id\":" + std::to_string(trace_id);
  out += ",\"kind\":\"";
  append_json_escaped(out, kind);
  out += "\",\"path\":\"";
  append_json_escaped(out, path);
  out += '"';
  append_u64(out, "offset", offset);
  append_u64(out, "len", len);
  append_u64(out, "born_ns", born_ns);
  append_u64(out, "enqueue_ns", enqueue_ns);
  append_u64(out, "dequeue_ns", dequeue_ns);
  append_u64(out, "submit_ns", submit_ns);
  append_u64(out, "durable_ns", durable_ns);
  append_u64(out, "pool_stall_ns", pool_stall_ns);
  append_u64(out, "fill_ns", fill_ns);
  append_u64(out, "queue_ns", queue_ns);
  append_u64(out, "submit_wait_ns", submit_wait_ns);
  append_u64(out, "device_ns", device_ns);
  append_u64(out, "total_lag_ns", total_lag_ns);
  append_u64(out, "queue_depth", queue_depth);
  append_u64(out, "free_chunks", free_chunks);
  append_u64(out, "knob_generation", knob_generation);
  out += '}';
  return out;
}

SlowStore::SlowStore(std::size_t capacity, std::uint64_t threshold_ns)
    : capacity_(capacity > 0 ? capacity : 1), threshold_ns_(threshold_ns) {}

void SlowStore::capture(SlowExemplar ex) {
  std::lock_guard lock(mu_);
  captured_.fetch_add(1, std::memory_order_relaxed);
  ring_.push_back(std::move(ex));
  while (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<SlowExemplar> SlowStore::snapshot() const {
  std::lock_guard lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::size_t SlowStore::size() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

std::string SlowStore::to_json() const {
  std::string out =
      "{\"threshold_ms\":" + std::to_string(threshold_ns() / 1'000'000);
  out += ",\"capacity\":" + std::to_string(capacity_);
  out += ",\"captured\":" + std::to_string(captured());
  out += ",\"exemplars\":[";
  bool first = true;
  for (const SlowExemplar& ex : snapshot()) {
    if (!first) out += ",";
    first = false;
    out += ex.to_json();
  }
  out += "]}";
  return out;
}

}  // namespace crfs::obs
