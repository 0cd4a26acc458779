// crfs::obs tail-latency forensic store: bounded exemplar buffer of the
// slowest chunks' full causal chains.
//
// Aggregate histograms answer "how slow is the tail"; this answers "why
// was *this* chunk slow". When a chunk's durability lag (copy-in ->
// durable) or its backend write time crosses the configured threshold,
// the IO worker captures the chunk's complete stamp chain — born,
// enqueue, dequeue, submit (pwrite start), durable (pwrite return) —
// plus the pipeline state it saw
// (queue depth, free chunks, knob generation) into a bounded ring.
//
// Cost contract: the threshold check on the completion path is one
// relaxed atomic load plus two compares; capture itself (mutex + string
// copy) only runs when the threshold actually fired, i.e. when the IO
// was already orders of magnitude slower than the bookkeeping.
//
// Deterministic mirror: the simulator feeds the same store from
// virtual-time stamps, so exemplars are byte-identical across replays
// (test_obs.cpp SimSlowExemplars*).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace crfs::obs {

/// One captured slow chunk: the full causal chain plus context. All
/// timestamps are absolute (monotonic or virtual) nanoseconds; the
/// derived stage durations are redundant but make the JSON directly
/// readable without arithmetic.
struct SlowExemplar {
  std::uint64_t trace_id = 0;      ///< causal chain id (matches trace spans)
  /// "write" (a checkpoint chunk's durability chain) or "read" (a restore
  /// read that blocked past the threshold — only path/offset/len and the
  /// device/total durations apply; the write-side stamps stay 0).
  std::string kind = "write";
  std::string path;                ///< backend file the chunk belongs to
  std::uint64_t offset = 0;        ///< chunk's file offset
  std::uint64_t len = 0;           ///< chunk fill in bytes
  // The stamp chain, copy-in -> durable.
  std::uint64_t born_ns = 0;       ///< first copy-in (Chunk::born_ns)
  std::uint64_t enqueue_ns = 0;    ///< WorkQueue push
  std::uint64_t dequeue_ns = 0;    ///< worker batch pop
  std::uint64_t submit_ns = 0;     ///< backend write start (pwrite call)
  std::uint64_t durable_ns = 0;    ///< backend write return
  // Derived stage durations (disjoint intervals of born..durable; the
  // fill window born->enqueue splits into pool stall + copy residency).
  std::uint64_t pool_stall_ns = 0; ///< writer blocked on the finite pool
  std::uint64_t fill_ns = 0;       ///< born -> enqueue (app-side residency)
  std::uint64_t queue_ns = 0;      ///< enqueue -> dequeue
  std::uint64_t submit_wait_ns = 0;///< dequeue -> submit
  std::uint64_t device_ns = 0;     ///< submit -> durable (the backend IO)
  std::uint64_t total_lag_ns = 0;  ///< born -> durable (durability lag)
  // Pipeline context at capture time.
  std::uint64_t queue_depth = 0;   ///< work-queue depth the worker saw
  std::uint64_t free_chunks = 0;   ///< buffer-pool free chunks
  std::uint64_t knob_generation = 0; ///< knob-plane generation (0 = none)

  std::string to_json() const;
};

/// Bounded, mutex-guarded exemplar ring. Oldest exemplars are dropped
/// once `capacity` is exceeded; `captured()` keeps the lifetime total.
class SlowStore {
 public:
  explicit SlowStore(std::size_t capacity = 32, std::uint64_t threshold_ns = 0);

  /// The trigger threshold; 0 disables capture. Relaxed atomic — safe to
  /// retune from the knob plane while IO workers are completing runs.
  void set_threshold_ns(std::uint64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }

  /// The hot-side check: fires when either the durability lag or the
  /// backend write time crossed the threshold.
  bool over_threshold(std::uint64_t lag_ns, std::uint64_t pwrite_ns) const {
    const std::uint64_t t = threshold_ns();
    return t != 0 && (lag_ns >= t || pwrite_ns >= t);
  }

  void capture(SlowExemplar ex);

  std::vector<SlowExemplar> snapshot() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Exemplars ever captured (>= what the ring still holds).
  std::uint64_t captured() const {
    return captured_.load(std::memory_order_relaxed);
  }

  /// {"threshold_ms":N,"capacity":N,"captured":N,"exemplars":[...]}
  std::string to_json() const;

 private:
  std::size_t capacity_;
  std::atomic<std::uint64_t> threshold_ns_;
  std::atomic<std::uint64_t> captured_{0};
  mutable std::mutex mu_;
  std::deque<SlowExemplar> ring_;
};

}  // namespace crfs::obs
