// BufferPool: the mount-time pool of aggregation chunks (paper §IV-B).
//
// Acquiring blocks when the pool is drained; this is CRFS's natural
// backpressure — writers stall until IO threads return chunks, which is
// exactly why a larger pool raises aggregation bandwidth in Fig 5 until
// the pipeline is deep enough to flatten.
//
// One mutex guards the free list, and blocked acquirers park on one
// condition variable that release() and a growing resize() signal.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "crfs/chunk.h"

namespace crfs {

class BufferPool {
 public:
  /// Carves `pool_bytes / chunk_bytes` chunks up front. At least one chunk
  /// is always created so a misconfigured pool cannot deadlock the mount.
  BufferPool(std::size_t pool_bytes, std::size_t chunk_bytes);

  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Non-blocking acquire; nullptr when the pool is empty.
  std::unique_ptr<Chunk> try_acquire(std::uint64_t file_offset);

  /// Blocking acquire with a deadline; nullptr on timeout or shutdown.
  std::unique_ptr<Chunk> acquire_for(std::uint64_t file_offset,
                                     std::chrono::milliseconds timeout);

  /// Returns a chunk to the pool and wakes one blocked acquirer.
  void release(std::unique_ptr<Chunk> chunk);

  /// Unblocks all waiters: blocked and later acquire_for calls that find
  /// the pool empty return nullptr at once, and released chunks are
  /// dropped. Used when tearing down a mount.
  void shutdown();

  /// Runtime resize to `target_chunks` (knob plane, docs/OBSERVABILITY.md
  /// "Control plane"). Growth allocates fresh chunks; shrink frees *free*
  /// chunks only (in-flight chunks are never reclaimed). Returns the
  /// achieved total, which on a shrink may be above `target_chunks` when
  /// too few chunks were free.
  std::size_t resize(std::size_t target_chunks);

  std::size_t chunk_size() const { return chunk_bytes_; }
  std::size_t total_chunks() const { return total_chunks_.load(std::memory_order_relaxed); }

  /// Free chunks. Occupancy gauge for crfs::obs, readable without the
  /// lock; the exhaustion rescue re-polls it in a loop, so a momentarily
  /// stale value is retried, never trusted.
  std::size_t free_chunks() const { return free_count_.load(std::memory_order_relaxed); }

  /// Chunks currently out of the pool: parked as some file's current
  /// chunk, queued, or being written. Occupancy gauge for crfs::obs.
  std::size_t in_use_chunks() const { return total_chunks() - free_chunks(); }

  /// Number of acquires that found the pool empty and had to block
  /// (backpressure events).
  std::uint64_t contention_count() const {
    return contentions_.load(std::memory_order_relaxed);
  }

  /// True once shutdown() has been called.
  bool is_shutdown() const { return shutdown_.load(std::memory_order_acquire); }

 private:
  /// Pops a free chunk; nullptr when none. Caller holds mu_.
  std::unique_ptr<Chunk> pop_locked();

  const std::size_t chunk_bytes_;

  std::mutex mu_;
  std::condition_variable available_;
  std::vector<std::unique_ptr<Chunk>> free_;  ///< guarded by mu_

  // Gauges, written under mu_ and read lock-free.
  std::atomic<std::size_t> total_chunks_{0};
  std::atomic<std::size_t> free_count_{0};
  std::atomic<std::uint64_t> contentions_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace crfs
