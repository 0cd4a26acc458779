// BufferPool: the mount-time pool of aggregation chunks (paper §IV-B).
//
// Acquiring blocks when the pool is drained; this is CRFS's natural
// backpressure — writers stall until IO threads return chunks, which is
// exactly why a larger pool raises aggregation bandwidth in Fig 5 until
// the pipeline is deep enough to flatten.
//
// The free list is sharded (docs/PERFORMANCE.md): each shard has its own
// mutex so concurrent checkpoint streams acquire and release chunks
// without rendezvousing on one lock. A thread has a home shard (assigned
// round-robin at first use); when the home shard is empty the acquire
// scans the other shards (work stealing) before concluding the pool is
// exhausted. Blocking waiters park on a single condition variable that is
// only touched on the exhaustion path, so the fast path never sees it.
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
  /// `shards` = 0 picks an automatic shard count (bounded by the number of
  /// chunks); explicit values are clamped to [1, total_chunks].
  BufferPool(std::size_t pool_bytes, std::size_t chunk_bytes, std::size_t shards = 0);

  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Non-blocking acquire; nullptr when every shard is empty. Starts at
  /// the caller's home shard and steals from the others before giving up.
  std::unique_ptr<Chunk> try_acquire(std::uint64_t file_offset);

  /// Blocking acquire with a deadline; nullptr on timeout or shutdown.
  std::unique_ptr<Chunk> acquire_for(std::uint64_t file_offset,
                                     std::chrono::milliseconds timeout);

  /// Returns a chunk to the caller's home shard and wakes one blocked
  /// acquirer (if any are parked on the exhaustion path).
  void release(std::unique_ptr<Chunk> chunk);

  /// Unblocks all waiters; subsequent acquires return nullptr. Used when
  /// tearing down a mount.
  void shutdown();

  /// Runtime resize to `target_chunks` (knob plane, docs/OBSERVABILITY.md
  /// "Control plane"). Growth allocates fresh chunks; shrink frees *free*
  /// chunks only (in-flight chunks are never reclaimed). Returns the
  /// achieved total, which on a shrink may be above `target_chunks` when
  /// too few chunks were free.
  std::size_t resize(std::size_t target_chunks);

  std::size_t chunk_size() const { return chunk_bytes_; }
  std::size_t total_chunks() const { return total_chunks_.load(std::memory_order_relaxed); }

  std::size_t shard_count() const { return shards_.size(); }

  /// Free chunks across all shards. Occupancy gauge for crfs::obs; the
  /// exhaustion rescue re-polls it in a loop, so a momentarily stale value
  /// is retried, never trusted.
  std::size_t free_chunks() const { return free_count_.load(std::memory_order_relaxed); }

  /// Chunks currently out of the pool: parked as some file's current
  /// chunk, queued, or being written. Occupancy gauge for crfs::obs.
  std::size_t in_use_chunks() const { return total_chunks() - free_chunks(); }

  /// Number of acquires that found the whole pool empty and had to block
  /// (backpressure events).
  std::uint64_t contention_count() const {
    return contentions_.load(std::memory_order_relaxed);
  }

  /// True once shutdown() has been called.
  bool is_shutdown() const { return shutdown_.load(std::memory_order_acquire); }

 private:
  // One cache line per shard: the mutex and the free list it guards, plus
  // a lock-free occupancy hint so the stealing scan skips empty shards
  // without taking their locks.
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<std::unique_ptr<Chunk>> free;
    std::atomic<std::uint32_t> count{0};  ///< == free.size(), scan hint
  };

  std::size_t home_shard() const;

  const std::size_t chunk_bytes_;
  std::atomic<std::size_t> total_chunks_{0};
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::size_t> free_count_{0};
  std::atomic<std::uint64_t> contentions_{0};
  std::atomic<bool> shutdown_{false};

  // Runtime resize (rare; serialized by the knob plane's writer mutex,
  // but guarded here too so direct callers stay safe).
  std::mutex resize_mu_;

  // Exhaustion path only: waiters park here; release() peeks the hint and
  // grabs wait_mu_ only when someone is actually parked.
  mutable std::mutex wait_mu_;
  std::condition_variable available_;
  std::size_t waiters_ = 0;  ///< guarded by wait_mu_
  std::atomic<std::size_t> waiters_hint_{0};
};

}  // namespace crfs
