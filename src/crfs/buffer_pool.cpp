#include "crfs/buffer_pool.h"

#include <algorithm>
#include <thread>

namespace crfs {

namespace {

// Auto shard count: enough to split contention between a realistic number
// of concurrent streams without scattering a small pool too thin. Eight
// shards flatten the pool lock at 16+ writers; fewer chunks than that
// means the pool itself (not its lock) is the limiter anyway.
std::size_t auto_shards(std::size_t total_chunks) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(std::min<std::size_t>(hw, 8), 1, total_chunks);
}

}  // namespace

BufferPool::BufferPool(std::size_t pool_bytes, std::size_t chunk_bytes, std::size_t shards)
    : chunk_bytes_(chunk_bytes) {
  const std::size_t total = std::max<std::size_t>(1, pool_bytes / chunk_bytes);
  total_chunks_.store(total, std::memory_order_relaxed);
  const std::size_t n_shards =
      shards == 0 ? auto_shards(total) : std::clamp<std::size_t>(shards, 1, total);
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Round-robin distribution; shard sizes differ by at most one chunk.
  for (std::size_t i = 0; i < total; ++i) {
    Shard& shard = *shards_[i % n_shards];
    shard.free.push_back(std::make_unique<Chunk>(chunk_bytes_));
    shard.count.store(static_cast<std::uint32_t>(shard.free.size()),
                      std::memory_order_relaxed);
  }
  free_count_.store(total, std::memory_order_relaxed);
}

BufferPool::~BufferPool() { shutdown(); }

std::size_t BufferPool::home_shard() const {
  // Each thread gets a stable round-robin token at first use, spreading
  // writer threads evenly over the shards without any hashing.
  static std::atomic<std::size_t> next_token{0};
  thread_local const std::size_t token =
      next_token.fetch_add(1, std::memory_order_relaxed);
  return token % shards_.size();
}

std::unique_ptr<Chunk> BufferPool::try_acquire(std::uint64_t file_offset) {
  const std::size_t n = shards_.size();
  const std::size_t home = home_shard();
  for (std::size_t i = 0; i < n; ++i) {
    Shard& shard = *shards_[(home + i) % n];
    // Occupancy hint: skip shards that look empty without locking them.
    // The hint is updated under the shard lock, so a false "empty" only
    // happens around a concurrent pop — in which case the chunk is gone
    // anyway — and a false "non-empty" just costs one lock round-trip.
    if (shard.count.load(std::memory_order_acquire) == 0) continue;
    std::lock_guard lock(shard.mu);
    if (shard.free.empty()) continue;
    auto chunk = std::move(shard.free.back());
    shard.free.pop_back();
    shard.count.store(static_cast<std::uint32_t>(shard.free.size()),
                      std::memory_order_release);
    free_count_.fetch_sub(1, std::memory_order_relaxed);
    chunk->reset(file_offset);
    return chunk;
  }
  return nullptr;
}

std::unique_ptr<Chunk> BufferPool::acquire_for(std::uint64_t file_offset,
                                               std::chrono::milliseconds timeout) {
  if (auto chunk = try_acquire(file_offset)) return chunk;
  contentions_.fetch_add(1, std::memory_order_relaxed);

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock lock(wait_mu_);
  waiters_ += 1;
  waiters_hint_.store(waiters_, std::memory_order_release);

  std::unique_ptr<Chunk> got;
  for (;;) {
    if (shutdown_.load(std::memory_order_acquire)) break;
    // Re-check occupancy while holding wait_mu_: release() bumps
    // free_count_ before it takes wait_mu_ to notify, so either we see
    // the chunk here or the notifier sees us parked — no lost wakeup.
    if (free_count_.load(std::memory_order_acquire) > 0) {
      lock.unlock();
      got = try_acquire(file_offset);
      lock.lock();
      if (got != nullptr) break;
      continue;  // another waiter won the race; re-evaluate
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    available_.wait_until(lock, deadline);
  }

  waiters_ -= 1;
  waiters_hint_.store(waiters_, std::memory_order_release);
  return got;
}

void BufferPool::release(std::unique_ptr<Chunk> chunk) {
  if (!chunk) return;
  if (shutdown_.load(std::memory_order_acquire)) return;  // drop during teardown
  Shard& shard = *shards_[home_shard()];
  {
    std::lock_guard lock(shard.mu);
    shard.free.push_back(std::move(chunk));
    shard.count.store(static_cast<std::uint32_t>(shard.free.size()),
                      std::memory_order_release);
  }
  free_count_.fetch_add(1, std::memory_order_relaxed);
  if (waiters_hint_.load(std::memory_order_acquire) > 0) {
    // Taking wait_mu_ orders this notify after the waiter's occupancy
    // re-check, closing the park/notify race.
    std::lock_guard lock(wait_mu_);
    available_.notify_one();
  }
}

std::size_t BufferPool::resize(std::size_t target_chunks) {
  std::lock_guard resize_lock(resize_mu_);
  if (shutdown_.load(std::memory_order_acquire)) return total_chunks();
  target_chunks = std::max<std::size_t>(1, target_chunks);
  std::size_t total = total_chunks();

  while (total < target_chunks) {
    auto chunk = std::make_unique<Chunk>(chunk_bytes_);
    Shard& shard = *shards_[total % shards_.size()];
    {
      std::lock_guard lock(shard.mu);
      shard.free.push_back(std::move(chunk));
      shard.count.store(static_cast<std::uint32_t>(shard.free.size()),
                        std::memory_order_release);
    }
    free_count_.fetch_add(1, std::memory_order_relaxed);
    total += 1;
    total_chunks_.store(total, std::memory_order_relaxed);
  }
  if (total > target_chunks) {
    // Shrink: only chunks sitting free right now are removed; anything
    // parked, queued, or in flight stays out until released and is then
    // simply part of the (smaller) pool again.
    for (auto& shard_ptr : shards_) {
      if (total == target_chunks) break;
      Shard& shard = *shard_ptr;
      std::lock_guard lock(shard.mu);
      while (!shard.free.empty() && total > target_chunks) {
        shard.free.pop_back();
        shard.count.store(static_cast<std::uint32_t>(shard.free.size()),
                          std::memory_order_release);
        free_count_.fetch_sub(1, std::memory_order_relaxed);
        total -= 1;
        total_chunks_.store(total, std::memory_order_relaxed);
      }
    }
  }
  // A grow may satisfy writers parked on the exhaustion path.
  if (waiters_hint_.load(std::memory_order_acquire) > 0) {
    std::lock_guard lock(wait_mu_);
    available_.notify_all();
  }
  return total;
}

void BufferPool::shutdown() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(wait_mu_);
  }
  available_.notify_all();
}

}  // namespace crfs
