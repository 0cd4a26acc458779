#include "crfs/buffer_pool.h"

#include <algorithm>

namespace crfs {

BufferPool::BufferPool(std::size_t pool_bytes, std::size_t chunk_bytes)
    : chunk_bytes_(chunk_bytes) {
  const std::size_t total = std::max<std::size_t>(1, pool_bytes / chunk_bytes);
  free_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    free_.push_back(std::make_unique<Chunk>(chunk_bytes_));
  }
  total_chunks_.store(total, std::memory_order_relaxed);
  free_count_.store(total, std::memory_order_relaxed);
}

BufferPool::~BufferPool() { shutdown(); }

std::unique_ptr<Chunk> BufferPool::pop_locked() {
  if (free_.empty()) return nullptr;
  auto chunk = std::move(free_.back());
  free_.pop_back();
  free_count_.store(free_.size(), std::memory_order_relaxed);
  return chunk;
}

std::unique_ptr<Chunk> BufferPool::try_acquire(std::uint64_t file_offset) {
  std::unique_ptr<Chunk> chunk;
  {
    std::lock_guard lock(mu_);
    chunk = pop_locked();
  }
  if (chunk != nullptr) chunk->reset(file_offset);
  return chunk;
}

std::unique_ptr<Chunk> BufferPool::acquire_for(std::uint64_t file_offset,
                                               std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_ptr<Chunk> chunk;
  {
    std::unique_lock lock(mu_);
    chunk = pop_locked();
    if (chunk == nullptr) {
      contentions_.fetch_add(1, std::memory_order_relaxed);
      available_.wait_until(lock, deadline, [&] {
        chunk = pop_locked();
        return chunk != nullptr || shutdown_.load(std::memory_order_relaxed);
      });
    }
  }
  if (chunk != nullptr) chunk->reset(file_offset);
  return chunk;
}

void BufferPool::release(std::unique_ptr<Chunk> chunk) {
  if (!chunk) return;
  {
    std::lock_guard lock(mu_);
    if (shutdown_.load(std::memory_order_relaxed)) return;  // drop during teardown
    free_.push_back(std::move(chunk));
    free_count_.store(free_.size(), std::memory_order_relaxed);
  }
  available_.notify_one();
}

std::size_t BufferPool::resize(std::size_t target_chunks) {
  target_chunks = std::max<std::size_t>(1, target_chunks);
  // A shrink frees its chunks after the lock is dropped.
  std::vector<std::unique_ptr<Chunk>> dropped;
  std::size_t total;
  {
    std::lock_guard lock(mu_);
    total = total_chunks();
    if (shutdown_.load(std::memory_order_relaxed)) return total;
    for (; total < target_chunks; ++total) {
      free_.push_back(std::make_unique<Chunk>(chunk_bytes_));
    }
    // Shrink: only chunks sitting free right now are removed; anything
    // parked, queued, or in flight stays out until released and is then
    // simply part of the (smaller) pool again.
    for (; total > target_chunks && !free_.empty(); --total) {
      dropped.push_back(std::move(free_.back()));
      free_.pop_back();
    }
    total_chunks_.store(total, std::memory_order_relaxed);
    free_count_.store(free_.size(), std::memory_order_relaxed);
  }
  // A grow may satisfy several writers parked on the empty pool.
  available_.notify_all();
  return total;
}

void BufferPool::shutdown() {
  {
    std::lock_guard lock(mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  available_.notify_all();
}

}  // namespace crfs
