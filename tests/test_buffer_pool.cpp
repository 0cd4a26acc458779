// Unit tests for Chunk and BufferPool: pool carving, blocking acquire
// backpressure, shutdown semantics, and chunk append mechanics.
#include <gtest/gtest.h>

#include <thread>

#include "common/units.h"
#include "crfs/buffer_pool.h"

namespace crfs {
namespace {

TEST(Chunk, AppendTracksFillAndOffset) {
  Chunk c(1024);
  c.reset(5000);
  EXPECT_EQ(c.capacity(), 1024u);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.file_offset(), 5000u);
  EXPECT_EQ(c.append_point(), 5000u);

  std::vector<std::byte> data(100, std::byte{0x42});
  EXPECT_EQ(c.append(data), 100u);
  EXPECT_EQ(c.fill(), 100u);
  EXPECT_EQ(c.append_point(), 5100u);
  EXPECT_EQ(c.remaining(), 924u);
  EXPECT_FALSE(c.full());
}

TEST(Chunk, AppendConsumesOnlyWhatFits) {
  Chunk c(64);
  c.reset(0);
  std::vector<std::byte> data(100, std::byte{1});
  EXPECT_EQ(c.append(data), 64u);
  EXPECT_TRUE(c.full());
  EXPECT_EQ(c.append(data), 0u);
}

TEST(Chunk, PayloadReflectsWrittenBytes) {
  Chunk c(128);
  c.reset(0);
  const std::string msg = "payload bytes";
  c.append({reinterpret_cast<const std::byte*>(msg.data()), msg.size()});
  auto p = c.payload();
  ASSERT_EQ(p.size(), msg.size());
  EXPECT_EQ(std::memcmp(p.data(), msg.data(), msg.size()), 0);
}

TEST(Chunk, ResetClearsFill) {
  Chunk c(64);
  c.reset(0);
  std::vector<std::byte> data(10);
  c.append(data);
  c.reset(999);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.file_offset(), 999u);
}

TEST(BufferPool, CarvesPoolIntoChunks) {
  BufferPool pool(16 * MiB, 4 * MiB);
  EXPECT_EQ(pool.total_chunks(), 4u);
  EXPECT_EQ(pool.free_chunks(), 4u);
  EXPECT_EQ(pool.chunk_size(), 4 * MiB);
}

TEST(BufferPool, AtLeastOneChunkEvenWhenPoolTooSmall) {
  BufferPool pool(1024, 4096);
  EXPECT_EQ(pool.total_chunks(), 1u);
}

TEST(BufferPool, AcquireReleaseCycle) {
  BufferPool pool(8192, 4096);
  auto a = pool.try_acquire(0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(pool.free_chunks(), 1u);
  auto b = pool.try_acquire(4096);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.free_chunks(), 0u);
  EXPECT_EQ(pool.try_acquire(0), nullptr);
  pool.release(std::move(a));
  EXPECT_EQ(pool.free_chunks(), 1u);
  auto c = pool.try_acquire(123);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->file_offset(), 123u);
  pool.release(std::move(b));
  pool.release(std::move(c));
}

TEST(BufferPool, AcquireBlocksUntilRelease) {
  BufferPool pool(4096, 4096);  // exactly one chunk
  auto held = pool.try_acquire(0);
  ASSERT_NE(held, nullptr);

  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto c = pool.acquire_for(0, std::chrono::seconds(10));
    acquired.store(c != nullptr);
    pool.release(std::move(c));
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());
  EXPECT_GE(pool.contention_count(), 1u);

  pool.release(std::move(held));
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(BufferPool, ShutdownUnblocksWaiters) {
  BufferPool pool(4096, 4096);
  auto held = pool.try_acquire(0);
  ASSERT_NE(held, nullptr);

  std::atomic<bool> got_null{false};
  std::thread waiter([&] {
    got_null.store(pool.acquire_for(0, std::chrono::seconds(10)) == nullptr);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.shutdown();
  waiter.join();
  EXPECT_TRUE(got_null.load());
  pool.release(std::move(held));  // safe no-op after shutdown
}

TEST(BufferPool, ManyThreadsChurnWithoutLoss) {
  BufferPool pool(16 * 4096, 4096);
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto c = pool.acquire_for(static_cast<std::uint64_t>(i), std::chrono::seconds(10));
        ASSERT_NE(c, nullptr);
        std::vector<std::byte> junk(64);
        c->append(junk);
        pool.release(std::move(c));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.free_chunks(), 16u);  // nothing leaked
}

// ------------------------------------------------------------- resize

TEST(BufferPool, ResizeGrowWakesParkedAcquirer) {
  BufferPool pool(4096, 4096);  // exactly one chunk
  auto held = pool.try_acquire(0);
  ASSERT_NE(held, nullptr);

  // The waiter's own deadline is far beyond the bound below, so returning
  // a chunk within the bound means the grow woke it, not the timeout.
  constexpr auto kWaiterDeadline = std::chrono::seconds(30);
  constexpr auto kBound = std::chrono::seconds(5);
  std::atomic<bool> acquired{false};
  std::atomic<std::int64_t> waited_ms{-1};
  std::thread waiter([&] {
    const auto start = std::chrono::steady_clock::now();
    auto c = pool.acquire_for(7, kWaiterDeadline);
    waited_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    acquired.store(c != nullptr && c->file_offset() == 7);
    pool.release(std::move(c));
  });

  // Bounded wait for the waiter to park on the empty pool.
  const auto park_deadline = std::chrono::steady_clock::now() + kBound;
  while (pool.contention_count() == 0 && std::chrono::steady_clock::now() < park_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(pool.contention_count(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());

  EXPECT_EQ(pool.resize(2), 2u);
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_LT(waited_ms.load(), std::chrono::milliseconds(kBound).count());
  pool.release(std::move(held));
  EXPECT_EQ(pool.total_chunks(), 2u);
  EXPECT_EQ(pool.free_chunks(), 2u);
}

TEST(BufferPool, ResizeShrinkTakesOnlyFreeChunks) {
  BufferPool pool(4 * 4096, 4096);
  std::vector<std::unique_ptr<Chunk>> held;
  for (int i = 0; i < 3; ++i) {
    held.push_back(pool.try_acquire(static_cast<std::uint64_t>(i)));
    ASSERT_NE(held.back(), nullptr);
  }

  // Only one chunk is free, so a shrink to one can remove just that one:
  // the three held chunks are never reclaimed from under their holders.
  EXPECT_EQ(pool.resize(1), 3u);
  EXPECT_EQ(pool.total_chunks(), 3u);
  EXPECT_EQ(pool.free_chunks(), 0u);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(pool.acquire_for(0, std::chrono::milliseconds(50)), nullptr);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));

  // Released chunks rejoin the smaller pool; a second shrink then lands.
  for (auto& c : held) pool.release(std::move(c));
  EXPECT_EQ(pool.free_chunks(), 3u);
  EXPECT_EQ(pool.resize(1), 1u);
  EXPECT_EQ(pool.total_chunks(), 1u);
  EXPECT_EQ(pool.free_chunks(), 1u);
  EXPECT_EQ(pool.in_use_chunks(), 0u);
}

}  // namespace
}  // namespace crfs
