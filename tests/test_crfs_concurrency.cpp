// Concurrency and property tests for CRFS: many parallel writers, pool
// backpressure under pressure, data integrity under every interleaving,
// and parameterized sweeps over chunk/pool/thread configurations.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "backend/mem_backend.h"
#include "backend/wrappers.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/units.h"
#include "crfs/crfs.h"

namespace crfs {
namespace {

// Writes `total` pseudo-random bytes to `path` in randomly sized
// sequential application writes (mimicking a checkpoint stream) and
// returns the CRC of what was written.
std::uint64_t write_stream(Crfs& fs, const std::string& path, std::size_t total,
                           std::uint64_t seed) {
  auto h = fs.open(path, {.create = true, .truncate = true, .write = true});
  EXPECT_TRUE(h.ok());
  Rng data_rng(seed);
  Rng size_rng(seed ^ 0xABCDEF);
  Crc64 crc;
  std::vector<std::byte> buf;
  std::size_t written = 0;
  while (written < total) {
    const std::size_t n =
        std::min<std::size_t>(size_rng.uniform(1, 32 * 1024), total - written);
    buf.resize(n);
    for (auto& b : buf) b = static_cast<std::byte>(data_rng.next_u64());
    crc.update(buf.data(), buf.size());
    EXPECT_TRUE(fs.write(h.value(), buf, written).ok());
    written += n;
  }
  EXPECT_TRUE(fs.close(h.value()).ok());
  return crc.digest();
}

std::uint64_t crc_of_backend(MemBackend& mem, const std::string& path) {
  auto c = mem.contents(path);
  EXPECT_TRUE(c.ok());
  return Crc64::of(c.value().data(), c.value().size());
}

TEST(CrfsConcurrency, EightWritersEightFilesIntegrity) {
  // The paper's N-N checkpoint pattern: one file per process.
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{.chunk_size = 64 * 1024, .pool_size = 256 * 1024});
  ASSERT_TRUE(fs.ok());

  constexpr int kWriters = 8;
  constexpr std::size_t kBytes = 512 * 1024;
  std::vector<std::uint64_t> expected(kWriters);
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int i = 0; i < kWriters; ++i) {
    threads.emplace_back([&, i] {
      expected[static_cast<std::size_t>(i)] =
          write_stream(*fs.value(), "proc" + std::to_string(i) + ".ckpt", kBytes,
                       static_cast<std::uint64_t>(i) + 100);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kWriters; ++i) {
    const std::string path = "proc" + std::to_string(i) + ".ckpt";
    EXPECT_EQ(crc_of_backend(*mem, path), expected[static_cast<std::size_t>(i)])
        << "corruption in " << path;
    EXPECT_EQ(mem->contents(path).value().size(), kBytes);
  }
  EXPECT_EQ(fs.value()->open_files(), 0u);
  EXPECT_EQ(fs.value()->queue_depth(), 0u);
}

TEST(CrfsConcurrency, TinyPoolForcesBackpressureWithoutLoss) {
  // One chunk total: every writer contends for the single buffer. The
  // blocking acquire path must not deadlock against the IO pool.
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{.chunk_size = 16 * 1024, .pool_size = 16 * 1024,
                                    .io_threads = 2});
  ASSERT_TRUE(fs.ok());

  constexpr int kWriters = 4;
  constexpr std::size_t kBytes = 256 * 1024;
  std::vector<std::uint64_t> expected(kWriters);
  std::vector<std::thread> threads;
  for (int i = 0; i < kWriters; ++i) {
    threads.emplace_back([&, i] {
      expected[static_cast<std::size_t>(i)] =
          write_stream(*fs.value(), "p" + std::to_string(i), kBytes,
                       static_cast<std::uint64_t>(i) + 7);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kWriters; ++i) {
    EXPECT_EQ(crc_of_backend(*mem, "p" + std::to_string(i)),
              expected[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(fs.value()->buffer_pool().contention_count(), 0u);
}

TEST(CrfsConcurrency, ConcurrentWritersOnSameFileDisjointRegions) {
  // Two handles, two disjoint halves of one file (N-1 segmented pattern).
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{.chunk_size = 8 * 1024, .pool_size = 64 * 1024});
  ASSERT_TRUE(fs.ok());

  constexpr std::size_t kHalf = 128 * 1024;
  auto h1 = fs.value()->open("shared", {.create = true, .truncate = true, .write = true});
  auto h2 = fs.value()->open("shared", {.create = false, .truncate = false, .write = true});
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());

  auto writer = [&](Crfs::FileHandle h, std::uint64_t base, char fill) {
    std::vector<std::byte> buf(4096, static_cast<std::byte>(fill));
    for (std::size_t off = 0; off < kHalf; off += buf.size()) {
      ASSERT_TRUE(fs.value()->write(h, buf, base + off).ok());
    }
  };
  std::thread t1([&] { writer(h1.value(), 0, 'A'); });
  std::thread t2([&] { writer(h2.value(), kHalf, 'B'); });
  t1.join();
  t2.join();
  ASSERT_TRUE(fs.value()->close(h1.value()).ok());
  ASSERT_TRUE(fs.value()->close(h2.value()).ok());

  auto content = mem->contents("shared");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 2 * kHalf);
  for (std::size_t i = 0; i < 2 * kHalf; i += 997) {
    const char expect = i < kHalf ? 'A' : 'B';
    ASSERT_EQ(static_cast<char>(content.value()[i]), expect) << "at offset " << i;
  }
}

TEST(CrfsConcurrency, InterleavedFsyncsDoNotCorrupt) {
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{.chunk_size = 8 * 1024, .pool_size = 32 * 1024});
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("fsynced", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  Crc64 crc;
  Rng rng(42);
  std::uint64_t off = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::byte> buf(rng.uniform(1, 8000));
    for (auto& b : buf) b = static_cast<std::byte>(rng.next_u64());
    crc.update(buf.data(), buf.size());
    ASSERT_TRUE(fs.value()->write(h.value(), buf, off).ok());
    off += buf.size();
    if (i % 17 == 0) {
      ASSERT_TRUE(fs.value()->fsync(h.value()).ok());
    }
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
  EXPECT_EQ(crc_of_backend(*mem, "fsynced"), crc.digest());
  EXPECT_GE(mem->fsync_count("fsynced"), 12u);
}

TEST(CrfsConcurrency, ManyFilesOpenCloseChurn) {
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{.chunk_size = 4096, .pool_size = 16 * 4096});
  ASSERT_TRUE(fs.ok());

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const std::string path = "churn" + std::to_string(t) + "_" + std::to_string(i);
        auto h = fs.value()->open(path, {.create = true, .truncate = true, .write = true});
        ASSERT_TRUE(h.ok());
        const std::string data = "iteration " + std::to_string(i);
        ASSERT_TRUE(fs.value()
                        ->write(h.value(),
                                {reinterpret_cast<const std::byte*>(data.data()), data.size()}, 0)
                        .ok());
        ASSERT_TRUE(fs.value()->close(h.value()).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fs.value()->open_files(), 0u);
  // Every file exists with its content.
  for (int t = 0; t < kThreads; ++t) {
    auto c = mem->contents("churn" + std::to_string(t) + "_39");
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c.value().size(), std::string("iteration 39").size());
  }
}

// --------------------------------------------- parameterized property set

struct SweepParam {
  std::size_t chunk;
  std::size_t pool;
  unsigned threads;
  std::size_t bytes;
};

class CrfsConfigSweep : public ::testing::TestWithParam<SweepParam> {};

// Property: for ANY (chunk, pool, io_threads) configuration, a sequential
// write stream lands byte-identical in the backend, and the number of
// backend writes never exceeds ceil(bytes/chunk) + 1.
TEST_P(CrfsConfigSweep, IntegrityAndAggregationBound) {
  const auto p = GetParam();
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{.chunk_size = p.chunk, .pool_size = p.pool,
                                    .io_threads = p.threads});
  ASSERT_TRUE(fs.ok());

  const std::uint64_t crc = write_stream(*fs.value(), "f", p.bytes, 0xC0FFEE ^ p.chunk);
  EXPECT_EQ(crc_of_backend(*mem, "f"), crc);
  EXPECT_EQ(mem->contents("f").value().size(), p.bytes);

  const std::uint64_t max_backend_writes = (p.bytes + p.chunk - 1) / p.chunk + 1;
  EXPECT_LE(mem->total_pwrites(), max_backend_writes)
      << "aggregation must bound backend write count";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrfsConfigSweep,
    ::testing::Values(
        SweepParam{1 * KiB, 4 * KiB, 1, 100 * KiB},
        SweepParam{4 * KiB, 16 * KiB, 2, 100 * KiB},
        SweepParam{4 * KiB, 4 * KiB, 4, 64 * KiB},     // single-chunk pool
        SweepParam{64 * KiB, 256 * KiB, 4, 1 * MiB},
        SweepParam{128 * KiB, 16 * MiB, 4, 2 * MiB},
        SweepParam{1 * MiB, 16 * MiB, 4, 4 * MiB},
        SweepParam{4 * MiB, 16 * MiB, 4, 8 * MiB},     // paper default
        SweepParam{4 * MiB, 16 * MiB, 8, 8 * MiB},
        SweepParam{3000, 9000, 3, 1000000}),           // non-power-of-two
    [](const auto& param_info) {
      const auto& p = param_info.param;
      return "chunk" + std::to_string(p.chunk) + "_pool" + std::to_string(p.pool) +
             "_t" + std::to_string(p.threads) + "_n" + std::to_string(p.bytes);
    });

// Property: unaligned write sizes around the chunk boundary never corrupt.
class ChunkBoundaryProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChunkBoundaryProperty, WritesStraddlingChunkEdge) {
  const int delta = GetParam();
  constexpr std::size_t kChunk = 4096;
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{.chunk_size = kChunk, .pool_size = 4 * kChunk});
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("edge", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  // First write ends exactly `delta` bytes before/after the chunk edge.
  const std::size_t first = static_cast<std::size_t>(static_cast<int>(kChunk) + delta);
  std::vector<std::byte> a(first, std::byte{'a'});
  std::vector<std::byte> b(kChunk, std::byte{'b'});
  ASSERT_TRUE(fs.value()->write(h.value(), a, 0).ok());
  ASSERT_TRUE(fs.value()->write(h.value(), b, a.size()).ok());
  ASSERT_TRUE(fs.value()->close(h.value()).ok());

  auto c = mem->contents("edge");
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().size(), a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(static_cast<char>(c.value()[i]), 'a') << i;
  }
  for (std::size_t i = a.size(); i < c.value().size(); ++i) {
    ASSERT_EQ(static_cast<char>(c.value()[i]), 'b') << i;
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeDeltas, ChunkBoundaryProperty,
                         ::testing::Values(-3, -1, 0, 1, 3, -4096 + 1, 4096 - 1));


// Regression: more open files than pool chunks used to deadlock — every
// chunk ended up parked as some file's partial current chunk while a new
// file's writer blocked forever on the pool. The pool-exhaustion rescue
// (partial-chunk stealing) must keep the mount live.
TEST(CrfsConcurrency, MoreOpenFilesThanChunksDoesNotDeadlock) {
  auto mem = std::make_shared<MemBackend>();
  // Exactly 2 chunks in the pool; 6 files held open simultaneously.
  auto fs = Crfs::mount(mem, Config{.chunk_size = 8 * 1024, .pool_size = 16 * 1024,
                                    .io_threads = 1});
  ASSERT_TRUE(fs.ok());

  std::vector<Crfs::FileHandle> handles;
  for (int i = 0; i < 6; ++i) {
    auto h = fs.value()->open("park" + std::to_string(i),
                              {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
  }
  // Round-robin small writes: each file parks a partial chunk, then the
  // single writer moves on and needs a chunk for the next file.
  std::vector<std::byte> piece(512);
  Rng rng(9);
  std::vector<std::uint64_t> offsets(handles.size(), 0);
  for (int round = 0; round < 40; ++round) {
    for (std::size_t f = 0; f < handles.size(); ++f) {
      for (auto& b : piece) b = static_cast<std::byte>(rng.next_u64());
      ASSERT_TRUE(fs.value()->write(handles[f], piece, offsets[f]).ok());
      offsets[f] += piece.size();
    }
  }
  for (std::size_t f = 0; f < handles.size(); ++f) {
    ASSERT_TRUE(fs.value()->close(handles[f]).ok());
    EXPECT_EQ(mem->contents("park" + std::to_string(f)).value().size(), offsets[f]);
  }
  EXPECT_GT(fs.value()->metrics().counter("crfs.mount.chunk_steals").value(), 0u)
      << "the rescue path must have engaged";
}

// Stress: N writer threads × M files over a pool far smaller than the
// working set, with the batched/coalescing IO path at non-default
// settings. Every interleaving must land byte-exact content;
// the tiny pool guarantees constant exhaustion (and with more parked
// files than chunks, the rescue/steal path engages too). Runs under the
// TSan preset via scripts/check_tsan.sh.
TEST(CrfsConcurrency, ManyWritersManyFilesTinyPoolByteExact) {
  auto mem = std::make_shared<MemBackend>();
  // 4 chunks total. io_batch=4 exceeds the half-the-pool cap, so the effective
  // batch is 2 — the batched/coalescing dequeue runs while the pool
  // stays under constant exhaustion.
  auto fs = Crfs::mount(mem, Config{.chunk_size = 8 * 1024,
                                    .pool_size = 32 * 1024,
                                    .io_threads = 2,
                                    .io_batch = 4});
  ASSERT_TRUE(fs.ok());

  constexpr int kWriters = 8;
  constexpr int kFilesPerWriter = 3;
  constexpr std::size_t kBytes = 96 * 1024;

  // Deterministic per-file payloads, built up front so the check below is
  // a straight byte comparison against backend contents.
  auto payload = [](int writer, int file) {
    std::vector<std::byte> data(kBytes);
    Rng rng(static_cast<std::uint64_t>(writer) * 131 + static_cast<std::uint64_t>(file));
    for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
    return data;
  };

  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng size_rng(static_cast<std::uint64_t>(w) ^ 0x5EED);
      for (int f = 0; f < kFilesPerWriter; ++f) {
        const std::string path =
            "stress" + std::to_string(w) + "_" + std::to_string(f);
        const std::vector<std::byte> data = payload(w, f);
        auto h = fs.value()->open(path, {.create = true, .truncate = true, .write = true});
        ASSERT_TRUE(h.ok());
        std::size_t off = 0;
        while (off < kBytes) {
          // Odd sizes straddle chunk edges; occasional fsync interleaves
          // drain() with other writers' flushes.
          const std::size_t n =
              std::min<std::size_t>(size_rng.uniform(1, 20 * 1024), kBytes - off);
          ASSERT_TRUE(
              fs.value()->write(h.value(), {data.data() + off, n}, off).ok());
          off += n;
          if (size_rng.uniform(0, 9) == 0) {
            ASSERT_TRUE(fs.value()->fsync(h.value()).ok());
          }
        }
        ASSERT_TRUE(fs.value()->close(h.value()).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int w = 0; w < kWriters; ++w) {
    for (int f = 0; f < kFilesPerWriter; ++f) {
      const std::string path =
          "stress" + std::to_string(w) + "_" + std::to_string(f);
      auto c = mem->contents(path);
      ASSERT_TRUE(c.ok()) << path;
      const std::vector<std::byte> expect = payload(w, f);
      ASSERT_EQ(c.value().size(), expect.size()) << path;
      ASSERT_EQ(std::memcmp(c.value().data(), expect.data(), expect.size()), 0)
          << "byte mismatch in " << path;
    }
  }
  EXPECT_EQ(fs.value()->open_files(), 0u);
  EXPECT_EQ(fs.value()->queue_depth(), 0u);
  // The working set dwarfs the pool, so acquisition had to contend.
  EXPECT_GT(fs.value()->buffer_pool().contention_count(), 0u);
}

}  // namespace
}  // namespace crfs
