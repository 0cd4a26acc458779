// Read-path tests: pread conformance across every backend (short reads,
// chunk-boundary straddling, EOF), the sequential-scan prefetcher (arming,
// seek eviction, runtime toggle, fair pool share between concurrent
// scans, failed fills, unmount with fills in flight on the IO threads),
// the page-cache pass-through (resident files skip the prefetcher, cold
// and decorated ones keep it),
// coherence against buffered and racing writes, and bit-identical blcr
// restart with readahead on / off / retuned mid-stream.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/null_backend.h"
#include "backend/posix_backend.h"
#include "backend/wrappers.h"
#include "blcr/checkpoint_writer.h"
#include "blcr/process_image.h"
#include "blcr/restart_reader.h"
#include "blcr/sinks.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"

namespace crfs {
namespace {

constexpr std::size_t kChunk = 64 * KiB;
constexpr std::size_t kPool = 1 * MiB;

std::byte pattern_at(std::uint64_t i, std::uint64_t salt = 0) {
  return static_cast<std::byte>((i * 131 + (i >> 9) * 7 + salt + 13) & 0xff);
}

std::vector<std::byte> make_pattern(std::size_t n, std::uint64_t salt = 0) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern_at(i, salt);
  return out;
}

class ReadPath : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("crfs_read_path_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// Runs `fn` on a helper thread; if it has not returned within `limit`,
/// reports `what` and exits the process, so a blocking wait that never
/// ends fails the test run instead of hanging it.
void within(std::chrono::seconds limit, const char* what, const std::function<void()>& fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread worker([&] {
    fn();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "FAILED: %s did not return within %lld s\n", what,
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  worker.join();
}

void write_file(Crfs& fs, const std::string& path, const std::vector<std::byte>& data) {
  auto h = fs.open(path, {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  // Sub-chunk pieces so the data flows through aggregation, not the bypass.
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n = std::min<std::size_t>(48 * KiB, data.size() - off);
    ASSERT_TRUE(fs.write(h.value(), {data.data() + off, n}, off).ok());
    off += n;
  }
  ASSERT_TRUE(fs.close(h.value()).ok());
}

// Every read shape the restart path produces: a full sequential scan (arms
// the prefetcher when enabled), chunk-straddling and unaligned positioned
// reads, a short read crossing EOF, and reads at/past EOF returning 0.
void expect_readable(Crfs& fs, const std::string& path,
                     const std::vector<std::byte>& expect) {
  auto h = fs.open(path, {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  const std::size_t size = expect.size();
  ASSERT_GT(size, 2 * kChunk + 2000);

  std::vector<std::byte> got(size);
  std::size_t off = 0;
  while (off < size) {
    const std::size_t want = std::min(kChunk, size - off);
    auto r = fs.read(h.value(), {got.data() + off, want}, off);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_GT(r.value(), 0u) << "unexpected EOF at " << off;
    off += r.value();
  }
  EXPECT_TRUE(got == expect) << "sequential scan corrupted " << path;

  std::vector<std::byte> buf(4096);
  auto r = fs.read(h.value(), buf, kChunk - 2048);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), buf.size());
  EXPECT_EQ(0, std::memcmp(buf.data(), expect.data() + kChunk - 2048, buf.size()))
      << "chunk-straddling read corrupted " << path;

  std::vector<std::byte> odd(7777);
  r = fs.read(h.value(), odd, 12345);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), odd.size());
  EXPECT_EQ(0, std::memcmp(odd.data(), expect.data() + 12345, odd.size()))
      << "unaligned read corrupted " << path;

  std::vector<std::byte> tail(8192);
  r = fs.read(h.value(), tail, size - 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 1000u) << "EOF-crossing read not short on " << path;
  EXPECT_EQ(0, std::memcmp(tail.data(), expect.data() + size - 1000, 1000));

  r = fs.read(h.value(), tail, size);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u) << "read at EOF not empty on " << path;
  r = fs.read(h.value(), tail, size + 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u) << "read past EOF not empty on " << path;

  ASSERT_TRUE(fs.close(h.value()).ok());
}

TEST_F(ReadPath, PreadConformanceAcrossBackends) {
  const auto data = make_pattern(3 * kChunk + 1234);
  struct Case {
    const char* label;
    std::function<std::shared_ptr<BackendFs>(const std::filesystem::path&)> make;
  };
  const Case cases[] = {
      {"mem", [](const auto&) { return std::make_shared<MemBackend>(); }},
      {"posix",
       [](const auto& dir) -> std::shared_ptr<BackendFs> {
         std::filesystem::create_directories(dir);
         auto b = PosixBackend::create(dir.string());
         EXPECT_TRUE(b.ok());
         if (!b.ok()) return nullptr;
         return std::shared_ptr<BackendFs>(std::move(b.value()));
       }},
      {"faulty",
       [](const auto&) -> std::shared_ptr<BackendFs> {
         // Unarmed: exercises the wrapper's pread passthrough.
         return std::make_shared<FaultyBackend>(std::make_shared<MemBackend>());
       }},
      {"throttled",
       [](const auto&) -> std::shared_ptr<BackendFs> {
         auto t = std::make_shared<ThrottledBackend>(std::make_shared<MemBackend>(),
                                                     512.0 * MiB);
         t->throttle_reads(true);
         return t;
       }},
  };

  for (const Case& c : cases) {
    for (bool readahead : {true, false}) {
      SCOPED_TRACE(std::string(c.label) + (readahead ? "/readahead" : "/no_readahead"));
      auto backend = c.make(dir_ / c.label / (readahead ? "on" : "off"));
      ASSERT_NE(backend, nullptr);
      auto fs = Crfs::mount(backend, Config{.chunk_size = kChunk,
                                            .pool_size = kPool,
                                            .readahead = readahead});
      ASSERT_TRUE(fs.ok());
      write_file(*fs.value(), "conf.dat", data);
      expect_readable(*fs.value(), "conf.dat", data);
    }
  }
}

TEST_F(ReadPath, NullBackendReadsReportEof) {
  auto fs = Crfs::mount(std::make_shared<NullBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  auto h = fs.value()->open("sink.dat", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  const auto data = make_pattern(2 * kChunk);
  ASSERT_TRUE(fs.value()->write(h.value(), data, 0).ok());
  ASSERT_TRUE(fs.value()->fsync(h.value()).ok());

  // The null backend discards everything; reads must report EOF, not hang
  // the prefetcher or fabricate bytes.
  std::vector<std::byte> buf(kChunk);
  for (int i = 0; i < 3; ++i) {
    auto r = fs.value()->read(h.value(), buf, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 0u);
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

TEST_F(ReadPath, ReadsObserveBufferedWritesAndOverwrites) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  auto data = make_pattern(4 * kChunk + 512);
  auto h = fs.value()->open("race.dat", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n = std::min<std::size_t>(48 * KiB, data.size() - off);
    ASSERT_TRUE(fs.value()->write(h.value(), {data.data() + off, n}, off).ok());
    off += n;
  }

  // No fsync: part of the file is still buffered or queued. flush_before_read
  // must barrier exactly this file so the scan observes every byte.
  std::vector<std::byte> got(data.size());
  for (off = 0; off < got.size();) {
    auto r = fs.value()->read(h.value(), {got.data() + off, std::min(kChunk, got.size() - off)},
                              off);
    ASSERT_TRUE(r.ok());
    ASSERT_GT(r.value(), 0u);
    off += r.value();
  }
  EXPECT_TRUE(got == data);

  // Overwrite a region the prefetcher may have cached: the write-generation
  // bump must invalidate the window so the next read returns fresh bytes.
  const auto fresh = make_pattern(kChunk, /*salt=*/91);
  ASSERT_TRUE(fs.value()->write(h.value(), fresh, kChunk).ok());
  std::vector<std::byte> region(kChunk);
  auto r = fs.value()->read(h.value(), region, kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), region.size());
  EXPECT_TRUE(region == fresh) << "stale prefetched bytes served after overwrite";
  r = fs.value()->read(h.value(), region, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), region.size());
  EXPECT_EQ(0, std::memcmp(region.data(), data.data(), region.size()));
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

TEST_F(ReadPath, ReadsRaceInflightWrites) {
  // A writer appends records while a reader scans everything below the
  // published watermark. flush_before_read + the prefetch coherence rules
  // must keep every observed byte exact. (Also the TSan workload.)
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  constexpr std::size_t kRecord = 64 * KiB;
  constexpr std::size_t kRecords = 32;
  const auto data = make_pattern(kRecords * kRecord, /*salt=*/7);

  auto wh = fs.value()->open("live.dat", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(wh.ok());
  auto rh = fs.value()->open("live.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(rh.ok());

  std::atomic<std::size_t> watermark{0};
  std::thread writer([&] {
    for (std::size_t i = 0; i < kRecords; ++i) {
      const std::size_t off2 = i * kRecord;
      ASSERT_TRUE(fs.value()->write(wh.value(), {data.data() + off2, kRecord}, off2).ok());
      watermark.store(off2 + kRecord, std::memory_order_release);
      if (i % 8 == 7) ASSERT_TRUE(fs.value()->fsync(wh.value()).ok());
    }
  });

  std::vector<std::byte> buf(kRecord);
  std::size_t verified = 0;
  while (verified < data.size()) {
    const std::size_t limit = watermark.load(std::memory_order_acquire);
    while (verified + kRecord <= limit) {
      auto r = fs.value()->read(rh.value(), buf, verified);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value(), kRecord);
      ASSERT_EQ(0, std::memcmp(buf.data(), data.data() + verified, kRecord))
          << "corruption at offset " << verified;
      verified += kRecord;
    }
    std::this_thread::yield();
  }
  writer.join();
  ASSERT_TRUE(fs.value()->close(rh.value()).ok());
  ASSERT_TRUE(fs.value()->close(wh.value()).ok());
}

TEST_F(ReadPath, SequentialScanArmsThePrefetcher) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(1 * MiB);
  write_file(*fs.value(), "seq.dat", data);

  auto h = fs.value()->open("seq.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(kChunk);
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    auto r = fs.value()->read(h.value(), buf, off);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), kChunk);
    ASSERT_EQ(0, std::memcmp(buf.data(), data.data() + off, kChunk));
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());

  EXPECT_EQ(fs.value()->metrics().counter("crfs.read.ops").value(), data.size() / kChunk);
  EXPECT_EQ(fs.value()->metrics().counter("crfs.read.bytes").value(), data.size());
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_hits").value(), 0u);

  // Per-restore attribution: close finalized the scan into the ledger.
  const auto ledger = fs.value()->restore_ledger();
  ASSERT_FALSE(ledger.empty());
  bool found = false;
  for (const auto& row : ledger) {
    if (row.path != "seq.dat") continue;
    found = true;
    EXPECT_EQ(row.bytes, data.size());
    EXPECT_EQ(row.ops, data.size() / kChunk);
    EXPECT_GT(row.prefetch_hits, 0u);
    EXPECT_FALSE(row.active);
  }
  EXPECT_TRUE(found) << "seq.dat missing from the restore ledger";
}

TEST_F(ReadPath, SeekDropsThePrefetchWindow) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(16 * kChunk);
  write_file(*fs.value(), "seek.dat", data);

  auto h = fs.value()->open("seek.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(kChunk);
  // Establish the scan so the window fills ahead of the cursor...
  for (std::size_t off = 0; off < 4 * kChunk; off += kChunk) {
    ASSERT_TRUE(fs.value()->read(h.value(), buf, off).ok());
  }
  ASSERT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);
  // ...then seek backwards: the window is evicted, unconsumed slots count
  // as wasted, and the re-read is still exact.
  auto r = fs.value()->read(h.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), kChunk);
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_wasted").value(), 0u);
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

TEST_F(ReadPath, ReadaheadOffNeverPrefetches) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = kPool,
                               .readahead = false});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(8 * kChunk);
  write_file(*fs.value(), "off.dat", data);

  auto h = fs.value()->open("off.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(kChunk);
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    auto r = fs.value()->read(h.value(), buf, off);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), kChunk);
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
  EXPECT_EQ(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);
  // Every read fell through to one blocking pread.
  EXPECT_EQ(fs.value()->metrics().counter("crfs.read.sync_preads").value(),
            data.size() / kChunk);
}

TEST_F(ReadPath, RuntimeToggleStopsPrefetching) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(16 * kChunk);
  write_file(*fs.value(), "toggle.dat", data);

  auto scan = [&] {
    auto h =
        fs.value()->open("toggle.dat", {.create = false, .truncate = false, .write = false});
    ASSERT_TRUE(h.ok());
    std::vector<std::byte> buf(kChunk);
    for (std::size_t off = 0; off < data.size(); off += kChunk) {
      auto r = fs.value()->read(h.value(), buf, off);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value(), kChunk);
    }
    ASSERT_TRUE(fs.value()->close(h.value()).ok());
  };

  EXPECT_EQ(fs.value()->tune("readahead", 0.0).outcome, "applied");
  scan();
  const auto issued_off = fs.value()->metrics().counter("crfs.read.prefetch_issued").value();
  EXPECT_EQ(issued_off, 0u);

  EXPECT_EQ(fs.value()->tune("readahead", 1.0).outcome, "applied");
  EXPECT_EQ(fs.value()->tune("readahead_window", 2.0).outcome, "applied");
  scan();
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), issued_off);
}

TEST_F(ReadPath, RestoreBitIdenticalAcrossBackendsAndModes) {
  struct Case {
    const char* label;
    std::shared_ptr<BackendFs> backend;
  };
  std::vector<Case> cases;
  cases.push_back({"mem", std::make_shared<MemBackend>()});
  {
    auto t = std::make_shared<ThrottledBackend>(std::make_shared<MemBackend>(), 512.0 * MiB);
    t->throttle_reads(true);
    cases.push_back({"throttled", t});
  }
  {
    const auto pdir = dir_ / "restore";
    std::filesystem::create_directories(pdir);
    auto b = PosixBackend::create(pdir.string());
    ASSERT_TRUE(b.ok());
    cases.push_back({"posix", std::shared_ptr<BackendFs>(std::move(b.value()))});
  }

  const auto image = blcr::ProcessImage::synthesize(17, 6 * MiB, 55);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    auto fs = Crfs::mount(c.backend, Config{.chunk_size = 256 * KiB, .pool_size = 2 * MiB});
    ASSERT_TRUE(fs.ok());
    FuseShim shim(*fs.value(), FuseOptions{});

    std::uint64_t crc = 0;
    {
      auto f = File::open(shim, "rank0.ckpt", {.create = true, .truncate = true, .write = true});
      ASSERT_TRUE(f.ok());
      blcr::CrfsFileSink sink(f.value());
      auto written = blcr::CheckpointWriter::write_image(image, sink);
      ASSERT_TRUE(written.ok());
      crc = written.value();
      ASSERT_TRUE(f.value().close().ok());
    }

    // Restore 1: readahead on (mount default).
    {
      auto f = File::open(shim, "rank0.ckpt",
                          {.create = false, .truncate = false, .write = false});
      ASSERT_TRUE(f.ok());
      blcr::CrfsFileSource source(f.value());
      auto restored = blcr::RestartReader::read_image(source);
      ASSERT_TRUE(restored.ok()) << restored.error().to_string();
      EXPECT_EQ(restored.value().payload_crc, crc);
    }

    // Restore 2: readahead off via the knob plane.
    fs.value()->tune("readahead", 0.0);
    {
      auto f = File::open(shim, "rank0.ckpt",
                          {.create = false, .truncate = false, .write = false});
      ASSERT_TRUE(f.ok());
      blcr::CrfsFileSource source(f.value());
      auto restored = blcr::RestartReader::read_image(source);
      ASSERT_TRUE(restored.ok()) << restored.error().to_string();
      EXPECT_EQ(restored.value().payload_crc, crc);
    }

    // Restore 3: retuned mid-stream — window shrunk, prefetch switched off,
    // then back on wider, all while the reader is inside the image.
    fs.value()->tune("readahead", 1.0);
    {
      auto f = File::open(shim, "rank0.ckpt",
                          {.create = false, .truncate = false, .write = false});
      ASSERT_TRUE(f.ok());
      std::uint64_t seen = 0;
      int stage = 0;
      blcr::FnSource source([&](std::span<std::byte> out) -> Result<std::size_t> {
        if (stage == 0 && seen > 1 * MiB) {
          fs.value()->tune("readahead_window", 1.0);
          stage = 1;
        } else if (stage == 1 && seen > 2 * MiB) {
          fs.value()->tune("readahead", 0.0);
          stage = 2;
        } else if (stage == 2 && seen > 4 * MiB) {
          fs.value()->tune("readahead", 1.0);
          fs.value()->tune("readahead_window", 8.0);
          stage = 3;
        }
        auto r = f.value().read(out);
        if (r.ok()) seen += r.value();
        return r;
      });
      auto restored = blcr::RestartReader::read_image(source);
      ASSERT_TRUE(restored.ok()) << restored.error().to_string();
      EXPECT_EQ(restored.value().payload_crc, crc);
      EXPECT_EQ(stage, 3) << "mid-stream retune points never reached";
    }
  }
}

TEST_F(ReadPath, ConcurrentScansShareThePool) {
  // Two ranks restore at once on a default mount (a pool of 4 chunks).
  // Each scan's window gets its fair share of the pool, so neither rank
  // falls back to one blocking pread per read.
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), Config{});
  ASSERT_TRUE(fs.ok());
  FuseShim shim(*fs.value(), FuseOptions{});
  constexpr unsigned kRanks = 2;
  const auto path = [](unsigned r) { return "share" + std::to_string(r) + ".ckpt"; };

  std::uint64_t crc[kRanks] = {};
  for (unsigned r = 0; r < kRanks; ++r) {
    const auto image = blcr::ProcessImage::synthesize(40 + r, 64 * MiB, 11 + r);
    auto f = File::open(shim, path(r), {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(f.ok());
    blcr::CrfsFileSink sink(f.value());
    auto written = blcr::CheckpointWriter::write_image(image, sink);
    ASSERT_TRUE(written.ok());
    crc[r] = written.value();
    ASSERT_TRUE(f.value().close().ok());
  }

  std::uint64_t restored[kRanks] = {};
  std::atomic<unsigned> opened{0};
  std::vector<std::thread> ranks;
  for (unsigned r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      auto f = File::open(shim, path(r), {.create = false, .truncate = false, .write = false});
      ASSERT_TRUE(f.ok());
      // Start both scans together, as a coordinated restart does.
      opened.fetch_add(1);
      while (opened.load() < kRanks) std::this_thread::yield();
      blcr::CrfsFileSource source(f.value());
      auto sum = blcr::RestartReader::read_image(source);
      ASSERT_TRUE(sum.ok()) << sum.error().to_string();
      restored[r] = sum.value().payload_crc;
      ASSERT_TRUE(f.value().close().ok());
    });
  }
  for (auto& t : ranks) t.join();

  const auto ledger = fs.value()->restore_ledger();
  for (unsigned r = 0; r < kRanks; ++r) {
    SCOPED_TRACE(path(r));
    EXPECT_EQ(restored[r], crc[r]);
    bool found = false;
    for (const auto& row : ledger) {
      if (row.path != path(r)) continue;
      found = true;
      EXPECT_GT(row.prefetch_hits, 0u) << "this rank's scan never got a pool chunk";
      EXPECT_LE(row.sync_preads, row.ops / 2)
          << row.sync_preads << " of " << row.ops << " reads were blocking preads";
    }
    EXPECT_TRUE(found) << "missing from the restore ledger";
  }
}

TEST_F(ReadPath, FailedFillRetriesOrReportsTheError) {
  auto faulty = std::make_shared<FaultyBackend>(std::make_shared<MemBackend>());
  auto fs = Crfs::mount(faulty, Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(16 * kChunk, /*salt=*/5);
  write_file(*fs.value(), "fail.dat", data);

  auto h = fs.value()->open("fail.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  // Two blocking preads arm the scan; of the window's fills only one can
  // succeed, the rest complete in error. A read over a failed slot must
  // retry the range with a blocking pread (which fails too here) and
  // return the error, never stale or partial bytes.
  faulty->fail_reads_after(3);
  std::vector<std::byte> buf(kChunk);
  std::size_t errors = 0;
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    auto r = fs.value()->read(h.value(), buf, off);
    if (!r.ok()) {
      EXPECT_EQ(r.error().code, EIO);
      errors += 1;
      continue;
    }
    ASSERT_EQ(r.value(), kChunk) << "short read at " << off;
    EXPECT_EQ(0, std::memcmp(buf.data(), data.data() + off, kChunk)) << "bad bytes at " << off;
  }
  EXPECT_GT(errors, 0u) << "no read saw the injected failure";
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);

  // Healed backend: the failed slots are gone, so a rescan is exact.
  faulty->fail_reads_after(-1);
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    auto r = fs.value()->read(h.value(), buf, off);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_EQ(r.value(), kChunk);
    ASSERT_EQ(0, std::memcmp(buf.data(), data.data() + off, kChunk)) << "bad bytes at " << off;
  }

  within(std::chrono::seconds(30), "close after failed fills",
         [&] { EXPECT_TRUE(fs.value()->close(h.value()).ok()); });
  EXPECT_EQ(fs.value()->buffer_pool().free_chunks(), fs.value()->buffer_pool().total_chunks());
  within(std::chrono::seconds(30), "unmount after failed fills", [&] { fs.value().reset(); });
}

TEST_F(ReadPath, UnmountMidScanWaitsOutInflightFills) {
  // Every backend op sleeps 20 ms, so the window's fills are still running
  // on the IO threads when the mount goes away under the open handle.
  auto slow = std::make_shared<ThrottledBackend>(std::make_shared<MemBackend>(),
                                                 1024.0 * MiB, std::chrono::milliseconds(20));
  auto fs = Crfs::mount(slow, Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(16 * kChunk, /*salt=*/9);
  write_file(*fs.value(), "unmount.dat", data);
  slow->throttle_reads(true);

  auto h = fs.value()->open("unmount.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(kChunk);
  for (std::size_t off = 0; off < 3 * kChunk; off += kChunk) {
    auto r = fs.value()->read(h.value(), buf, off);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), kChunk);
    ASSERT_EQ(0, std::memcmp(buf.data(), data.data() + off, kChunk));
  }
  ASSERT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 3u);
  within(std::chrono::seconds(30), "unmount with fills in flight", [&] { fs.value().reset(); });
}

// Bytes of `file` the page cache serves at once, from one non-blocking
// read of its first `size` bytes; -errno when the read fails outright
// (EOPNOTSUPP: this file system cannot read without blocking).
ssize_t resident_bytes(const std::filesystem::path& file, std::size_t size) {
  const int fd = ::open(file.c_str(), O_RDONLY);
  if (fd < 0) return -errno;
  std::vector<std::byte> buf(size);
  struct iovec vec{buf.data(), buf.size()};
  const ssize_t n = ::preadv2(fd, &vec, 1, 0, RWF_NOWAIT);
  const ssize_t result = n >= 0 ? n : -errno;
  ::close(fd);
  return result;
}

// Writes `file` back and drops its pages from the page cache.
void evict_page_cache(const std::filesystem::path& file) {
  const int fd = ::open(file.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << file;
  EXPECT_EQ(::fdatasync(fd), 0);
  EXPECT_EQ(::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED), 0);
  ::close(fd);
}

std::shared_ptr<BackendFs> posix_backend(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  auto b = PosixBackend::create(dir.string());
  EXPECT_TRUE(b.ok());
  if (!b.ok()) return nullptr;
  return std::shared_ptr<BackendFs>(std::move(b.value()));
}

// Reads `path` front to back in kChunk pieces and checks every byte,
// running `before_read` ahead of each read.
void scan_exact(Crfs& fs, const std::string& path, const std::vector<std::byte>& expect,
                const std::function<void()>& before_read = [] {}) {
  auto h = fs.open(path, {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(kChunk);
  for (std::size_t off = 0; off < expect.size(); off += kChunk) {
    before_read();
    auto r = fs.read(h.value(), buf, off);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_EQ(r.value(), kChunk);
    ASSERT_EQ(0, std::memcmp(buf.data(), expect.data() + off, kChunk)) << "bad bytes at " << off;
  }
  ASSERT_TRUE(fs.close(h.value()).ok());
}

TEST_F(ReadPath, ResidentScanPassesThrough) {
  // A file the page cache holds takes the paper's pass-through: each read
  // is one non-blocking pread into the caller's buffer, and no prefetch
  // (and no slot-to-caller copy) is ever issued.
  auto backend = posix_backend(dir_ / "resident");
  ASSERT_NE(backend, nullptr);
  auto fs = Crfs::mount(backend, Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(1 * MiB, /*salt=*/21);
  write_file(*fs.value(), "warm.dat", data);
  const ssize_t resident = resident_bytes(dir_ / "resident" / "warm.dat", data.size());
  if (resident == -EOPNOTSUPP) GTEST_SKIP() << "file system has no RWF_NOWAIT reads";
  ASSERT_EQ(resident, static_cast<ssize_t>(data.size())) << "fresh file not in the page cache";

  scan_exact(*fs.value(), "warm.dat", data);
  auto& m = fs.value()->metrics();
  EXPECT_EQ(m.counter("crfs.read.ops").value(), data.size() / kChunk);
  EXPECT_EQ(m.counter("crfs.read.bytes").value(), data.size());
  EXPECT_EQ(m.counter("crfs.read.prefetch_issued").value(), 0u);
  EXPECT_EQ(m.counter("crfs.read.sync_preads").value(), m.counter("crfs.read.ops").value());
}

TEST_F(ReadPath, ColdScanArmsThePrefetcher) {
  // The same scan over a file evicted from the page cache must block on
  // the device, so the prefetcher arms and serves it. On a fast device the
  // kernel's own readahead can refill the cache ahead of the scan, so the
  // file's pages are dropped again before every read.
  auto backend = posix_backend(dir_ / "cold");
  ASSERT_NE(backend, nullptr);
  auto fs = Crfs::mount(backend, Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(4 * MiB, /*salt=*/23);
  write_file(*fs.value(), "cold.dat", data);
  const auto file = dir_ / "cold" / "cold.dat";
  evict_page_cache(file);
  if (resident_bytes(file, data.size()) == static_cast<ssize_t>(data.size())) {
    GTEST_SKIP() << "POSIX_FADV_DONTNEED left the pages resident (e.g. tmpfs)";
  }

  scan_exact(*fs.value(), "cold.dat", data, [&] { evict_page_cache(file); });
  auto& m = fs.value()->metrics();
  EXPECT_EQ(m.counter("crfs.read.bytes").value(), data.size());
  EXPECT_GT(m.counter("crfs.read.prefetch_issued").value(), 0u);
  EXPECT_GT(m.counter("crfs.read.prefetch_hits").value(), 0u);
}

TEST_F(ReadPath, DecoratedPosixKeepsPrefetching) {
  // Decorators hide the inner fd, so their reads never bypass them: the
  // prefetcher still runs over a warm Posix file, and an injected read
  // fault still reaches the application.
  const auto data = make_pattern(1 * MiB, /*salt=*/25);
  auto faulty = std::make_shared<FaultyBackend>(posix_backend(dir_ / "faulty"));
  auto throttled = std::make_shared<ThrottledBackend>(posix_backend(dir_ / "throttled"),
                                                      1024.0 * MiB);
  throttled->throttle_reads(true);
  const std::pair<const char*, std::shared_ptr<BackendFs>> cases[] = {
      {"faulty", faulty}, {"throttled", throttled}};
  for (const auto& [label, backend] : cases) {
    SCOPED_TRACE(label);
    auto fs = Crfs::mount(backend, Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
    ASSERT_TRUE(fs.ok());
    write_file(*fs.value(), "decorated.dat", data);
    scan_exact(*fs.value(), "decorated.dat", data);
    EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);
    EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_hits").value(), 0u);
  }

  auto fs = Crfs::mount(faulty, Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  auto h = fs.value()->open("decorated.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  faulty->fail_reads_after(0);
  std::vector<std::byte> buf(kChunk);
  auto r = fs.value()->read(h.value(), buf, 0);
  ASSERT_FALSE(r.ok()) << "a resident page bypassed the injected fault";
  EXPECT_EQ(r.error().code, EIO);
  faulty->fail_reads_after(-1);
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

}  // namespace
}  // namespace crfs
