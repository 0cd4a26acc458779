// IO engine tests (docs/PERFORMANCE.md "IO engines"): mount-option
// plumbing, sync fallback, uring/sync byte-identity over a real
// PosixBackend, engine error propagation through the sticky FileEntry
// error, the large-write copy bypass, and the in-flight-depth evidence
// that the async engine actually decouples submission from completion,
// and last-writer-wins when an overwrite races the chunk it overwrites
// across IO threads.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/posix_backend.h"
#include "backend/wrappers.h"
#include "common/rng.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/io_engine.h"
#include "crfs/mount_options.h"

namespace crfs {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// Scoped temp dir for PosixBackend mounts.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("crfs_ioengine_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

// Scoped CRFS_FORCE_SYNC so one test's forcing never leaks into another.
class ForceSyncEnv {
 public:
  ForceSyncEnv() { ::setenv("CRFS_FORCE_SYNC", "1", 1); }
  ~ForceSyncEnv() { ::unsetenv("CRFS_FORCE_SYNC"); }
};

std::string read_file(const std::filesystem::path& p) {
  std::string out;
  std::FILE* f = std::fopen(p.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// ------------------------------------------------------- mount options

TEST(IoEngineOptions, MountOptionRoundTrip) {
  auto parsed = parse_mount_options("chunk=64K,pool=1M,io_engine=uring,uring_depth=128,no_bypass");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().config.io_engine, IoEngineKind::kUring);
  EXPECT_EQ(parsed.value().config.uring_depth, 128u);
  EXPECT_FALSE(parsed.value().config.large_write_bypass);

  const std::string rendered = format_mount_options(parsed.value());
  EXPECT_NE(rendered.find("io_engine=uring"), std::string::npos);
  EXPECT_NE(rendered.find("uring_depth=128"), std::string::npos);
  EXPECT_NE(rendered.find("no_bypass"), std::string::npos);

  auto reparsed = parse_mount_options(rendered);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed.value().config.io_engine, IoEngineKind::kUring);
  EXPECT_EQ(reparsed.value().config.uring_depth, 128u);
  EXPECT_FALSE(reparsed.value().config.large_write_bypass);
}

TEST(IoEngineOptions, DefaultsAreSyncWithBypass) {
  auto parsed = parse_mount_options("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().config.io_engine, IoEngineKind::kSync);
  EXPECT_EQ(parsed.value().config.uring_depth, 64u);
  EXPECT_TRUE(parsed.value().config.large_write_bypass);
  const std::string rendered = format_mount_options(parsed.value());
  EXPECT_EQ(rendered.find("io_engine"), std::string::npos);
  EXPECT_EQ(rendered.find("no_bypass"), std::string::npos);
}

TEST(IoEngineOptions, RejectsBadValues) {
  EXPECT_FALSE(parse_mount_options("io_engine=epoll").ok());
  EXPECT_FALSE(parse_mount_options("uring_depth=0").ok());
  EXPECT_FALSE(parse_mount_options("uring_depth=99999").ok());
}

TEST(IoEngineOptions, DescribeShowsEngineAndBypass) {
  Config cfg;
  cfg.io_engine = IoEngineKind::kUring;
  cfg.uring_depth = 32;
  cfg.large_write_bypass = false;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("io_engine=uring(depth=32)"), std::string::npos);
  EXPECT_NE(d.find("no_bypass"), std::string::npos);
}

// ------------------------------------------------------- sync fallback

TEST(IoEngineFallback, ForcedSyncKeepsPipelineGreen) {
  ForceSyncEnv force;
  TempDir dir("forced_sync");
  auto backend = PosixBackend::create(dir.path().string());
  ASSERT_TRUE(backend.ok());

  Config cfg;
  cfg.chunk_size = 16 * KiB;
  cfg.pool_size = 8 * 16 * KiB;
  cfg.io_engine = IoEngineKind::kUring;  // requested, but forced to sync
  auto fs = Crfs::mount(std::move(backend.value()), cfg);
  ASSERT_TRUE(fs.ok());
  EXPECT_STREQ(fs.value()->active_io_engine(), "sync");

  // The fallback mount still moves data end to end.
  auto h = fs.value()->open("f.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  const std::string payload(40 * KiB, 'q');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(payload), 0).ok());
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
  EXPECT_EQ(read_file(dir.path() / "f.bin"), payload);

  // stats_json reports both what was asked for and what runs.
  const std::string json = fs.value()->stats_json();
  EXPECT_NE(json.find("\"io_engine\":\"sync\""), std::string::npos);
  EXPECT_NE(json.find("\"io_engine_requested\":\"uring\""), std::string::npos);
}

TEST(IoEngineFallback, MakeIoEngineNeverReturnsNull) {
  ForceSyncEnv force;
  MemBackend mem;
  auto eng = make_io_engine(IoEngineOptions{.requested = IoEngineKind::kUring},
                            mem, {}, {}, [](IoRun, Status, std::uint64_t, std::uint64_t) {});
  ASSERT_NE(eng, nullptr);
  EXPECT_STREQ(eng->name(), "sync");
}

// ------------------------------------------------- sync/uring identity

// Runs the same seeded workload (multiple files, sequential streams,
// overwrites, interleaved handles) against a sync mount and a
// uring-requested mount over two real directories, then compares the
// backend byte for byte. This is the core "the async engine changes the
// plumbing, not the contents" guarantee.
TEST(IoEngineIdentity, SyncAndUringProduceByteIdenticalFiles) {
  TempDir sync_dir("ident_sync");
  TempDir uring_dir("ident_uring");

  const auto run = [](const std::filesystem::path& root, IoEngineKind kind) -> std::string {
    auto backend = PosixBackend::create(root.string());
    EXPECT_TRUE(backend.ok());
    Config cfg;
    cfg.chunk_size = 4 * KiB;  // small chunks: deep pipelines, many runs
    cfg.pool_size = 8 * 4 * KiB;
    cfg.io_threads = 2;
    cfg.io_engine = kind;
    cfg.uring_depth = 8;
    auto fs = Crfs::mount(std::move(backend.value()), cfg);
    EXPECT_TRUE(fs.ok());

    constexpr int kFiles = 4;
    std::vector<Crfs::FileHandle> handles(kFiles);
    std::vector<std::uint64_t> cursor(kFiles, 0);
    for (int f = 0; f < kFiles; ++f) {
      auto h = fs.value()->open("file" + std::to_string(f),
                                {.create = true, .truncate = true, .write = true});
      EXPECT_TRUE(h.ok());
      handles[f] = h.value();
    }
    Rng rng(20260806);
    for (int op = 0; op < 800; ++op) {
      const int f = static_cast<int>(rng.next_below(kFiles));
      const std::size_t len = rng.uniform(1, 12 * KiB);
      std::string data(len, '\0');
      for (auto& c : data) c = static_cast<char>('a' + rng.next_below(26));
      std::uint64_t off = cursor[f];
      if (cursor[f] > 0 && rng.bernoulli(0.15)) {
        off = rng.next_below(cursor[f]);  // overwrite inside written range
      }
      EXPECT_TRUE(fs.value()->write(handles[f], as_bytes(data), off).ok());
      if (off + len > cursor[f]) cursor[f] = off + len;
    }
    std::string engine = fs.value()->active_io_engine();
    for (int f = 0; f < kFiles; ++f) EXPECT_TRUE(fs.value()->close(handles[f]).ok());
    return engine;
  };

  run(sync_dir.path(), IoEngineKind::kSync);
  const std::string uring_engine = run(uring_dir.path(), IoEngineKind::kUring);

  for (int f = 0; f < 4; ++f) {
    const std::string name = "file" + std::to_string(f);
    const std::string a = read_file(sync_dir.path() / name);
    const std::string b = read_file(uring_dir.path() / name);
    ASSERT_EQ(a.size(), b.size()) << name;
    EXPECT_TRUE(a == b) << name << " diverges (uring engine ran as '" << uring_engine << "')";
  }
}

// Same identity under concurrent writer threads, each with its own file.
TEST(IoEngineIdentity, ConcurrentStreamsUringByteExact) {
  TempDir dir("conc_uring");
  auto backend = PosixBackend::create(dir.path().string());
  ASSERT_TRUE(backend.ok());
  Config cfg;
  cfg.chunk_size = 4 * KiB;
  cfg.pool_size = 16 * 4 * KiB;
  cfg.io_threads = 2;
  cfg.io_engine = IoEngineKind::kUring;
  cfg.uring_depth = 16;
  auto fs = Crfs::mount(std::move(backend.value()), cfg);
  ASSERT_TRUE(fs.ok());

  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 200;
  std::vector<std::string> expect(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = fs.value()->open("stream" + std::to_string(t),
                                {.create = true, .truncate = true, .write = true});
      ASSERT_TRUE(h.ok());
      Rng rng(1000 + t);
      std::string& exp = expect[t];
      for (int i = 0; i < kWritesPerThread; ++i) {
        const std::size_t len = rng.uniform(100, 6000);
        std::string data(len, static_cast<char>('A' + (i % 26)));
        ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(data), exp.size()).ok());
        exp += data;
      }
      ASSERT_TRUE(fs.value()->close(h.value()).ok());
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(read_file(dir.path() / ("stream" + std::to_string(t))), expect[t]) << t;
  }
}

// ------------------------------------------------ last writer wins

// Holds a file's first chunk write (pwrite or pwritev) until another
// write to that file has finished, or 200 ms pass: the schedule in which a
// second IO thread lands a newer chunk before an older one.
class HoldFirstWriteBackend final : public BackendFs {
 public:
  explicit HoldFirstWriteBackend(std::shared_ptr<BackendFs> inner) : inner_(std::move(inner)) {}

  Status pwrite(BackendFile f, std::span<const std::byte> d, std::uint64_t off) override {
    return held(f, [&] { return inner_->pwrite(f, d, off); });
  }
  Status pwritev(BackendFile f, std::span<const BackendIoVec> iov, std::uint64_t off) override {
    return held(f, [&] { return inner_->pwritev(f, iov, off); });
  }
  Result<BackendFile> open_file(const std::string& p, OpenFlags fl) override {
    return inner_->open_file(p, fl);
  }
  Status close_file(BackendFile f) override { return inner_->close_file(f); }
  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    return inner_->pread(f, d, off);
  }
  Status fsync(BackendFile f) override { return inner_->fsync(f); }
  Status truncate(BackendFile f, std::uint64_t s) override { return inner_->truncate(f, s); }
  Result<BackendStat> stat(const std::string& p) override { return inner_->stat(p); }
  Status mkdir(const std::string& p) override { return inner_->mkdir(p); }
  Status rmdir(const std::string& p) override { return inner_->rmdir(p); }
  Status unlink(const std::string& p) override { return inner_->unlink(p); }
  Status rename(const std::string& a, const std::string& b) override {
    return inner_->rename(a, b);
  }
  Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_->list_dir(p);
  }
  std::string name() const override { return "hold_first(" + inner_->name() + ")"; }

 private:
  template <typename Write>
  Status held(BackendFile f, Write write) {
    std::unique_lock lock(mu_);
    if (started_.insert(f).second) {
      cv_.wait_for(lock, std::chrono::milliseconds(200), [&] { return finished_[f] > 0; });
    }
    lock.unlock();
    const Status st = write();
    lock.lock();
    finished_[f] += 1;
    cv_.notify_all();
    return st;
  }

  std::shared_ptr<BackendFs> inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<BackendFile> started_;
  std::map<BackendFile, int> finished_;
};

// An overwrite queued while the chunk it overwrites is still in flight on
// one IO thread must not be written first by the other IO thread.
TEST(LastWriterWins, OverwriteNeverLandsBeforeTheChunkItOverwrites) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 4 * KiB;
  cfg.pool_size = 8 * 4 * KiB;
  cfg.io_threads = 2;
  cfg.io_batch = 1;  // one chunk per dequeue: each IO thread takes one
  cfg.large_write_bypass = false;
  auto fs = Crfs::mount(std::make_shared<HoldFirstWriteBackend>(mem), cfg);
  ASSERT_TRUE(fs.ok());
  auto h = fs.value()->open("f.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  const std::string older(4 * KiB, 'a');
  const std::string newer(4 * KiB, 'b');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(older), 0).ok());  // full: queued, held
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(newer), 0).ok());  // overwrite
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
  auto content = mem->contents("f.bin");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(content.value().data()),
                        content.value().size()),
            newer);
}

// ------------------------------------------------- engine error paths

// FaultyBackend hides its fd (raw_fd == -1), so a uring-requested mount
// routes its runs through the synchronous engine path — injected faults
// keep applying, and a submission-level failure must mark the sticky
// FileEntry error exactly once per chunk, surfaced exactly once at close.
TEST(IoEngineErrors, FaultySubmissionMarksStickyErrorOncePerChunk) {
  auto mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(mem);
  Config cfg;
  cfg.chunk_size = 4096;
  cfg.pool_size = 8 * 4096;
  cfg.io_engine = IoEngineKind::kUring;
  cfg.large_write_bypass = false;  // pin the queued-chunk path
  auto fs = Crfs::mount(faulty, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("sticky.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  faulty->fail_writes_after(0);  // every backend write fails EIO
  std::vector<std::byte> data(3 * 4096, std::byte{7});  // three full chunks
  ASSERT_TRUE(fs.value()->write(h.value(), data, 0).ok());  // buffering succeeds
  const Status st = fs.value()->close(h.value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, EIO);

  // Sticky error reported once: a fresh handle on the same path is clean.
  faulty->fail_writes_after(-1);
  auto h2 = fs.value()->open("sticky.bin", {.create = true, .truncate = false, .write = true});
  ASSERT_TRUE(h2.ok());
  EXPECT_TRUE(fs.value()->close(h2.value()).ok());

  // Every failed chunk was counted (once per chunk, not once per run).
  const auto snap = fs.value()->metrics().snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "crfs.io.pwrite_errors") {
      found = true;
      EXPECT_GE(value, 1u);
    }
  }
  EXPECT_TRUE(found);
}

// Drives the uring engine directly (no pool/queue) against a read-only
// backend fd: the CQE carries -EBADF, which must come back through the
// completion callback as a Status error.
TEST(IoEngineErrors, UringCompletionCarriesBackendErrno) {
  TempDir dir("cqe_err");
  auto backend = PosixBackend::create(dir.path().string());
  ASSERT_TRUE(backend.ok());
  auto& b = *backend.value();

  // Create the file, then open read-only: pwrite via SQE must fail.
  auto wf = b.open_file("ro.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE(b.close_file(wf.value()).ok());
  auto rf = b.open_file("ro.bin", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(rf.ok());

  Status got;
  int completions = 0;
  auto eng = make_uring_engine(4, b, {},
                               {}, [&](IoRun, Status st, std::uint64_t, std::uint64_t) {
                                 got = std::move(st);
                                 completions += 1;
                               });
  if (eng == nullptr) GTEST_SKIP() << "io_uring unavailable on this kernel";

  auto file = std::make_shared<FileEntry>("ro.bin", rf.value());
  auto chunk = std::make_unique<Chunk>(4096);
  chunk->reset(0);
  const std::string payload(4096, 'x');
  chunk->append(as_bytes(payload));

  IoRun run;
  run.offset = 0;
  run.total = chunk->fill();
  run.jobs.push_back(WriteJob{file, std::move(chunk), nullptr});
  eng->submit(std::move(run));
  eng->flush();
  eng->reap(/*wait=*/true);

  ASSERT_EQ(completions, 1);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, EBADF);
  ASSERT_TRUE(b.close_file(rf.value()).ok());
}

// ------------------------------------------------- large-write bypass

TEST(LargeWriteBypass, ChunkSizedWriteSkipsThePool) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 64 * KiB;
  cfg.pool_size = 4 * 64 * KiB;
  auto fs = Crfs::mount(mem, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("big.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::string payload(128 * KiB, 'B');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(payload), 0).ok());

  // Bypassed: already durable, nothing buffered, no chunks consumed.
  auto contents = mem->contents("big.bin");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().size(), payload.size());
  EXPECT_EQ(fs.value()->metrics().counter("crfs.mount.bypass_writes").value(), 1u);
  EXPECT_EQ(fs.value()->buffer_pool().in_use_chunks(), 0u);

  const auto snap = fs.value()->metrics().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "crfs.write.bypass_bytes") {
      EXPECT_EQ(value, payload.size());
    }
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

TEST(LargeWriteBypass, MixedSmallAndLargeWritesStayOrdered) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 16 * KiB;
  cfg.pool_size = 4 * 16 * KiB;
  auto fs = Crfs::mount(mem, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("mix.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::string expect;
  Rng rng(42);
  for (int i = 0; i < 40; ++i) {
    const bool large = rng.bernoulli(0.3);
    const std::size_t len = large ? 16 * KiB + rng.next_below(16 * KiB)
                                  : 1 + rng.next_below(4 * KiB);
    std::string data(len, static_cast<char>('a' + (i % 26)));
    ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(data), expect.size()).ok());
    expect += data;
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());

  auto contents = mem->contents("mix.bin");
  ASSERT_TRUE(contents.ok());
  const std::string got(reinterpret_cast<const char*>(contents.value().data()),
                        contents.value().size());
  EXPECT_TRUE(got == expect);
  // With a partial chunk parked, large writes take the aggregation path
  // (current != nullptr) — but at least some fell on a clean append point.
  EXPECT_GT(fs.value()->metrics().counter("crfs.mount.bypass_writes").value(), 0u);
}

TEST(LargeWriteBypass, OverwriteBelowHighWaterMarkAggregates) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 8 * KiB;
  cfg.pool_size = 4 * 8 * KiB;
  auto fs = Crfs::mount(mem, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("ow.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  const std::string first(32 * KiB, '1');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(first), 0).ok());
  EXPECT_EQ(fs.value()->metrics().counter("crfs.mount.bypass_writes").value(), 1u);

  // Rewriting inside the already-written range must NOT bypass: ordering
  // against queued chunks for those bytes is only guaranteed on the
  // aggregation path.
  const std::string second(16 * KiB, '2');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(second), 8 * KiB).ok());
  EXPECT_EQ(fs.value()->metrics().counter("crfs.mount.bypass_writes").value(), 1u);  // unchanged
  ASSERT_TRUE(fs.value()->close(h.value()).ok());

  auto contents = mem->contents("ow.bin");
  ASSERT_TRUE(contents.ok());
  const std::string got(reinterpret_cast<const char*>(contents.value().data()),
                        contents.value().size());
  ASSERT_EQ(got.size(), first.size());
  EXPECT_EQ(got.substr(0, 8 * KiB), first.substr(0, 8 * KiB));
  EXPECT_EQ(got.substr(8 * KiB, 16 * KiB), second);
  EXPECT_EQ(got.substr(24 * KiB), first.substr(24 * KiB));
}

TEST(LargeWriteBypass, NoBypassOptionDisablesIt) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 16 * KiB;
  cfg.pool_size = 4 * 16 * KiB;
  cfg.large_write_bypass = false;
  auto fs = Crfs::mount(mem, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("nb.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::string payload(64 * KiB, 'N');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(payload), 0).ok());
  EXPECT_EQ(fs.value()->metrics().counter("crfs.mount.bypass_writes").value(), 0u);
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
  auto contents = mem->contents("nb.bin");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().size(), payload.size());
}

// --------------------------------------------------- in-flight depth

// The structural win the async engine exists for: one submitter (in
// production, one IO thread) keeps many backend writes in flight. The
// sync engine completes inline — depth can never exceed 1 per thread —
// while the uring engine holds every submitted run in the ring until
// reaped. Driving the engine directly (submit six runs, then flush,
// then reap) makes the depth observation deterministic: nothing
// completes until we ask, so inflight() and the crfs.io.inflight_depth
// histogram must both see all six, regardless of scheduler timing.
TEST(IoEngineDepth, UringSustainsDepthBeyondIoThreads) {
  TempDir dir("depth");
  auto backend = PosixBackend::create(dir.path().string());
  ASSERT_TRUE(backend.ok());
  auto& b = *backend.value();
  auto f = b.open_file("deep.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());

  obs::Registry reg;
  IoEngineObs obs;
  obs.inflight_depth = &reg.histogram("crfs.io.inflight_depth");
  int completions = 0;
  auto eng = make_uring_engine(
      8, b, {}, obs, [&](IoRun, Status st, std::uint64_t, std::uint64_t) {
        EXPECT_TRUE(st.ok()) << st.error().to_string();
        completions += 1;
      });
  if (eng == nullptr) GTEST_SKIP() << "io_uring unavailable on this kernel";

  // Six non-adjacent 4 KiB stripes: each is its own run (no coalescing
  // possible), submitted back to back with no reap in between.
  constexpr int kRuns = 6;
  auto file = std::make_shared<FileEntry>("deep.bin", f.value());
  std::string expect(static_cast<std::size_t>(kRuns - 1) * 8 * KiB + 4 * KiB, '\0');
  for (int i = 0; i < kRuns; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * 8 * KiB;
    const std::string stripe(4 * KiB, static_cast<char>('a' + i));
    expect.replace(off, stripe.size(), stripe);
    auto chunk = std::make_unique<Chunk>(4 * KiB);
    chunk->reset(off);
    chunk->append(as_bytes(stripe));
    IoRun run;
    run.offset = off;
    run.total = chunk->fill();
    run.jobs.push_back(WriteJob{file, std::move(chunk), nullptr});
    eng->submit(std::move(run));
  }
  eng->flush();
  EXPECT_EQ(eng->inflight(), static_cast<std::size_t>(kRuns))
      << "submitted runs should stay in flight until reaped";

  while (eng->inflight() > 0) eng->reap(/*wait=*/true);
  EXPECT_EQ(completions, kRuns);

  const auto snap = reg.snapshot();
  bool found = false;
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "crfs.io.inflight_depth") {
      found = true;
      EXPECT_GE(hist.max, static_cast<std::uint64_t>(kRuns))
          << "ring depth never reached the number of unreaped submissions";
    }
  }
  EXPECT_TRUE(found);

  eng.reset();  // drop the registered-fd slot before closing
  ASSERT_TRUE(b.close_file(f.value()).ok());
  EXPECT_EQ(read_file(dir.path() / "deep.bin"), expect);
}

}  // namespace
}  // namespace crfs
