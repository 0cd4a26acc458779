// Behavioural tests for the Crfs filesystem class: aggregation semantics,
// close/fsync durability contract, passthrough operations, error
// propagation, and the paper's §IV invariants.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/null_backend.h"
#include "backend/wrappers.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "crfs/crfs.h"

namespace crfs {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

class CrfsBasic : public ::testing::Test {
 protected:
  void SetUp() override { remount(Config{.chunk_size = 4096, .pool_size = 4 * 4096}); }

  void remount(Config cfg) {
    fs_.reset();
    mem_ = std::make_shared<MemBackend>();
    auto fs = Crfs::mount(mem_, cfg);
    ASSERT_TRUE(fs.ok()) << fs.error().to_string();
    fs_ = std::move(fs.value());
  }

  std::string backend_content(const std::string& path) {
    auto c = mem_->contents(path);
    if (!c.ok()) return "<missing>";
    return {reinterpret_cast<const char*>(c.value().data()), c.value().size()};
  }

  std::shared_ptr<MemBackend> mem_;
  std::unique_ptr<Crfs> fs_;
};

TEST_F(CrfsBasic, MountRejectsBadConfig) {
  auto bad = Crfs::mount(std::make_shared<MemBackend>(),
                         Config{.chunk_size = 0, .pool_size = 4096});
  EXPECT_FALSE(bad.ok());
  auto bad2 = Crfs::mount(std::make_shared<MemBackend>(),
                          Config{.chunk_size = 4096, .pool_size = 4096, .io_threads = 0});
  EXPECT_FALSE(bad2.ok());
  auto bad3 = Crfs::mount(nullptr, Config{});
  EXPECT_FALSE(bad3.ok());
}

TEST_F(CrfsBasic, WriteCloseLandsInBackend) {
  auto h = fs_->open("ckpt.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("checkpoint data"), 0).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(backend_content("ckpt.img"), "checkpoint data");
}

TEST_F(CrfsBasic, SmallWritesCoalesceIntoOneBackendWrite) {
  auto h = fs_->open("agg.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  // 64 x 32B = 2 KB, well under the 4 KB chunk: exactly one backend pwrite
  // should be issued, at close.
  std::string expect;
  for (int i = 0; i < 64; ++i) {
    const std::string piece(32, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(fs_->write(h.value(), as_bytes(piece), expect.size()).ok());
    expect += piece;
  }
  EXPECT_EQ(mem_->total_pwrites(), 0u);  // still buffered
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(mem_->total_pwrites(), 1u);
  EXPECT_EQ(backend_content("agg.bin"), expect);
  obs::Registry& m = fs_->metrics();
  EXPECT_EQ(m.counter("crfs.mount.app_writes").value(), 64u);
  EXPECT_EQ(m.counter("crfs.mount.partial_flushes").value(), 1u);
  EXPECT_EQ(m.counter("crfs.mount.full_flushes").value(), 0u);
}

TEST_F(CrfsBasic, FullChunksFlushEagerly) {
  // no_bypass: this test is about eager flushing of full aggregation
  // chunks; with the default large-write bypass a 3-chunk write goes
  // straight to the backend instead (covered in test_io_pool.cpp).
  remount(Config{.chunk_size = 4096, .pool_size = 4 * 4096, .large_write_bypass = false});
  auto h = fs_->open("full.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> data(4096 * 3, std::byte{0x5A});  // exactly 3 chunks
  ASSERT_TRUE(fs_->write(h.value(), data, 0).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  obs::Registry& m = fs_->metrics();
  EXPECT_EQ(m.counter("crfs.mount.full_flushes").value(), 3u);
  EXPECT_EQ(m.counter("crfs.mount.partial_flushes").value(), 0u);
  EXPECT_EQ(mem_->total_pwritten_bytes(), data.size());
}

TEST_F(CrfsBasic, WriteLargerThanPoolStreamsThrough) {
  // 64 KB write through a 16 KB pool of 4 KB chunks: backpressure recycles
  // chunks; all data must land.
  auto h = fs_->open("big.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> data(64 * 1024);
  Rng r(1);
  for (auto& b : data) b = static_cast<std::byte>(r.next_u64());
  ASSERT_TRUE(fs_->write(h.value(), data, 0).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  auto out = mem_->contents("big.bin");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), data.size());
  EXPECT_EQ(Crc64::of(out.value().data(), out.value().size()),
            Crc64::of(data.data(), data.size()));
}

TEST_F(CrfsBasic, NonContiguousWriteFlushesAndRestarts) {
  auto h = fs_->open("sparse.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("head"), 0).ok());
  // Jump far forward: current chunk must be flushed, new chunk at 1000.
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("tail"), 1000).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  const std::string content = backend_content("sparse.bin");
  ASSERT_EQ(content.size(), 1004u);
  EXPECT_EQ(content.substr(0, 4), "head");
  EXPECT_EQ(content.substr(1000), "tail");
  EXPECT_EQ(content[500], '\0');
  EXPECT_GE(fs_->metrics().counter("crfs.mount.partial_flushes").value(), 2u);
}

TEST_F(CrfsBasic, BackwardOverwriteIsHonoured) {
  auto h = fs_->open("ow.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("XXXXXXXXXX"), 0).ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("ab"), 2).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(backend_content("ow.bin"), "XXabXXXXXX");
}

TEST_F(CrfsBasic, FsyncFlushesBufferedDataAndSyncsBackend) {
  auto h = fs_->open("sync.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("durable"), 0).ok());
  EXPECT_EQ(mem_->total_pwrites(), 0u);
  ASSERT_TRUE(fs_->fsync(h.value()).ok());
  // Paper §IV-D2: enqueue current chunk, wait, then fsync the backend.
  EXPECT_EQ(backend_content("sync.bin"), "durable");
  EXPECT_EQ(mem_->fsync_count("sync.bin"), 1u);
  // Writing continues after fsync.
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("!more"), 7).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(backend_content("sync.bin"), "durable!more");
}

TEST_F(CrfsBasic, CloseIsDurabilityBarrier) {
  // Paper §IV-C: close blocks until complete == write chunk counts.
  auto h = fs_->open("barrier.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> data(40 * 1024, std::byte{7});
  ASSERT_TRUE(fs_->write(h.value(), data, 0).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  // After close returns, every byte is in the backend, no pending data.
  EXPECT_EQ(mem_->contents("barrier.bin").value().size(), data.size());
  EXPECT_EQ(fs_->queue_depth(), 0u);
  EXPECT_EQ(fs_->open_files(), 0u);
}

TEST_F(CrfsBasic, ReadPassesThroughToBackend) {
  {
    auto h = fs_->open("r.bin", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fs_->write(h.value(), as_bytes("restart image"), 0).ok());
    ASSERT_TRUE(fs_->close(h.value()).ok());
  }
  auto h = fs_->open("r.bin", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(7);
  auto n = fs_->read(h.value(), buf, 8);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 5u);
  EXPECT_EQ(std::memcmp(buf.data(), "image", 5), 0);
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(fs_->metrics().counter("crfs.read.ops").value(), 1u);
}

TEST_F(CrfsBasic, FlushBeforeReadSeesBufferedData) {
  // Default config: read() observes prior writes even if still buffered.
  auto h = fs_->open("rw.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("visible"), 0).ok());
  std::vector<std::byte> buf(7);
  auto n = fs_->read(h.value(), buf, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 7u);
  EXPECT_EQ(std::memcmp(buf.data(), "visible", 7), 0);
  ASSERT_TRUE(fs_->close(h.value()).ok());
}

TEST_F(CrfsBasic, PaperFaithfulReadModeSkipsFlush) {
  remount(Config{.chunk_size = 4096, .pool_size = 4 * 4096, .flush_before_read = false});
  auto h = fs_->open("pf.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("buffered"), 0).ok());
  std::vector<std::byte> buf(8);
  auto n = fs_->read(h.value(), buf, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);  // backend file still empty: pure passthrough
  ASSERT_TRUE(fs_->close(h.value()).ok());
}

TEST_F(CrfsBasic, SharedOpenRefcounts) {
  // Paper §IV-A: reopening bumps the entry's reference counter.
  auto h1 = fs_->open("shared.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h1.ok());
  auto h2 = fs_->open("shared.bin", {.create = false, .truncate = false, .write = true});
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(fs_->open_files(), 1u);  // one table entry
  EXPECT_EQ(fs_->metrics().counter("crfs.mount.reopens").value(), 1u);

  ASSERT_TRUE(fs_->write(h1.value(), as_bytes("one"), 0).ok());
  ASSERT_TRUE(fs_->close(h1.value()).ok());
  EXPECT_EQ(fs_->open_files(), 1u);  // still referenced by h2
  ASSERT_TRUE(fs_->write(h2.value(), as_bytes("two"), 3).ok());
  ASSERT_TRUE(fs_->close(h2.value()).ok());
  EXPECT_EQ(fs_->open_files(), 0u);
  EXPECT_EQ(backend_content("shared.bin"), "onetwo");
}

TEST_F(CrfsBasic, GetattrReportsBufferedSize) {
  auto h = fs_->open("sz.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("0123456789"), 0).ok());
  auto st = fs_->getattr("sz.bin");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 10u);  // buffered but visible via size_seen
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(fs_->getattr("sz.bin").value().size, 10u);
}

TEST_F(CrfsBasic, MetadataOpsPassThrough) {
  ASSERT_TRUE(fs_->mkdir("dir").ok());
  ASSERT_TRUE(fs_->mkdir("dir/sub").ok());
  auto h = fs_->open("dir/f", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  auto ls = fs_->list_dir("dir");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls.value().size(), 2u);
  ASSERT_TRUE(fs_->unlink("dir/f").ok());
  ASSERT_TRUE(fs_->rmdir("dir/sub").ok());
  ASSERT_TRUE(fs_->rmdir("dir").ok());
  EXPECT_FALSE(fs_->getattr("dir").ok());
}

TEST_F(CrfsBasic, RenameFlushesBufferedDataFirst) {
  auto h = fs_->open("tmp.ckpt", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("atomic publish"), 0).ok());
  ASSERT_TRUE(fs_->rename("tmp.ckpt", "final.ckpt").ok());
  EXPECT_EQ(backend_content("final.ckpt"), "atomic publish");
  ASSERT_TRUE(fs_->close(h.value()).ok());
}

TEST_F(CrfsBasic, TruncateOpenFileDropsData) {
  auto h = fs_->open("tr.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("0123456789"), 0).ok());
  ASSERT_TRUE(fs_->truncate("tr.bin", 4).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(backend_content("tr.bin"), "0123");
  EXPECT_EQ(fs_->getattr("tr.bin").value().size, 4u);
}

TEST_F(CrfsBasic, TruncateOnReopenDiscardsBufferedData) {
  auto h1 = fs_->open("reopen.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(fs_->write(h1.value(), as_bytes("stale"), 0).ok());
  // Second open with O_TRUNC while first still open.
  auto h2 = fs_->open("reopen.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(fs_->write(h2.value(), as_bytes("fresh"), 0).ok());
  ASSERT_TRUE(fs_->close(h1.value()).ok());
  ASSERT_TRUE(fs_->close(h2.value()).ok());
  EXPECT_EQ(backend_content("reopen.bin"), "fresh");
}

TEST_F(CrfsBasic, OperationsOnBadHandleFail) {
  EXPECT_FALSE(fs_->write(9999, as_bytes("x"), 0).ok());
  std::vector<std::byte> buf(1);
  EXPECT_FALSE(fs_->read(9999, buf, 0).ok());
  EXPECT_FALSE(fs_->fsync(9999).ok());
  EXPECT_FALSE(fs_->close(9999).ok());
}

TEST_F(CrfsBasic, WriteOnReadOnlyHandleFails) {
  {
    auto h = fs_->open("ro.bin", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fs_->close(h.value()).ok());
  }
  auto h = fs_->open("ro.bin", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  auto st = fs_->write(h.value(), as_bytes("nope"), 0);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, EBADF);
  ASSERT_TRUE(fs_->close(h.value()).ok());
}

TEST_F(CrfsBasic, DoubleCloseFails) {
  auto h = fs_->open("dc.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_FALSE(fs_->close(h.value()).ok());
}

TEST_F(CrfsBasic, ClosedHandleStaysInvalidAfterReopen) {
  auto h1 = fs_->open("first.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(fs_->write(h1.value(), as_bytes("first"), 0).ok());
  ASSERT_TRUE(fs_->close(h1.value()).ok());

  // A second open must not bring the closed handle back to life, whatever
  // value the new handle takes.
  auto h2 = fs_->open("second.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(fs_->write(h2.value(), as_bytes("second"), 0).ok());

  const auto expect_ebadf = [](const Status& st) {
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, EBADF);
  };
  expect_ebadf(fs_->write(h1.value(), as_bytes("stale"), 0));
  std::vector<std::byte> buf(8);
  auto r = fs_->read(h1.value(), buf, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, EBADF);
  expect_ebadf(fs_->fsync(h1.value()));
  expect_ebadf(fs_->close(h1.value()));

  ASSERT_TRUE(fs_->close(h2.value()).ok());
  EXPECT_EQ(backend_content("first.bin"), "first");
  EXPECT_EQ(backend_content("second.bin"), "second");
}

TEST_F(CrfsBasic, MoreThan1024HandlesOpenAtOnce) {
  constexpr int kHandles = 1100;
  // A chunk per file keeps every record parked in its own chunk until the
  // close; with fewer, each write past the pool steals one (see
  // ExhaustedPoolStealsWithoutParkingFirst).
  remount(Config{.chunk_size = 4096, .pool_size = 2048 * 4096});
  std::vector<Crfs::FileHandle> handles;
  handles.reserve(kHandles);
  for (int i = 0; i < kHandles; ++i) {
    auto h = fs_->open("many_" + std::to_string(i),
                       {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok()) << i;
    handles.push_back(h.value());
  }
  for (int i = 0; i < kHandles; ++i) {
    ASSERT_TRUE(fs_->write(handles[i], as_bytes("file " + std::to_string(i)), 0).ok()) << i;
  }
  for (int i = 0; i < kHandles; ++i) {
    const std::string want = "file " + std::to_string(i);
    std::vector<std::byte> buf(want.size());
    auto r = fs_->read(handles[i], buf, 0);
    ASSERT_TRUE(r.ok()) << i;
    ASSERT_EQ(r.value(), want.size()) << i;
    EXPECT_EQ(std::memcmp(buf.data(), want.data(), want.size()), 0) << i;
  }
  for (int i = 0; i < kHandles; ++i) ASSERT_TRUE(fs_->close(handles[i]).ok()) << i;
  EXPECT_EQ(backend_content("many_0"), "file 0");
  EXPECT_EQ(backend_content("many_1099"), "file 1099");
}

TEST_F(CrfsBasic, ExhaustedPoolStealsWithoutParkingFirst) {
  // The fixture's pool holds 4 chunks of 4 KiB. Past the fourth file every
  // chunk is parked as another open file's partial chunk, with nothing
  // queued or in flight: each write must steal one at once, not first
  // park on a pool that nothing will refill.
  constexpr int kFiles = 200;
  std::vector<Crfs::FileHandle> handles;
  for (int i = 0; i < kFiles; ++i) {
    auto h = fs_->open("steal_" + std::to_string(i),
                       {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok()) << i;
    handles.push_back(h.value());
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs_->write(handles[i], as_bytes("rec " + std::to_string(i)), 0).ok()) << i;
  }
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::seconds(1))
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count() << " ms";
  for (int i = 0; i < kFiles; ++i) ASSERT_TRUE(fs_->close(handles[i]).ok()) << i;
  EXPECT_EQ(backend_content("steal_0"), "rec 0");
  EXPECT_EQ(backend_content("steal_199"), "rec 199");
  EXPECT_GE(fs_->metrics().counter("crfs.mount.chunk_steals").value(), kFiles - 4u);
}

TEST_F(CrfsBasic, UnmountFlushesLeakedHandles) {
  auto h = fs_->open("leak.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("do not lose me"), 0).ok());
  fs_.reset();  // unmount without close
  EXPECT_EQ(backend_content("leak.bin"), "do not lose me");
}

TEST_F(CrfsBasic, EmptyFileCloseWritesNothing) {
  auto h = fs_->open("empty.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(mem_->total_pwrites(), 0u);
  EXPECT_EQ(backend_content("empty.bin"), "");
}

TEST_F(CrfsBasic, ZeroByteWriteIsNoop) {
  auto h = fs_->open("z.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), {}, 0).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
  EXPECT_EQ(mem_->total_pwrites(), 0u);
}

// ----------------------------------------------------- error propagation

TEST(CrfsErrors, AsyncWriteErrorSurfacesAtClose) {
  auto mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(mem);
  // no_bypass pins the asynchronous error path: with the bypass a
  // 2-chunk write would fail synchronously at write() instead.
  auto fs = Crfs::mount(faulty, Config{.chunk_size = 4096, .pool_size = 4 * 4096,
                                       .large_write_bypass = false});
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("err.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  faulty->fail_writes_after(0);
  std::vector<std::byte> data(8192, std::byte{1});  // two full chunks -> async writes
  ASSERT_TRUE(fs.value()->write(h.value(), data, 0).ok());  // buffering succeeds
  const Status st = fs.value()->close(h.value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, EIO);
}

TEST(CrfsErrors, AsyncWriteErrorSurfacesAtFsync) {
  auto mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(mem);
  auto fs = Crfs::mount(faulty, Config{.chunk_size = 4096, .pool_size = 4 * 4096});
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("err2.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  faulty->fail_writes_after(0);
  ASSERT_TRUE(fs.value()->write(h.value(), std::vector<std::byte>(100, std::byte{2}), 0).ok());
  const Status st = fs.value()->fsync(h.value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, EIO);
  // Error reported once; a later close without further failures is clean
  // apart from any still-buffered data failing again.
  faulty->fail_writes_after(-1);
  EXPECT_TRUE(fs.value()->close(h.value()).ok());
}

TEST(CrfsErrors, FsyncBackendFailurePropagates) {
  auto mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(mem);
  auto fs = Crfs::mount(faulty, Config{.chunk_size = 4096, .pool_size = 4 * 4096});
  ASSERT_TRUE(fs.ok());
  auto h = fs.value()->open("err3.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  faulty->fail_fsync(true);
  EXPECT_FALSE(fs.value()->fsync(h.value()).ok());
  faulty->fail_fsync(false);
  EXPECT_TRUE(fs.value()->close(h.value()).ok());
}

TEST(CrfsErrors, OpenFailurePropagates) {
  auto mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(mem);
  auto fs = Crfs::mount(faulty, Config{.chunk_size = 4096, .pool_size = 4 * 4096});
  ASSERT_TRUE(fs.ok());
  faulty->fail_open(true);
  auto h = fs.value()->open("nope", {.create = true, .truncate = true, .write = true});
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.error().code, EACCES);
  EXPECT_EQ(fs.value()->open_files(), 0u);  // no stale table entry
}

// -------------------------------------------------------- NullBackend fit

TEST(CrfsNull, DiscardModeCountsAllBytes) {
  auto null = std::make_shared<NullBackend>();
  auto fs = Crfs::mount(null, Config{.chunk_size = 64 * 1024, .pool_size = 512 * 1024});
  ASSERT_TRUE(fs.ok());
  auto h = fs.value()->open("sink", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> data(1 * MiB, std::byte{0xEE});
  ASSERT_TRUE(fs.value()->write(h.value(), data, 0).ok());
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
  EXPECT_EQ(null->bytes_discarded(), data.size());
  // 1 MiB through 64 KiB chunks = 16 chunks; batched dequeue may coalesce
  // adjacent chunks into fewer (vectored) backend calls, never more.
  EXPECT_GE(null->writes_observed(), 1u);
  EXPECT_LE(null->writes_observed(), 16u);
}

}  // namespace
}  // namespace crfs
