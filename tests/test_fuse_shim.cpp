// Tests for FuseShim (kernel request splitting) and the crfs::File RAII
// wrapper.
#include <gtest/gtest.h>

#include "backend/mem_backend.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/units.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"

namespace crfs {
namespace {

class FuseShimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    mem_ = std::make_shared<MemBackend>();
    auto fs = Crfs::mount(mem_, Config{.chunk_size = 256 * KiB, .pool_size = 1 * MiB});
    ASSERT_TRUE(fs.ok());
    fs_ = std::move(fs.value());
  }

  std::shared_ptr<MemBackend> mem_;
  std::unique_ptr<Crfs> fs_;
};

TEST_F(FuseShimTest, BigWritesSplitAt128K) {
  FuseShim shim(*fs_, FuseOptions{.big_writes = true});
  EXPECT_EQ(shim.options().max_write(), 128 * KiB);

  auto h = shim.open("f", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> data(512 * KiB, std::byte{1});
  const std::uint64_t before = shim.requests_routed();
  ASSERT_TRUE(shim.write(h.value(), data, 0).ok());
  // 512K / 128K = 4 write requests.
  EXPECT_EQ(shim.requests_routed() - before, 4u);
  ASSERT_TRUE(shim.close(h.value()).ok());
  EXPECT_EQ(fs_->metrics().counter("crfs.mount.app_writes").value(), 4u);
}

TEST_F(FuseShimTest, SmallWritesSplitAt4K) {
  FuseShim shim(*fs_, FuseOptions{.big_writes = false});
  EXPECT_EQ(shim.options().max_write(), 4 * KiB);

  auto h = shim.open("f", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> data(512 * KiB, std::byte{1});
  const std::uint64_t before = shim.requests_routed();
  ASSERT_TRUE(shim.write(h.value(), data, 0).ok());
  EXPECT_EQ(shim.requests_routed() - before, 128u);  // 512K / 4K
  ASSERT_TRUE(shim.close(h.value()).ok());
}

TEST_F(FuseShimTest, WriteSmallerThanRequestIsOneRequest) {
  FuseShim shim(*fs_, FuseOptions{});
  auto h = shim.open("g", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  const std::uint64_t before = shim.requests_routed();
  std::vector<std::byte> tiny(100, std::byte{2});
  ASSERT_TRUE(shim.write(h.value(), tiny, 0).ok());
  EXPECT_EQ(shim.requests_routed() - before, 1u);
  ASSERT_TRUE(shim.close(h.value()).ok());
}

TEST_F(FuseShimTest, SplitWritesPreserveContent) {
  FuseShim shim(*fs_, FuseOptions{.big_writes = true});
  auto h = shim.open("content", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> data(777 * 1024 + 13);  // deliberately unaligned
  Rng r(5);
  for (auto& b : data) b = static_cast<std::byte>(r.next_u64());
  ASSERT_TRUE(shim.write(h.value(), data, 0).ok());
  ASSERT_TRUE(shim.close(h.value()).ok());

  auto c = mem_->contents("content");
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.value().size(), data.size());
  EXPECT_EQ(Crc64::of(c.value().data(), c.value().size()),
            Crc64::of(data.data(), data.size()));
}

TEST_F(FuseShimTest, ReadSplitsAndReassembles) {
  FuseShim shim(*fs_, FuseOptions{.big_writes = true});
  std::vector<std::byte> data(300 * KiB);
  Rng r(6);
  for (auto& b : data) b = static_cast<std::byte>(r.next_u64());
  {
    auto h = shim.open("rr", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(shim.write(h.value(), data, 0).ok());
    ASSERT_TRUE(shim.close(h.value()).ok());
  }
  auto h = shim.open("rr", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> back(data.size());
  auto n = shim.read(h.value(), back, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), data.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
  ASSERT_TRUE(shim.close(h.value()).ok());
}

// ------------------------------------------------------------- crfs::File

TEST_F(FuseShimTest, FileCursorSemantics) {
  FuseShim shim(*fs_, FuseOptions{});
  auto f = File::open(shim, "cursor", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value().write("abc", 3).ok());
  EXPECT_EQ(f.value().tell(), 3u);
  ASSERT_TRUE(f.value().write("def", 3).ok());
  EXPECT_EQ(f.value().tell(), 6u);
  ASSERT_TRUE(f.value().close().ok());
  EXPECT_EQ(mem_->contents("cursor").value().size(), 6u);
}

TEST_F(FuseShimTest, FileDestructorCloses) {
  FuseShim shim(*fs_, FuseOptions{});
  {
    auto f = File::open(shim, "raii", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value().write("bye", 3).ok());
    // destructor closes
  }
  EXPECT_EQ(fs_->open_files(), 0u);
  EXPECT_EQ(mem_->contents("raii").value().size(), 3u);
}

TEST_F(FuseShimTest, FileMoveTransfersOwnership) {
  FuseShim shim(*fs_, FuseOptions{});
  auto f = File::open(shim, "mv", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());
  File g = std::move(f.value());
  ASSERT_TRUE(g.write("moved", 5).ok());
  ASSERT_TRUE(g.close().ok());
  EXPECT_EQ(mem_->contents("mv").value().size(), 5u);
}

TEST_F(FuseShimTest, FileReadBackAfterSeek) {
  FuseShim shim(*fs_, FuseOptions{});
  auto f = File::open(shim, "seek", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value().write("0123456789", 10).ok());
  ASSERT_TRUE(f.value().fsync().ok());
  f.value().seek(4);
  std::vector<std::byte> buf(3);
  auto n = f.value().read(buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_EQ(std::memcmp(buf.data(), "456", 3), 0);
  EXPECT_EQ(f.value().tell(), 7u);
}

}  // namespace
}  // namespace crfs
