// Model-checking property test: CRFS against a trivially-correct
// reference filesystem model.
//
// Random sequences of open/write/read/fsync/close/truncate/rename/unlink
// operations are applied simultaneously to a CRFS mount (over MemBackend)
// and to a plain in-memory map of byte vectors. After every sequence the
// two must agree byte-for-byte on every surviving file. Sequences are
// seeded, so any failure is replayable from the printed seed.
#include <gtest/gtest.h>

#include <map>

#include "backend/mem_backend.h"
#include "common/rng.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/fuse_shim.h"

namespace crfs {
namespace {

// The reference model: files are byte vectors, writes are memcpy.
class ModelFs {
 public:
  void write(const std::string& path, std::uint64_t offset,
             std::span<const std::byte> data) {
    auto& f = files_[path];
    if (f.size() < offset + data.size()) f.resize(offset + data.size());
    // An empty write may carry a null pointer, which memcpy must not see.
    if (!data.empty()) std::memcpy(f.data() + offset, data.data(), data.size());
  }

  void truncate(const std::string& path, std::uint64_t size) {
    files_[path].resize(size);
  }

  void unlink(const std::string& path) { files_.erase(path); }

  void rename(const std::string& from, const std::string& to) {
    auto it = files_.find(from);
    if (it == files_.end()) return;
    files_[to] = std::move(it->second);
    files_.erase(it);
  }

  const std::map<std::string, std::vector<std::byte>>& files() const { return files_; }

 private:
  std::map<std::string, std::vector<std::byte>> files_;
};

struct OpenFile {
  Crfs::FileHandle handle;
  std::string path;
  std::uint64_t cursor = 0;  // model of sequential access
};

class ModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelCheck, RandomOpSequenceAgreesWithModel) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  auto mem = std::make_shared<MemBackend>();
  // Small chunks/pool so sequences cross many chunk boundaries.
  auto fs = Crfs::mount(mem, Config{.chunk_size = static_cast<std::size_t>(
                                        rng.uniform(1, 8) * 1024),
                                    .pool_size = 32 * 1024,
                                    .io_threads = static_cast<unsigned>(rng.uniform(1, 4))});
  ASSERT_TRUE(fs.ok());
  FuseShim shim(*fs.value(), FuseOptions{.big_writes = rng.bernoulli(0.5)});

  ModelFs model;
  std::vector<OpenFile> open_files;
  const int kPaths = 4;
  auto random_path = [&] { return "f" + std::to_string(rng.uniform(0, kPaths - 1)); };

  std::vector<std::byte> buf;
  const int ops = 300;
  for (int i = 0; i < ops; ++i) {
    const double roll = rng.next_double();
    if (roll < 0.25 && open_files.size() < 6) {
      // open (create if missing, sometimes truncating)
      const std::string path = random_path();
      const bool trunc = rng.bernoulli(0.2);
      auto h = shim.open(path, {.create = true, .truncate = trunc, .write = true});
      ASSERT_TRUE(h.ok());
      if (model.files().count(path) == 0) model.write(path, 0, {});
      if (trunc) model.truncate(path, 0);
      open_files.push_back({h.value(), path, 0});
    } else if (roll < 0.65 && !open_files.empty()) {
      // sequential-ish write at cursor (sometimes jump)
      auto& f = open_files[rng.uniform(0, open_files.size() - 1)];
      if (rng.bernoulli(0.15)) f.cursor = rng.uniform(0, 64 * 1024);
      buf.resize(rng.uniform(1, 12 * 1024));
      for (auto& b : buf) b = static_cast<std::byte>(rng.next_u64());
      ASSERT_TRUE(shim.write(f.handle, buf, f.cursor).ok());
      model.write(f.path, f.cursor, buf);
      f.cursor += buf.size();
    } else if (roll < 0.75 && !open_files.empty()) {
      // fsync
      const auto& f = open_files[rng.uniform(0, open_files.size() - 1)];
      ASSERT_TRUE(shim.fsync(f.handle).ok());
    } else if (roll < 0.85 && !open_files.empty()) {
      // read-back at a random offset and compare against the model NOW
      const auto& f = open_files[rng.uniform(0, open_files.size() - 1)];
      auto it = model.files().find(f.path);
      if (it != model.files().end() && !it->second.empty()) {
        const std::uint64_t off = rng.uniform(0, it->second.size() - 1);
        const std::size_t want =
            std::min<std::size_t>(rng.uniform(1, 4096), it->second.size() - off);
        buf.resize(want);
        auto n = shim.read(f.handle, buf, off);
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(n.value(), want) << "seed " << seed << " op " << i;
        ASSERT_EQ(std::memcmp(buf.data(), it->second.data() + off, want), 0)
            << "read mismatch at " << f.path << "+" << off << " seed " << seed;
      }
    } else if (roll < 0.95 && !open_files.empty()) {
      // close one
      const std::size_t idx = rng.uniform(0, open_files.size() - 1);
      ASSERT_TRUE(shim.close(open_files[idx].handle).ok());
      open_files.erase(open_files.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      // truncate a closed file via path (only when not open, to keep the
      // model simple)
      const std::string path = random_path();
      bool is_open = false;
      for (const auto& f : open_files) is_open |= f.path == path;
      if (!is_open && model.files().count(path) != 0) {
        const std::uint64_t size = rng.uniform(0, 8 * 1024);
        ASSERT_TRUE(fs.value()->truncate(path, size).ok());
        model.truncate(path, size);
      }
    }
  }
  for (auto& f : open_files) ASSERT_TRUE(shim.close(f.handle).ok());

  // Final agreement: every model file exists in the backend with
  // identical bytes.
  for (const auto& [path, bytes] : model.files()) {
    auto contents = mem->contents(path);
    ASSERT_TRUE(contents.ok()) << path << " seed " << seed;
    ASSERT_EQ(contents.value().size(), bytes.size()) << path << " seed " << seed;
    if (bytes.empty()) continue;  // an empty vector's data() may be null
    EXPECT_EQ(std::memcmp(contents.value().data(), bytes.data(), bytes.size()), 0)
        << path << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCheck,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                                           377, 610, 987, 1597));

}  // namespace
}  // namespace crfs
