// Tiered burst-buffer backend tests: epoch-aware drain correctness
// (eviction only after remote durability), the eager copy of the open
// unit (overwrites mid-copy, one remote write stream, no spinning on a
// dead remote), one drain stream per file with files draining side by
// side under one drain_mbps budget (a file streams as soon as it lands,
// fast files do not wait on a slow one, fsyncs overlap), size and
// namespace ops fenced against in-flight drain copies, writes through handles of unlinked or
// rename-replaced files, fault injection (remote tier down mid-drain,
// stage-full backpressure), restore coherence across tiers with
// readahead on/off, the drain knobs, and the DES mirror's
// deterministic replay + bandwidth-decoupling structure.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/posix_backend.h"
#include "backend/tiered_backend.h"
#include "backend/wrappers.h"
#include "blcr/checkpoint_set.h"
#include "blcr/checkpoint_writer.h"
#include "blcr/process_image.h"
#include "blcr/restart_reader.h"
#include "blcr/sinks.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"
#include "crfs/mount_options.h"
#include "sim/tiered_sim.h"

namespace crfs {
namespace {

std::byte pattern_at(std::uint64_t i, std::uint64_t salt = 0) {
  return static_cast<std::byte>((i * 131 + (i >> 9) * 7 + salt + 13) & 0xff);
}

std::vector<std::byte> make_pattern(std::size_t n, std::uint64_t salt = 0) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern_at(i, salt);
  return out;
}

std::uint64_t counter_value(const obs::Registry& reg, std::string_view name) {
  for (const auto& [n, v] : reg.snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

// Writes `data` to `path` on a bare backend through its own open handle.
void backend_write(BackendFs& b, const std::string& path,
                   const std::vector<std::byte>& data, std::uint64_t offset = 0) {
  auto f = b.open_file(path, {.create = true, .truncate = false, .write = true});
  ASSERT_TRUE(f.ok()) << f.error().to_string();
  ASSERT_TRUE(b.pwrite(f.value(), data, offset).ok());
  ASSERT_TRUE(b.close_file(f.value()).ok());
}

std::vector<std::byte> backend_read(BackendFs& b, const std::string& path,
                                    std::size_t n, std::uint64_t offset = 0) {
  std::vector<std::byte> out(n);
  auto f = b.open_file(path, {.create = false, .truncate = false, .write = false});
  EXPECT_TRUE(f.ok()) << f.error().to_string();
  if (!f.ok()) return {};
  std::size_t got = 0;
  while (got < n) {
    auto r = b.pread(f.value(), std::span(out).subspan(got), offset + got);
    EXPECT_TRUE(r.ok());
    if (!r.ok() || r.value() == 0) break;
    got += r.value();
  }
  out.resize(got);
  (void)b.close_file(f.value());
  return out;
}

/// Forwards to `inner`, counting pwrites (attempts, and the most in flight
/// at once, overall and to any one path) and, when armed, parking the next
/// pwrite until release(), failing every pwrite to one path, delaying the
/// pwrites to one path or every fsync, or running a hook inside the next
/// stat.
class ProbeBackend final : public BackendFs {
 public:
  explicit ProbeBackend(std::shared_ptr<BackendFs> inner) : inner_(std::move(inner)) {}

  void hold_next_write() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_ = true;
    parked_ = false;
    released_ = false;
  }
  /// Parks every pwrite until release(): with one remote writer per file,
  /// each file's stream stops at its first write.
  void hold_writes() {
    hold_next_write();
    std::lock_guard<std::mutex> lock(mu_);
    hold_all_ = true;
  }
  /// True once a held pwrite is parked.
  bool wait_parked(std::chrono::milliseconds limit) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, limit, [&] { return parked_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_ = false;
    hold_all_ = false;
    released_ = true;
    cv_.notify_all();
  }
  void set_write_delay(std::chrono::microseconds d) { delay_ = d; }
  /// Delays every pwrite to `path` by `d`, on top of set_write_delay.
  void set_path_write_delay(const std::string& path, std::chrono::microseconds d) {
    std::lock_guard<std::mutex> lock(mu_);
    path_delay_[path] = d;
  }
  void set_fsync_delay(std::chrono::microseconds d) {
    std::lock_guard<std::mutex> lock(mu_);
    fsync_delay_ = d;
  }
  /// Runs `fn` inside the next stat, after the inner stat has answered.
  void on_next_stat(std::function<void()> fn) {
    std::lock_guard<std::mutex> lock(mu_);
    stat_hook_ = std::move(fn);
  }
  /// Fails every pwrite to `path` with EIO until heal().
  void fail_writes_to(std::string path) {
    std::lock_guard<std::mutex> lock(mu_);
    failing_path_ = std::move(path);
  }
  void heal() { fail_writes_to(""); }
  int attempts() const { return attempts_.load(); }
  int attempts_to(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    return path_attempts_[path];
  }
  int max_in_flight() const { return max_in_flight_.load(); }
  int max_in_flight_per_file() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_per_file_;
  }
  /// Restarts both in-flight peaks from zero.
  void reset_peaks() {
    std::lock_guard<std::mutex> lock(mu_);
    max_in_flight_.store(0);
    max_per_file_ = 0;
  }

  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override {
    auto opened = inner_->open_file(path, flags);
    if (opened.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      paths_[opened.value()] = path;
    }
    return opened;
  }
  Status close_file(BackendFile f) override { return inner_->close_file(f); }
  Status pwrite(BackendFile f, std::span<const std::byte> d, std::uint64_t off) override {
    attempts_.fetch_add(1);
    const int now = in_flight_.fetch_add(1) + 1;
    int seen = max_in_flight_.load();
    while (now > seen && !max_in_flight_.compare_exchange_weak(seen, now)) {
    }
    std::string path;
    bool fail = false;
    std::chrono::microseconds path_delay{0};
    {
      std::unique_lock<std::mutex> lock(mu_);
      path = paths_[f];
      path_delay = path_delay_[path];
      path_attempts_[path] += 1;
      max_per_file_ = std::max(max_per_file_, ++path_in_flight_[path]);
      fail = !failing_path_.empty() && path == failing_path_;
      if (hold_ || hold_all_) {
        hold_ = false;
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    if (path_delay.count() > 0) std::this_thread::sleep_for(path_delay);
    const Status st =
        fail ? Status(Error{EIO, "probe: injected write failure"}) : inner_->pwrite(f, d, off);
    {
      std::lock_guard<std::mutex> lock(mu_);
      path_in_flight_[path] -= 1;
    }
    in_flight_.fetch_sub(1);
    return st;
  }
  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    return inner_->pread(f, d, off);
  }
  Status fsync(BackendFile f) override {
    std::chrono::microseconds delay;
    {
      std::lock_guard<std::mutex> lock(mu_);
      delay = fsync_delay_;
    }
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    return inner_->fsync(f);
  }
  Status truncate(BackendFile f, std::uint64_t s) override { return inner_->truncate(f, s); }
  Result<BackendStat> stat(const std::string& p) override {
    auto st = inner_->stat(p);
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hook.swap(stat_hook_);
    }
    if (hook) hook();
    return st;
  }
  Status mkdir(const std::string& p) override { return inner_->mkdir(p); }
  Status rmdir(const std::string& p) override { return inner_->rmdir(p); }
  Status unlink(const std::string& p) override { return inner_->unlink(p); }
  Status rename(const std::string& a, const std::string& b) override {
    return inner_->rename(a, b);
  }
  Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_->list_dir(p);
  }
  std::string name() const override { return "probe(" + inner_->name() + ")"; }

 private:
  std::shared_ptr<BackendFs> inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = false;
  bool hold_all_ = false;
  bool parked_ = false;
  bool released_ = false;
  std::chrono::microseconds delay_{0};
  std::chrono::microseconds fsync_delay_{0};
  std::unordered_map<std::string, std::chrono::microseconds> path_delay_;
  std::function<void()> stat_hook_;
  std::string failing_path_;
  std::unordered_map<BackendFile, std::string> paths_;
  std::unordered_map<std::string, int> path_attempts_;
  std::unordered_map<std::string, int> path_in_flight_;
  int max_per_file_ = 0;
  std::atomic<int> attempts_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<int> max_in_flight_{0};
};

/// Runs `op` on its own thread: false unless it returned ok within
/// `limit`. On a timeout the thread, which keeps what `op` captured alive,
/// is left behind, so a hang fails the test instead of hanging the suite.
bool ok_within(std::function<Status()> op, std::chrono::seconds limit) {
  auto done = std::make_shared<std::promise<bool>>();
  auto result = done->get_future();
  std::thread runner([op = std::move(op), done] { done->set_value(op().ok()); });
  if (result.wait_for(limit) != std::future_status::ready) {
    runner.detach();
    return false;
  }
  runner.join();
  return result.get();
}

bool flush_within(const std::shared_ptr<TieredBackend>& tier, std::chrono::seconds limit) {
  return ok_within([tier] { return tier->flush(); }, limit);
}

/// A PosixBackend stage in a fresh temp directory (the mmap drain path).
class PosixStage {
 public:
  explicit PosixStage(const std::string& tag)
      : dir_(std::filesystem::temp_directory_path() /
             ("crfs_tier_stage_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    auto created = PosixBackend::create(dir_.string());
    EXPECT_TRUE(created.ok());
    if (created.ok()) backend_ = std::move(created).value();
  }
  ~PosixStage() { std::filesystem::remove_all(dir_); }
  std::shared_ptr<BackendFs> backend() const { return backend_; }

 private:
  std::filesystem::path dir_;
  std::shared_ptr<BackendFs> backend_;
};

// -- Drain-unit correctness ---------------------------------------------------

TEST(TieredBackendTest, StagedDataIsReadableThenDrainsByteIdentical) {
  auto stage = std::make_shared<MemBackend>();
  auto remote = std::make_shared<MemBackend>();
  TieredBackend tier(stage, remote, TieredOptions{});

  const auto data = make_pattern(3 * MiB, 5);
  backend_write(tier, "ckpt.img", data);

  // Still staged: nothing sealed, nothing evicted (the eager copy may
  // already have put bytes on the remote), reads come back bit-identical
  // from the stage.
  EXPECT_EQ(tier.tier_stats().units_evicted, 0u);
  EXPECT_EQ(backend_read(tier, "ckpt.img", data.size()), data);

  tier.seal_epoch(1);
  ASSERT_TRUE(tier.flush().ok());

  // Fully drained + evicted: the remote holds the exact bytes, the stage
  // occupancy is released, and reads still come back identical (now from
  // the remote).
  const TierStats st = tier.tier_stats();
  EXPECT_EQ(st.stage_used, 0u);
  EXPECT_EQ(st.drained_bytes, data.size());
  EXPECT_EQ(st.units_evicted, 1u);
  auto remote_data = remote->contents("ckpt.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), data);
  EXPECT_EQ(backend_read(tier, "ckpt.img", data.size()), data);
}

TEST(TieredBackendTest, FsyncRemoteModeBlocksUntilRemoteDurable) {
  auto stage = std::make_shared<MemBackend>();
  auto remote = std::make_shared<MemBackend>();
  TieredOptions opts;
  opts.fsync_mode = TierFsyncMode::kRemote;
  TieredBackend tier(stage, remote, opts);

  const auto data = make_pattern(1 * MiB, 9);
  auto f = tier.open_file("sync.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(tier.pwrite(f.value(), data, 0).ok());
  // fsync in remote mode returns only once this file's bytes are durable
  // at the remote — no separate seal/flush needed.
  ASSERT_TRUE(tier.fsync(f.value()).ok());
  auto remote_data = remote->contents("sync.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), data);
  ASSERT_TRUE(tier.close_file(f.value()).ok());
}

TEST(TieredBackendTest, OverwriteAfterSealDrainsBothVersionsInOrder) {
  auto stage = std::make_shared<MemBackend>();
  auto remote = std::make_shared<MemBackend>();
  TieredBackend tier(stage, remote, TieredOptions{});

  const auto v1 = make_pattern(256 * KiB, 1);
  const auto v2 = make_pattern(256 * KiB, 2);
  backend_write(tier, "a.img", v1);
  tier.seal_epoch(1);
  // Overwrite the same range after the seal: the new bytes belong to the
  // open unit; the drain must not evict them when unit 1 completes.
  backend_write(tier, "a.img", v2);
  tier.seal_epoch(2);
  ASSERT_TRUE(tier.flush().ok());

  auto remote_data = remote->contents("a.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), v2);
  EXPECT_EQ(backend_read(tier, "a.img", v2.size()), v2);
}

// -- Copy early: the open unit streams to the remote -------------------------

TEST(TieredEager, OpenUnitCopiesBeforeSealAndEvictsOnlyAfterIt) {
  auto stage = std::make_shared<MemBackend>();
  auto remote = std::make_shared<MemBackend>();
  TieredBackend tier(stage, remote, TieredOptions{});

  const auto data = make_pattern(2 * MiB, 4);
  backend_write(tier, "early.img", data);
  // No seal yet: the drain copies the open unit anyway, but evicts nothing.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tier.tier_stats().drained_bytes < data.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  TierStats st = tier.tier_stats();
  EXPECT_EQ(st.drained_bytes, data.size());
  EXPECT_EQ(st.units_evicted, 0u);
  EXPECT_EQ(st.stage_used, data.size());

  // The seal copies nothing again: it fsyncs and evicts.
  tier.seal_epoch(1);
  ASSERT_TRUE(tier.flush().ok());
  st = tier.tier_stats();
  EXPECT_EQ(st.drained_bytes, data.size());
  EXPECT_EQ(st.units_evicted, 1u);
  EXPECT_EQ(st.stage_used, 0u);
  auto remote_data = remote->contents("early.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), data);
}

TEST(TieredEager, OverwriteDuringEagerCopyLandsTheNewerBytes) {
  auto stage = std::make_shared<MemBackend>();
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  TieredBackend tier(stage, probe, TieredOptions{});

  const auto v1 = make_pattern(256 * KiB, 1);
  const auto v2 = make_pattern(256 * KiB, 2);
  probe->hold_next_write();
  auto f = tier.open_file("ow.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(tier.pwrite(f.value(), v1, 0).ok());
  // The eager copy of v1 is parked in the remote pwrite; overwrite it.
  if (!probe->wait_parked(std::chrono::seconds(5))) {
    probe->release();
    FAIL() << "the open unit was never copied";
  }
  ASSERT_TRUE(tier.pwrite(f.value(), v2, 0).ok());
  probe->release();
  ASSERT_TRUE(tier.close_file(f.value()).ok());

  // v1 landed after the overwrite, so its extent must not count as
  // copied: v2 is copied again and wins on the remote.
  ASSERT_TRUE(tier.flush().ok());
  auto remote_data = remote_mem->contents("ow.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), v2);
  EXPECT_EQ(backend_read(tier, "ow.img", v2.size()), v2);
  EXPECT_EQ(tier.tier_stats().stage_used, 0u);
}

TEST(TieredEager, SingleDrainStreamKeepsOneRemoteWriteStream) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  probe->set_write_delay(std::chrono::microseconds(500));
  TieredBackend tier(std::make_shared<MemBackend>(), probe,
                     TieredOptions{.drain_parallel = 1});
  ASSERT_EQ(tier.drain_parallel(), 1u);

  // Two writers stage while both the eager copy and sealed units drain.
  const auto data = make_pattern(1 * MiB, 6);
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int epoch = 0; epoch < 3; ++epoch) {
        char path[32];
        std::snprintf(path, sizeof(path), "w%d_%d", w, epoch);
        auto f = tier.open_file(path, {.create = true, .truncate = true, .write = true});
        ASSERT_TRUE(f.ok());
        for (std::size_t off = 0; off < data.size(); off += 64 * KiB) {
          ASSERT_TRUE(
              tier.pwrite(f.value(), std::span(data).subspan(off, 64 * KiB), off).ok());
        }
        ASSERT_TRUE(tier.close_file(f.value()).ok());
        tier.seal_epoch(0);
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(tier.flush().ok());

  EXPECT_GT(probe->attempts(), 1);
  EXPECT_EQ(probe->max_in_flight(), 1);
  EXPECT_EQ(tier.tier_stats().drained_bytes, 6 * data.size());
  EXPECT_EQ(tier.tier_stats().stage_used, 0u);
}

std::string file_name(int i) {
  char name[16];
  std::snprintf(name, sizeof(name), "f%d", i);
  return name;
}

TEST(TieredEager, FailedEagerCopyDoesNotSpinWhileTheUnitIsOpen) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(remote_mem);
  auto probe = std::make_shared<ProbeBackend>(faulty);
  TieredOptions opts;
  opts.retry_backoff = std::chrono::milliseconds(1);
  opts.retry_backoff_max = std::chrono::milliseconds(8);
  // One stream, so the one failed copy is one attempt. At the default
  // width each file's stream fails once instead (see
  // TieredDrain.OneFailingStreamHoldsItsUnitUntilItHeals).
  opts.drain_parallel = 1;
  TieredBackend tier(std::make_shared<MemBackend>(), probe, opts);
  obs::Registry reg;
  obs::EventBuffer events;
  tier.bind_obs(&reg, &events);

  faulty->fail_writes_after(0);  // remote tier is down
  const auto data = make_pattern(256 * KiB, 8);
  for (int i = 0; i < 4; ++i) backend_write(tier, file_name(i), data);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (probe->attempts() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // More writes and time pass with the unit still open: the first failed
  // copy stopped eager copying, so the remote sees no further attempts.
  for (int i = 4; i < 8; ++i) backend_write(tier, file_name(i), data);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(probe->attempts(), 1);
  EXPECT_EQ(tier.tier_stats().retries, 0u);
  int down_events = 0;
  for (const auto& ev : events.snapshot()) down_events += ev.rule == "tier_remote_down";
  EXPECT_EQ(down_events, 1);

  // The seal hands the unit to the retry loop; once healed it lands whole.
  tier.seal_epoch(1);
  faulty->fail_writes_after(-1);
  ASSERT_TRUE(tier.flush().ok());
  for (int i = 0; i < 8; ++i) {
    auto remote_data = remote_mem->contents(file_name(i));
    ASSERT_TRUE(remote_data.ok());
    EXPECT_EQ(remote_data.value(), data);
  }
  EXPECT_EQ(tier.tier_stats().stage_used, 0u);
  down_events = 0;
  for (const auto& ev : events.snapshot()) down_events += ev.rule == "tier_remote_down";
  EXPECT_EQ(down_events, 1);
}

TEST(TieredEager, SealDuringAFailingEagerCopyKeepsTheNextUnitEager) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(remote_mem);
  auto probe = std::make_shared<ProbeBackend>(faulty);
  TieredOptions opts;
  opts.retry_backoff = std::chrono::milliseconds(1);
  opts.retry_backoff_max = std::chrono::milliseconds(8);
  TieredBackend tier(std::make_shared<MemBackend>(), probe, opts);

  // An eager copy is parked when the remote goes down and the unit seals.
  faulty->fail_writes_after(0);
  probe->hold_next_write();
  const auto data = make_pattern(256 * KiB, 17);
  backend_write(tier, "first.img", data);
  if (!probe->wait_parked(std::chrono::seconds(5))) {
    probe->release();
    FAIL() << "the open unit was never copied";
  }
  tier.seal_epoch(1);
  probe->release();  // the parked copy now fails, after the seal
  // The sealed unit's first retry comes after that failure.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tier.tier_stats().retries == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(tier.tier_stats().retries, 0u);

  // The failure belonged to the sealed unit: once the remote heals, the
  // next open unit still streams before its own seal.
  faulty->fail_writes_after(-1);
  backend_write(tier, "second.img", data);
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tier.tier_stats().drained_bytes < 2 * data.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(tier.tier_stats().drained_bytes, 2 * data.size());
  EXPECT_EQ(tier.tier_stats().units_sealed, 1u);
  ASSERT_TRUE(tier.flush().ok());
  auto remote_data = remote_mem->contents("second.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), data);
}

// -- One drain stream per file ------------------------------------------------

/// Stages `files` files of `data` each in 1 MiB pwrites while every
/// remote write of the eager drain is parked, so no file's stream gets
/// past its first write before the release: after it, every file still
/// has bytes left to copy. `before_release` runs with the writes still
/// parked.
void stage_behind_a_parked_copy(TieredBackend& tier, ProbeBackend& probe, int files,
                                const std::vector<std::byte>& data,
                                const std::function<void()>& before_release = {}) {
  probe.hold_writes();
  for (int i = 0; i < files; ++i) {
    auto f = tier.open_file(file_name(i), {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(f.ok());
    for (std::size_t off = 0; off < data.size(); off += 1 * MiB) {
      ASSERT_TRUE(tier.pwrite(f.value(), std::span(data).subspan(off, 1 * MiB), off).ok());
    }
    ASSERT_TRUE(tier.close_file(f.value()).ok());
    if (i == 0 && !probe.wait_parked(std::chrono::seconds(5))) {
      probe.release();
      FAIL() << "the open unit was never copied";
    }
  }
  if (before_release) before_release();
  probe.release();
}

TEST(TieredDrain, OneRemoteWriterPerFileWhileFilesDrainInParallel) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  probe->set_write_delay(std::chrono::milliseconds(5));
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), probe,
                                              TieredOptions{});
  ASSERT_GT(tier->drain_parallel(), 1u);
  constexpr int kFiles = 3;

  // Eager phase: the open unit's files stream side by side, one writer each.
  const auto v1 = make_pattern(8 * MiB, 21);
  stage_behind_a_parked_copy(*tier, *probe, kFiles, v1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (tier->tier_stats().drained_bytes < kFiles * v1.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(tier->tier_stats().drained_bytes, kFiles * v1.size());
  EXPECT_EQ(tier->tier_stats().units_evicted, 0u);
  EXPECT_EQ(probe->max_in_flight_per_file(), 1);
  EXPECT_GT(probe->max_in_flight(), 1);
  tier->seal_epoch(1);
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(10)));

  // Sealed phase: the seal lands while every stream is parked, so each
  // file's remaining steps drain from the sealed unit.
  const auto v2 = make_pattern(8 * MiB, 22);
  stage_behind_a_parked_copy(*tier, *probe, kFiles, v2, [&] {
    probe->reset_peaks();
    tier->seal_epoch(2);
  });
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(10)));
  EXPECT_EQ(probe->max_in_flight_per_file(), 1);
  EXPECT_GT(probe->max_in_flight(), 1);

  for (int i = 0; i < kFiles; ++i) {
    auto remote_data = remote_mem->contents(file_name(i));
    ASSERT_TRUE(remote_data.ok());
    EXPECT_EQ(remote_data.value(), v2) << file_name(i);
  }
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
}

TEST(TieredDrain, OneFailingStreamHoldsItsUnitUntilItHeals) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  TieredOptions opts;
  opts.retry_backoff = std::chrono::milliseconds(1);
  opts.retry_backoff_max = std::chrono::milliseconds(8);
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), probe, opts);
  constexpr int kFiles = 3;

  // One file's remote stream fails; the other files copy eagerly.
  probe->fail_writes_to(file_name(1));
  const auto data = make_pattern(1 * MiB, 23);
  stage_behind_a_parked_copy(*tier, *probe, kFiles, data);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (probe->attempts_to(file_name(1)) == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The failed stream stopped the eager pass: one attempt while open.
  EXPECT_EQ(probe->attempts_to(file_name(1)), 1);

  // Sealed, the unit retries; none of it is evicted while one file fails,
  // not even the files already on the remote.
  tier->seal_epoch(1);
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tier->tier_stats().retries < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  TierStats st = tier->tier_stats();
  ASSERT_GE(st.retries, 3u);
  EXPECT_EQ(st.units_evicted, 0u);
  EXPECT_EQ(st.stage_used, kFiles * data.size());

  probe->heal();
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(10)));
  st = tier->tier_stats();
  EXPECT_EQ(st.units_evicted, 1u);
  EXPECT_EQ(st.stage_used, 0u);
  for (int i = 0; i < kFiles; ++i) {
    auto remote_data = remote_mem->contents(file_name(i));
    ASSERT_TRUE(remote_data.ok());
    EXPECT_EQ(remote_data.value(), data) << file_name(i);
  }
}

TEST(TieredDrain, DrainMbpsIsOneBudgetAcrossStreams) {
  // Low enough that a 4 MiB step copies well inside its slot (131 ms),
  // even in sanitizer builds.
  constexpr double kMbps = 32.0;
  auto remote = std::make_shared<MemBackend>();
  TieredOptions opts;
  opts.drain_mbps = kMbps;
  opts.drain_parallel = 4;
  TieredBackend tier(std::make_shared<MemBackend>(), remote, opts);
  std::mutex mu;
  std::uint64_t drained = 0;
  std::uint64_t drain_ns = 0;
  tier.set_drain_listener([&](std::uint64_t, std::uint64_t bytes, std::uint64_t ns, std::uint64_t) {
    std::lock_guard<std::mutex> lock(mu);
    drained = bytes;
    drain_ns = ns;
  });

  // One stream alone runs at the whole cap; four streams share it.
  const auto data = make_pattern(16 * MiB, 24);
  for (const int files : {1, 4}) {
    for (int i = 0; i < files; ++i) {
      backend_write(tier, file_name(i),
                    std::vector<std::byte>(data.begin(), data.begin() + data.size() / files));
    }
    tier.seal_epoch(0);
    ASSERT_TRUE(tier.flush().ok());
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(drained, data.size());
    const double mbps = static_cast<double>(drained) * 1e3 / static_cast<double>(drain_ns);
    EXPECT_GT(mbps, 0.75 * kMbps) << files << " file(s)";
    EXPECT_LT(mbps, 1.05 * kMbps) << files << " file(s)";
  }
}

TEST(TieredDrain, AFileThatLandsLaterStreamsWhileAnEarlierStepIsParked) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), probe,
                                              TieredOptions{});
  const auto a = make_pattern(1 * MiB, 25);
  const auto b = make_pattern(1 * MiB, 26);

  // A's first remote write parks; B lands after it. B's stream starts when
  // its bytes land, not when A's step finishes.
  probe->hold_next_write();
  backend_write(*tier, "a.img", a);
  if (!probe->wait_parked(std::chrono::seconds(5))) {
    probe->release();
    FAIL() << "the open unit was never copied";
  }
  backend_write(*tier, "b.img", b);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool landed = false;
  while (!landed && std::chrono::steady_clock::now() < deadline) {
    auto remote_b = remote_mem->contents("b.img");
    landed = remote_b.ok() && remote_b.value() == b;
    if (!landed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  probe->release();
  EXPECT_TRUE(landed) << "b.img waited for a.img's parked step";

  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(10)));
  auto remote_a = remote_mem->contents("a.img");
  ASSERT_TRUE(remote_a.ok());
  EXPECT_EQ(remote_a.value(), a);
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
}

TEST(TieredDrain, FastFilesFinishWhileASlowFileStillHasSteps) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  // Each 4 MiB step of the slow file takes 500 ms on the remote.
  probe->set_path_write_delay(file_name(0), std::chrono::milliseconds(500));
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), probe,
                                              TieredOptions{});
  ASSERT_GE(tier->drain_parallel(), 4u);
  constexpr int kFiles = 4;
  constexpr int kSteps = 4;
  const auto data = make_pattern(kSteps * 4 * MiB, 27);
  // A failed first copy stops the eager copy, so the four files start
  // together at the seal, however long staging them takes.
  probe->fail_writes_to("stop.img");
  backend_write(*tier, "stop.img", make_pattern(4 * KiB, 30));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (probe->attempts_to("stop.img") == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < kFiles; ++i) {
    auto f = tier->open_file(file_name(i), {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(f.ok());
    for (std::size_t off = 0; off < data.size(); off += 4 * MiB) {
      ASSERT_TRUE(tier->pwrite(f.value(), std::span(data).subspan(off, 4 * MiB), off).ok());
    }
    ASSERT_TRUE(tier->close_file(f.value()).ok());
  }
  probe->heal();
  tier->seal_epoch(1);

  // The fast files' streams do not wait on the slow one's steps. A file's
  // steps land in offset order, so its full size means its last step did.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool fast_done = false;
  while (!fast_done && std::chrono::steady_clock::now() < deadline) {
    fast_done = true;
    for (int i = 1; i < kFiles; ++i) {
      auto st = remote_mem->stat(file_name(i));
      fast_done = fast_done && st.ok() && st.value().size == data.size();
    }
    if (!fast_done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int slow_steps = probe->attempts_to(file_name(0));
  ASSERT_TRUE(fast_done);
  EXPECT_LT(slow_steps, kSteps) << "the fast files finished with the slow one";

  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(10)));
  for (int i = 0; i < kFiles; ++i) {
    auto remote_data = remote_mem->contents(file_name(i));
    ASSERT_TRUE(remote_data.ok());
    EXPECT_EQ(remote_data.value(), data) << file_name(i);
  }
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
}

TEST(TieredDrain, SealedFilesFsyncSideBySide) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), probe,
                                              TieredOptions{});
  ASSERT_GE(tier->drain_parallel(), 4u);
  constexpr int kFiles = 4;
  const auto data = make_pattern(256 * KiB, 28);
  for (int i = 0; i < kFiles; ++i) backend_write(*tier, file_name(i), data);
  // Let the eager copy land every byte, so the sealed unit has only its
  // remote fsyncs left.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tier->tier_stats().drained_bytes < kFiles * data.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(tier->tier_stats().drained_bytes, kFiles * data.size());

  // Four 50 ms fsyncs one after another would take 200 ms.
  probe->set_fsync_delay(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  tier->seal_epoch(1);
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(10)));
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::milliseconds(150))
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count() << " ms";
  EXPECT_EQ(tier->tier_stats().units_evicted, 1u);
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
}

// -- Size and namespace ops fenced against in-flight drain copies -------------

// A drain copy parked in its remote pwrite must not land after a truncate
// through the tier: truncate waits for it, so the truncated bytes never
// come back (on the remote, or through stat).
void truncate_waits_for_parked_copy(std::shared_ptr<BackendFs> stage) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  probe->hold_next_write();
  TieredBackend tier(std::move(stage), probe, TieredOptions{});

  auto f = tier.open_file("t.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(tier.pwrite(f.value(), make_pattern(1 * MiB, 3), 0).ok());
  if (!probe->wait_parked(std::chrono::seconds(5))) {
    probe->release();
    FAIL() << "the drain never copied";
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    probe->release();
  });
  const Status truncated = tier.truncate(f.value(), 0);
  releaser.join();
  ASSERT_TRUE(truncated.ok());
  ASSERT_TRUE(tier.flush().ok());

  auto st = tier.stat("t.img");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 0u);
  auto remote_st = remote_mem->stat("t.img");
  ASSERT_TRUE(remote_st.ok());
  EXPECT_EQ(remote_st.value().size, 0u);
  ASSERT_TRUE(tier.close_file(f.value()).ok());
  EXPECT_EQ(tier.tier_stats().stage_used, 0u);
}

TEST(TieredFence, TruncateWaitsForInFlightDrainCopyMemStage) {
  truncate_waits_for_parked_copy(std::make_shared<MemBackend>());
}

TEST(TieredFence, TruncateWaitsForInFlightDrainCopyPosixStage) {
  PosixStage stage("truncate");
  ASSERT_NE(stage.backend(), nullptr);
  truncate_waits_for_parked_copy(stage.backend());
}

TEST(TieredFence, TruncateWaitsForOneStepNotTheFilesWholeDrain) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  probe->set_write_delay(std::chrono::milliseconds(40));
  TieredBackend tier(std::make_shared<MemBackend>(), probe, TieredOptions{});
  // Eight 4 MiB steps at 40 ms each: the file's stream always has another.
  const auto data = make_pattern(32 * MiB, 29);
  auto f = tier.open_file("long.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(tier.pwrite(f.value(), data, 0).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (probe->attempts() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(probe->attempts(), 0);

  // The truncate waits for the step in flight, not for the stream to run
  // out of steps (about 300 ms more).
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(tier.truncate(f.value(), 0).ok());
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::milliseconds(150))
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count() << " ms";
  ASSERT_TRUE(tier.close_file(f.value()).ok());
  ASSERT_TRUE(tier.flush().ok());
  auto remote_st = remote_mem->stat("long.img");
  ASSERT_TRUE(remote_st.ok());
  EXPECT_EQ(remote_st.value().size, 0u);
  EXPECT_EQ(tier.tier_stats().stage_used, 0u);
}

TEST(TieredFence, TruncatingOpenOfATrackedPathTruncatesTheRemote) {
  auto remote = std::make_shared<MemBackend>();
  TieredBackend tier(std::make_shared<MemBackend>(), remote, TieredOptions{});
  const auto big = make_pattern(2 * MiB, 14);
  const auto small = make_pattern(1 * MiB, 15);
  auto first = tier.open_file("x.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(tier.pwrite(first.value(), big, 0).ok());
  ASSERT_TRUE(tier.flush().ok());

  // `first` stays open, so the tier still tracks the path when it is
  // re-opened with O_TRUNC: the remote's 2 MiB must go too.
  auto second = tier.open_file("x.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(tier.pwrite(second.value(), small, 0).ok());
  ASSERT_TRUE(tier.close_file(second.value()).ok());
  ASSERT_TRUE(tier.close_file(first.value()).ok());
  ASSERT_TRUE(tier.flush().ok());

  auto remote_data = remote->contents("x.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), small);
  auto st = tier.stat("x.img");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, small.size());
}

TEST(TieredFence, TruncatingOpenRacingTheFirstCopyTruncatesTheRemote) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  TieredBackend tier(std::make_shared<MemBackend>(), probe, TieredOptions{});
  const auto data = make_pattern(1 * MiB, 16);
  auto first = tier.open_file("r.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(first.ok());

  // The O_TRUNC re-open stats the remote while the file is not there yet;
  // before the open goes on, the first eager copy creates it and lands
  // the old bytes.
  probe->on_next_stat([&] {
    ASSERT_TRUE(tier.pwrite(first.value(), data, 0).ok());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (tier.tier_stats().drained_bytes < data.size() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(tier.tier_stats().drained_bytes, data.size());
  });
  auto second = tier.open_file("r.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(tier.close_file(second.value()).ok());
  ASSERT_TRUE(tier.close_file(first.value()).ok());
  ASSERT_TRUE(tier.flush().ok());

  auto remote_st = remote_mem->stat("r.img");
  ASSERT_TRUE(remote_st.ok());
  EXPECT_EQ(remote_st.value().size, 0u);
  auto st = tier.stat("r.img");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 0u);
}

TEST(TieredFence, PosixStageDrainsByteIdenticalThroughTheMapping) {
  PosixStage stage_dir("mmap");
  ASSERT_NE(stage_dir.backend(), nullptr);
  auto remote = std::make_shared<MemBackend>();
  TieredBackend tier(stage_dir.backend(), remote, TieredOptions{});

  // Unaligned offsets and a run longer than one drain step.
  const auto data = make_pattern(9 * MiB + 123, 12);
  backend_write(tier, "m.img", data, 4097);
  tier.seal_epoch(1);
  ASSERT_TRUE(tier.flush().ok());
  auto remote_data = remote->contents("m.img");
  ASSERT_TRUE(remote_data.ok());
  ASSERT_EQ(remote_data.value().size(), 4097 + data.size());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), remote_data.value().begin() + 4097));
  EXPECT_EQ(tier.tier_stats().stage_used, 0u);
}

TEST(TieredNamespace, DirectoryRenameReKeysStagedDescendants) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(remote_mem);
  TieredOptions opts;
  opts.retry_backoff = std::chrono::milliseconds(1);
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), faulty, opts);

  // Stage ep.tmp/rank0 with the remote refusing writes, so nothing has
  // drained when the directory is renamed.
  faulty->fail_writes_after(0);
  ASSERT_TRUE(tier->mkdir("ep.tmp").ok());
  const auto data = make_pattern(1 * MiB, 13);
  backend_write(*tier, "ep.tmp/rank0", data);
  ASSERT_TRUE(tier->rename("ep.tmp", "ep").ok());
  faulty->fail_writes_after(-1);
  tier->seal_epoch(1);

  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(5)))
      << "flush() did not return: staged descendants kept the old name";
  auto remote_data = remote_mem->contents("ep/rank0");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), data);
  EXPECT_FALSE(remote_mem->stat("ep.tmp/rank0").ok());
  EXPECT_EQ(backend_read(*tier, "ep/rank0", data.size()), data);
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
}

TEST(TieredNamespace, RenameOntoAStagedFileRetiresTheReplacedFile) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto probe = std::make_shared<ProbeBackend>(remote_mem);
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), probe,
                                              TieredOptions{});
  const auto a = make_pattern(1 * MiB, 18);
  const auto b = make_pattern(2 * MiB, 19);

  // Stage a and b with the drain parked in a's first copy, so b is still
  // waiting to be copied when a replaces it.
  probe->hold_next_write();
  backend_write(*tier, "a.img", a);
  if (!probe->wait_parked(std::chrono::seconds(5))) {
    probe->release();
    FAIL() << "the open unit was never copied";
  }
  backend_write(*tier, "b.img", b);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    probe->release();
  });
  const Status renamed = tier->rename("a.img", "b.img");
  releaser.join();
  ASSERT_TRUE(renamed.ok());

  // The replaced b's bytes are dropped, not drained over the new b.
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(5)));
  auto remote_data = remote_mem->contents("b.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), a);
  EXPECT_FALSE(remote_mem->stat("a.img").ok());
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
  auto st = tier->stat("b.img");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, a.size());
  EXPECT_EQ(backend_read(*tier, "b.img", b.size()), a);
}

TEST(TieredNamespace, RenameOfAnUndrainedFileOntoADrainedOneLeavesNoOldTail) {
  auto remote_mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(remote_mem);
  auto probe = std::make_shared<ProbeBackend>(faulty);
  TieredOptions opts;
  opts.retry_backoff = std::chrono::milliseconds(1);
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), probe, opts);
  const auto old_b = make_pattern(2 * MiB, 20);
  const auto a = make_pattern(1 * MiB, 21);

  // b is fully drained and released; the tier keeps its remote writer.
  backend_write(*tier, "b.img", old_b);
  ASSERT_TRUE(tier->flush().ok());

  // A failed eager copy stops eager copying, so nothing of a reaches the
  // remote before the rename: the remote has no a to rename.
  faulty->fail_writes_after(0);
  const int before = probe->attempts();
  backend_write(*tier, "z.img", a);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (probe->attempts() == before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  backend_write(*tier, "a.img", a);
  ASSERT_FALSE(remote_mem->stat("a.img").ok());
  ASSERT_TRUE(tier->rename("a.img", "b.img").ok());
  faulty->fail_writes_after(-1);

  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(5)));
  auto remote_data = remote_mem->contents("b.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), a);
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
}

// A write through a handle still open on an unlinked file stays with
// that handle: readable through it, never drained (the file does not come
// back), its stage space returned at the last close.
TEST(TieredRetired, WriteThroughAnUnlinkedFilesHandleNeverReachesTheRemote) {
  auto remote = std::make_shared<MemBackend>();
  TieredOptions opts;
  opts.fsync_mode = TierFsyncMode::kRemote;
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), remote, opts);
  const auto first = make_pattern(1 * MiB, 30);
  const auto late = make_pattern(1 * MiB, 31);
  auto h = tier->open_file("u.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(tier->pwrite(h.value(), first, 0).ok());
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(5)));
  ASSERT_TRUE(tier->unlink("u.img").ok());

  ASSERT_TRUE(tier->pwrite(h.value(), late, 0).ok());
  const BackendFile handle = h.value();
  ASSERT_TRUE(ok_within([tier, handle] { return tier->fsync(handle); },
                        std::chrono::seconds(5)));
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(5)));
  EXPECT_FALSE(remote->stat("u.img").ok());
  EXPECT_FALSE(tier->stat("u.img").ok());
  std::vector<std::byte> back(late.size());
  auto got = tier->pread(h.value(), back, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), late.size());
  EXPECT_EQ(back, late);
  EXPECT_EQ(tier->tier_stats().stage_used, late.size());

  ASSERT_TRUE(tier->close_file(h.value()).ok());
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(5)));
  EXPECT_FALSE(remote->stat("u.img").ok());
  EXPECT_FALSE(tier->stat("u.img").ok());
}

// The same for a handle still open on a file that a rename replaced: the
// late bytes are read back through it, the new file is untouched, and the
// stage space comes back at the last close.
TEST(TieredRetired, WriteThroughARenameReplacedFilesHandleFreesItsStageAtClose) {
  auto remote = std::make_shared<MemBackend>();
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), remote,
                                              TieredOptions{});
  const auto a = make_pattern(1 * MiB, 32);
  const auto b = make_pattern(1 * MiB, 33);
  const auto late = make_pattern(1 * MiB, 34);
  backend_write(*tier, "a.img", a);
  auto hb = tier->open_file("b.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(hb.ok());
  ASSERT_TRUE(tier->pwrite(hb.value(), b, 0).ok());
  ASSERT_TRUE(tier->rename("a.img", "b.img").ok());

  ASSERT_TRUE(tier->pwrite(hb.value(), late, 0).ok());
  ASSERT_TRUE(flush_within(tier, std::chrono::seconds(5)));
  std::vector<std::byte> back(late.size());
  auto got = tier->pread(hb.value(), back, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), late.size());
  EXPECT_EQ(back, late);
  EXPECT_EQ(tier->tier_stats().stage_used, late.size());

  ASSERT_TRUE(tier->close_file(hb.value()).ok());
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
  auto remote_b = remote->contents("b.img");
  ASSERT_TRUE(remote_b.ok());
  EXPECT_EQ(remote_b.value(), a);
  EXPECT_EQ(backend_read(*tier, "b.img", a.size()), a);
}

TEST(TieredNamespace, CheckpointSetCommitOnTieredMountVerifiesAndDrains) {
  auto remote = std::make_shared<MemBackend>();
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), remote,
                                              TieredOptions{});
  {
    auto fs = Crfs::mount(tier, Config{.chunk_size = 256 * KiB, .pool_size = 2 * MiB});
    ASSERT_TRUE(fs.ok());
    FuseShim shim(*fs.value(), FuseOptions{});
    auto set = blcr::CheckpointSet::open(shim, "ckpts");
    ASSERT_TRUE(set.ok());
    auto writer = set.value().begin_epoch(2);
    ASSERT_TRUE(writer.ok());
    for (unsigned r = 0; r < 2; ++r) {
      const auto image = blcr::ProcessImage::synthesize(r, 1 * MiB, 40 + r);
      auto file = writer.value().open_rank(r);
      ASSERT_TRUE(file.ok());
      blcr::CrfsFileSink sink(file.value());
      auto crc = blcr::CheckpointWriter::write_image(image, sink);
      ASSERT_TRUE(crc.ok());
      ASSERT_TRUE(file.value().close().ok());
      writer.value().record(r, image.content_bytes(), crc.value());
    }
    // The commit renames the staging directory while its files may still
    // be staged: they must drain under the published name.
    ASSERT_TRUE(writer.value().commit().ok());
    EXPECT_TRUE(set.value().verify(0).ok());
    tier->seal_epoch(0);
    if (!flush_within(tier, std::chrono::seconds(5))) {
      (void)fs.value().release();  // its unmount would wait on the same drain
      FAIL() << "flush() did not return after the publish rename";
    }
    EXPECT_TRUE(set.value().verify(0).ok());
  }
  EXPECT_TRUE(remote->contents("ckpts/epoch_000000/MANIFEST").ok());
  EXPECT_TRUE(remote->contents("ckpts/epoch_000000/rank_1.ckpt").ok());
  EXPECT_EQ(tier->tier_stats().stage_used, 0u);
}

// -- Fault injection: remote down mid-drain ----------------------------------

TEST(TieredFaults, RemoteDownMidDrainRetainsStageAndRecovers) {
  auto stage = std::make_shared<MemBackend>();
  auto remote_mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(remote_mem);
  TieredOptions opts;
  opts.retry_backoff = std::chrono::milliseconds(1);
  opts.retry_backoff_max = std::chrono::milliseconds(8);
  TieredBackend tier(stage, faulty, opts);
  obs::Registry reg;
  obs::EventBuffer events;
  tier.bind_obs(&reg, &events);

  faulty->fail_writes_after(0);  // remote tier is down
  const auto data = make_pattern(2 * MiB, 3);
  backend_write(tier, "burst.img", data);
  tier.seal_epoch(1);

  // The drain retries with backoff while the remote is down: staged data
  // must be retained (still readable), nothing evicted, retries counted,
  // and the health plane told once.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tier.tier_stats().retries < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  TierStats st = tier.tier_stats();
  EXPECT_GE(st.retries, 2u);
  EXPECT_EQ(st.units_evicted, 0u);
  EXPECT_EQ(st.stage_used, data.size());
  EXPECT_EQ(backend_read(tier, "burst.img", data.size()), data);
  bool down_event = false;
  for (const auto& ev : events.snapshot()) {
    if (ev.rule == "tier_remote_down") down_event = true;
  }
  EXPECT_TRUE(down_event);

  // Heal the remote: the drain must complete, evict, and announce
  // recovery. (Healing before unmount also keeps the test from hanging.)
  faulty->fail_writes_after(-1);
  ASSERT_TRUE(tier.flush().ok());
  st = tier.tier_stats();
  EXPECT_EQ(st.units_evicted, 1u);
  EXPECT_EQ(st.stage_used, 0u);
  auto remote_data = remote_mem->contents("burst.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), data);
  bool recovered_event = false;
  for (const auto& ev : events.snapshot()) {
    if (ev.rule == "tier_remote_recovered") recovered_event = true;
  }
  EXPECT_TRUE(recovered_event);
  EXPECT_GE(counter_value(reg, "crfs.tier.retries"), 2u);
}

// -- Fault injection: stage-full backpressure ---------------------------------

TEST(TieredFaults, TinyStageCapStallsWritersAndKeepsBytesExact) {
  auto stage = std::make_shared<MemBackend>();
  auto remote = std::make_shared<MemBackend>();
  TieredOptions opts;
  opts.stage_cap = 256 * KiB;  // far below the write set
  TieredBackend tier(stage, remote, opts);

  // 2 MiB through a 256 KiB stage: writers must stall on the cap and the
  // drain must free space unit by unit; every byte still lands exactly.
  const auto data = make_pattern(2 * MiB, 7);
  auto f = tier.open_file("bp.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(f.ok());
  constexpr std::size_t kStep = 64 * KiB;
  for (std::size_t off = 0; off < data.size(); off += kStep) {
    ASSERT_TRUE(
        tier.pwrite(f.value(), std::span(data).subspan(off, kStep), off).ok());
  }
  ASSERT_TRUE(tier.close_file(f.value()).ok());
  tier.seal_epoch(1);
  ASSERT_TRUE(tier.flush().ok());

  const TierStats st = tier.tier_stats();
  EXPECT_GT(st.stalls, 0u);
  EXPECT_GT(st.stall_ns, 0u);
  EXPECT_EQ(st.staged_bytes + st.spill_bytes, data.size());
  EXPECT_EQ(st.stage_used, 0u);
  auto remote_data = remote->contents("bp.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), data);
}

TEST(TieredFaults, OversizedWriteSpillsThroughToRemote) {
  auto stage = std::make_shared<MemBackend>();
  auto remote = std::make_shared<MemBackend>();
  TieredOptions opts;
  opts.stage_cap = 128 * KiB;
  TieredBackend tier(stage, remote, opts);

  // A single write larger than the whole stage cannot ever fit: it must
  // spill through to the remote directly instead of deadlocking.
  const auto big = make_pattern(512 * KiB, 11);
  backend_write(tier, "spill.img", big);
  const TierStats st = tier.tier_stats();
  EXPECT_EQ(st.spill_bytes, big.size());
  auto remote_data = remote->contents("spill.img");
  ASSERT_TRUE(remote_data.ok());
  EXPECT_EQ(remote_data.value(), big);
  EXPECT_EQ(backend_read(tier, "spill.img", big.size()), big);
}

// -- Full-mount integration: epochs seal drain units --------------------------

TEST(TieredMount, EpochFinalizeSealsAndLedgerGainsDrainColumns) {
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(),
                                              std::make_shared<MemBackend>(),
                                              TieredOptions{});
  auto fs = Crfs::mount(tier, Config{.chunk_size = 256 * KiB, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  ASSERT_NE(fs.value()->tiered_backend(), nullptr);

  ASSERT_TRUE(fs.value()->epoch_begin("ckpt-0").ok());
  FuseShim shim(*fs.value(), FuseOptions{});
  const auto data = make_pattern(1 * MiB, 21);
  auto h = shim.open("rank0.ckpt", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  for (std::size_t off = 0; off < data.size(); off += 64 * KiB) {
    ASSERT_TRUE(
        shim.write(h.value(), std::span(data).subspan(off, 64 * KiB), off).ok());
  }
  ASSERT_TRUE(shim.close(h.value()).ok());
  ASSERT_TRUE(fs.value()->epoch_end().ok());

  // Epoch finalize sealed the unit; the drain completes and reports back
  // into the ledger row via attach_drain.
  ASSERT_TRUE(tier->flush().ok());
  const auto records = fs.value()->epochs();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].drained_bytes, data.size());
  EXPECT_GT(records[0].drain_ns, 0u);
  EXPECT_GT(records[0].drain_bw(), 0.0);
  EXPECT_GT(records[0].drain_end_ns, 0u);

  // The mount surfaces the tier section and metrics.
  EXPECT_NE(fs.value()->stats_json().find("\"tier\":{\"enabled\":true"),
            std::string::npos);
  EXPECT_GE(counter_value(fs.value()->metrics(), "crfs.tier.drained_bytes"),
            data.size());
}

TEST(TieredMount, DecoratorAroundTheTierKeepsEpochSealing) {
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(),
                                              std::make_shared<MemBackend>(),
                                              TieredOptions{});
  auto faulty = std::make_shared<FaultyBackend>(tier);  // no faults armed
  auto fs = Crfs::mount(faulty, Config{.chunk_size = 256 * KiB, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  ASSERT_EQ(fs.value()->tiered_backend(), tier.get());

  ASSERT_TRUE(fs.value()->epoch_begin("ckpt-0").ok());
  FuseShim shim(*fs.value(), FuseOptions{});
  const auto data = make_pattern(1 * MiB, 23);
  auto h = shim.open("rank0.ckpt", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(shim.write(h.value(), data, 0).ok());
  ASSERT_TRUE(shim.close(h.value()).ok());
  ASSERT_TRUE(fs.value()->epoch_end().ok());

  // The finalized epoch sealed its unit through the decorator (flush()
  // would seal an open unit itself, so look before calling it); the drain
  // then evicts the unit and reports back into the ledger row.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tier->tier_stats().units_sealed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(tier->tier_stats().units_sealed, 1u);
  ASSERT_TRUE(tier->flush().ok());
  EXPECT_EQ(tier->tier_stats().units_evicted, 1u);
  const auto records = fs.value()->epochs();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].drained_bytes, data.size());
}

TEST(TieredMount, LedgerDrainTimeStartsAtTheFirstCopy) {
  auto remote = std::make_shared<ThrottledBackend>(std::make_shared<MemBackend>(),
                                                   64.0 * MiB);
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(), remote,
                                              TieredOptions{});
  auto fs = Crfs::mount(tier, Config{.chunk_size = 256 * KiB, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());

  ASSERT_TRUE(fs.value()->epoch_begin("ckpt-0").ok());
  FuseShim shim(*fs.value(), FuseOptions{});
  const auto data = make_pattern(1 * MiB, 22);
  auto h = shim.open("rank0.ckpt", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(shim.write(h.value(), data, 0).ok());
  ASSERT_TRUE(shim.close(h.value()).ok());
  // The eager copy moves bytes before the epoch ends and seals the unit.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (tier->tier_stats().drained_bytes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t copying_seen_ns = obs::now_ns();
  ASSERT_GT(tier->tier_stats().drained_bytes, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(fs.value()->epoch_end().ok());
  ASSERT_TRUE(tier->flush().ok());

  // drain_ns spans first copy to durable, not seal to durable: a drain
  // rate computed from it cannot exceed the rate the remote really gave.
  const auto records = fs.value()->epochs();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].drained_bytes, data.size());
  ASSERT_GT(records[0].drain_ns, 0u);
  EXPECT_LE(records[0].drain_end_ns - records[0].drain_ns, copying_seen_ns);
  EXPECT_GT(records[0].drain_end_ns, records[0].end_ns);
}

// -- Restore coherence: staged vs drained-and-evicted -------------------------

TEST(TieredRestore, BitIdenticalFromStageAndFromRemoteWithReadaheadOnOff) {
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(),
                                              std::make_shared<MemBackend>(),
                                              TieredOptions{});
  auto fs = Crfs::mount(tier, Config{.chunk_size = 256 * KiB, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  FuseShim shim(*fs.value(), FuseOptions{});

  const auto image = blcr::ProcessImage::synthesize(17, 6 * MiB, 55);
  std::uint64_t crc = 0;
  {
    auto f = File::open(shim, "rank0.ckpt",
                        {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(f.ok());
    blcr::CrfsFileSink sink(f.value());
    auto written = blcr::CheckpointWriter::write_image(image, sink);
    ASSERT_TRUE(written.ok());
    crc = written.value();
    ASSERT_TRUE(f.value().close().ok());
  }

  const auto restore_and_check = [&](const char* label) {
    SCOPED_TRACE(label);
    auto f = File::open(shim, "rank0.ckpt",
                        {.create = false, .truncate = false, .write = false});
    ASSERT_TRUE(f.ok());
    blcr::CrfsFileSource source(f.value());
    auto restored = blcr::RestartReader::read_image(source);
    ASSERT_TRUE(restored.ok()) << restored.error().to_string();
    EXPECT_EQ(restored.value().payload_crc, crc);
  };

  // Stage-resident, readahead on (default) and off.
  ASSERT_EQ(tier->tier_stats().units_evicted, 0u);
  restore_and_check("staged/readahead-on");
  fs.value()->tune("readahead", 0.0);
  restore_and_check("staged/readahead-off");

  // Drain + evict, then the same two restores come from the remote tier.
  tier->seal_epoch(1);
  ASSERT_TRUE(tier->flush().ok());
  ASSERT_GE(tier->tier_stats().units_evicted, 1u);
  ASSERT_EQ(tier->tier_stats().stage_used, 0u);
  restore_and_check("evicted/readahead-off");
  fs.value()->tune("readahead", 1.0);
  restore_and_check("evicted/readahead-on");
}

// -- Drain knobs ---------------------------------------------------------------

TEST(TieredControl, DrainKnobsVetoedWithoutTieredBackend) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = 64 * KiB, .pool_size = 1 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto r = fs.value()->tune("drain_mbps", 100.0);
  EXPECT_EQ(r.outcome, "vetoed");
  EXPECT_NE(r.reason.find("tiered backend"), std::string::npos);
}

TEST(TieredControl, DrainKnobsApplyOnTieredMount) {
  auto tier = std::make_shared<TieredBackend>(std::make_shared<MemBackend>(),
                                              std::make_shared<MemBackend>(),
                                              TieredOptions{});
  auto fs = Crfs::mount(tier, Config{.chunk_size = 64 * KiB, .pool_size = 1 * MiB});
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(fs.value()->tune("drain_mbps", 64.0).outcome, "applied");
  EXPECT_DOUBLE_EQ(tier->drain_mbps(), 64.0);
  EXPECT_EQ(fs.value()->tune("drain_parallel", 2.0).outcome, "applied");
  EXPECT_EQ(tier->drain_parallel(), 2u);
}

// -- Mount options ------------------------------------------------------------

TEST(TieredOptionsTest, MountOptionsParseAndFormatRoundtrip) {
  auto opts = parse_mount_options(
      "stage=mem,remote=/r,stage_cap=64M,drain_mbps=100,drain_parallel=2,"
      "fsync_mode=remote");
  ASSERT_TRUE(opts.ok()) << opts.error().to_string();
  const Config& cfg = opts.value().config;
  EXPECT_EQ(cfg.tier_stage, "mem");
  EXPECT_EQ(cfg.tier_remote, "/r");
  EXPECT_EQ(cfg.stage_cap, 64u * MiB);
  EXPECT_EQ(cfg.drain_mbps, 100u);
  EXPECT_EQ(cfg.drain_parallel, 2u);
  EXPECT_EQ(cfg.fsync_mode, "remote");

  const std::string rendered = format_mount_options(opts.value());
  EXPECT_NE(rendered.find("stage=mem"), std::string::npos);
  EXPECT_NE(rendered.find("remote=/r"), std::string::npos);
  EXPECT_NE(rendered.find("stage_cap=64M"), std::string::npos);
  EXPECT_NE(rendered.find("drain_mbps=100"), std::string::npos);
  EXPECT_NE(rendered.find("fsync_mode=remote"), std::string::npos);

  EXPECT_FALSE(parse_mount_options("fsync_mode=sometimes").ok());
  EXPECT_FALSE(parse_mount_options("stage=").ok());
}

// -- DES mirror ---------------------------------------------------------------

struct SimRun {
  double write_done_s = 0.0;
  double drain_done_s = 0.0;
  std::uint64_t staged = 0;
  std::uint64_t drained = 0;
  std::uint64_t evicted = 0;
  std::uint64_t stalls = 0;
};

sim::Task sim_burst(sim::Simulation& s, sim::TieredBackendSim& tier,
                    std::uint64_t bytes, SimRun* out) {
  constexpr std::uint64_t kRec = 4 * MiB;
  for (std::uint64_t off = 0; off < bytes; off += kRec) {
    co_await tier.write_call(0, 0, off, kRec, true);
  }
  out->write_done_s = s.now();
  tier.seal_epoch(1);
  tier.stop();
}

SimRun run_sim(sim::TieredBackendSim::Options opts, std::uint64_t bytes) {
  sim::Simulation s;
  auto tier = std::make_unique<sim::TieredBackendSim>(s, opts);
  SimRun out;
  s.spawn(sim_burst(s, *tier, bytes, &out));
  s.run();
  out.drain_done_s = tier->last_drain_end_s();
  out.staged = tier->staged_bytes();
  out.drained = tier->drained_bytes();
  out.evicted = tier->units_evicted();
  out.stalls = tier->stalls();
  return out;
}

TEST(TieredSim, AbsorptionDecouplesFromRemoteBandwidthDeterministically) {
  sim::TieredBackendSim::Options opts;
  opts.stage_bw = 1024.0 * MiB;
  opts.remote_bw = 64.0 * MiB;  // 16x slower remote
  const std::uint64_t bytes = 256 * MiB;
  const SimRun a = run_sim(opts, bytes);

  // Structural decoupling: the burst is absorbed at staging speed while
  // durability trails at remote speed — write completion must beat the
  // drain by at least the bandwidth ratio's margin.
  EXPECT_EQ(a.staged, bytes);
  EXPECT_EQ(a.drained, bytes);
  EXPECT_EQ(a.evicted, 1u);
  EXPECT_GT(a.drain_done_s, a.write_done_s * 4.0);

  // Byte-identical replay: the DES is deterministic.
  const SimRun b = run_sim(opts, bytes);
  EXPECT_EQ(a.write_done_s, b.write_done_s);
  EXPECT_EQ(a.drain_done_s, b.drain_done_s);
  EXPECT_EQ(a.staged, b.staged);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.stalls, b.stalls);
}

sim::Task sim_capped_burst(sim::Simulation& s, sim::TieredBackendSim& tier,
                           std::uint64_t bytes, unsigned epochs, SimRun* out) {
  constexpr std::uint64_t kRec = 4 * MiB;
  const std::uint64_t per_epoch = bytes / epochs;
  for (unsigned e = 0; e < epochs; ++e) {
    for (std::uint64_t off = 0; off < per_epoch; off += kRec) {
      co_await tier.write_call(0, static_cast<int>(e), off, kRec, true);
    }
    tier.seal_epoch(e + 1);
  }
  out->write_done_s = s.now();
  tier.stop();
}

TEST(TieredSim, StageCapBoundsOccupancyAndStallsWriters) {
  sim::TieredBackendSim::Options opts;
  opts.stage_bw = 1024.0 * MiB;
  opts.remote_bw = 64.0 * MiB;
  opts.stage_cap = 32 * MiB;
  sim::Simulation s;
  auto tier = std::make_unique<sim::TieredBackendSim>(s, opts);
  SimRun out;
  s.spawn(sim_capped_burst(s, *tier, 128 * MiB, 8, &out));
  s.run();

  // The cap held (peak occupancy never exceeded it), writers stalled, and
  // everything still drained.
  EXPECT_LE(tier->stage_peak(), opts.stage_cap);
  EXPECT_GT(tier->stalls(), 0u);
  EXPECT_EQ(tier->drained_bytes(), 128u * MiB);
  EXPECT_EQ(tier->units_evicted(), 8u);
}

struct EagerSimRun {
  double write_done_s = 0.0;
  double seal_to_durable_s = 0.0;
  std::uint64_t drained = 0;
};

EagerSimRun run_eager_sim(sim::TieredBackendSim::Options opts, std::uint64_t bytes) {
  sim::Simulation s;
  sim::TieredBackendSim tier(s, opts);
  SimRun run;
  s.spawn(sim_burst(s, tier, bytes, &run));
  s.run();
  return EagerSimRun{run.write_done_s, tier.max_drain_lag_s(), tier.drained_bytes()};
}

TEST(TieredSim, EagerDrainShrinksSealToDurableLagByTheAbsorbTime) {
  sim::TieredBackendSim::Options opts;
  opts.stage_bw = 1024.0 * MiB;
  opts.remote_bw = 64.0 * MiB;
  const std::uint64_t bytes = 256 * MiB;
  const EagerSimRun a = run_eager_sim(opts, bytes);
  EXPECT_EQ(a.drained, bytes);

  // Seal-then-drain would start at the seal and copy every step after it.
  const double steps = static_cast<double>(bytes / opts.drain_chunk);
  const double seal_then_drain_s =
      steps * (opts.per_call + static_cast<double>(opts.drain_chunk) / opts.remote_bw);
  // The eager drain starts when the first 4 MiB record lands, so the lag
  // shrinks by the absorb time less that one record.
  const double first_record_s = opts.per_call + static_cast<double>(4 * MiB) / opts.stage_bw;
  EXPECT_LT(a.seal_to_durable_s, seal_then_drain_s);
  EXPECT_NEAR(seal_then_drain_s - a.seal_to_durable_s, a.write_done_s - first_record_s, 1e-9);

  // Deterministic on virtual time.
  const EagerSimRun b = run_eager_sim(opts, bytes);
  EXPECT_EQ(a.seal_to_durable_s, b.seal_to_durable_s);
  EXPECT_EQ(a.write_done_s, b.write_done_s);
}

}  // namespace
}  // namespace crfs
