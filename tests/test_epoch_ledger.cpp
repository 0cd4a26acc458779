// Checkpoint-epoch attribution, chunk-lifecycle ledger, and the journal's
// postmortem frame (obs/epoch.h, obs/journal.h, docs/OBSERVABILITY.md):
//   * two interleaved multi-file checkpoint epochs account every byte
//     exactly, with sane durability-lag derivations, and the crfs.epoch.*
//     registry metrics agree with the ledger;
//   * the EpochTracker's rotation heuristics (ckpt generation key, quiet
//     gap, explicit markers) behave as documented;
//   * the epoch control file drives begin/end through the write API;
//   * a SIGABRT mid-checkpoint leaves a parseable postmortem frame in the
//     journal showing the open epoch and the last pipeline events, and
//     still reaches the SIGABRT handler the mount replaced;
//   * CrfsSimNode emits byte-identical epoch records across two runs.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "backend/mem_backend.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "obs/epoch.h"
#include "obs/journal.h"
#include "obs/json_lite.h"
#include "sim/crfs_sim.h"

namespace crfs {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// ------------------------------------------------------------- e2e ledger

class EpochLedger : public ::testing::Test {
 protected:
  void remount(Config cfg) {
    fs_.reset();
    mem_ = std::make_shared<MemBackend>();
    auto fs = Crfs::mount(mem_, cfg);
    ASSERT_TRUE(fs.ok()) << fs.error().to_string();
    fs_ = std::move(fs.value());
  }

  // One multi-file checkpoint "epoch": `files` ranks, `per_file` bytes
  // each, written by concurrent threads in `record`-sized pieces so the
  // two files' chunks interleave through the pipeline.
  void run_checkpoint(const std::string& label, unsigned files,
                      std::size_t per_file, std::size_t record) {
    ASSERT_TRUE(fs_->epoch_begin(label).ok());
    std::vector<std::thread> ranks;
    for (unsigned r = 0; r < files; ++r) {
      ranks.emplace_back([&, r] {
        const std::string path = label + ".rank" + std::to_string(r);
        std::vector<std::byte> buf(record, static_cast<std::byte>(r));
        auto h = fs_->open(path, {.create = true, .truncate = true, .write = true});
        ASSERT_TRUE(h.ok());
        for (std::size_t off = 0; off < per_file; off += record) {
          ASSERT_TRUE(fs_->write(h.value(), buf, off).ok());
        }
        ASSERT_TRUE(fs_->close(h.value()).ok());
      });
    }
    for (auto& t : ranks) t.join();
    ASSERT_TRUE(fs_->epoch_end().ok());
  }

  std::shared_ptr<MemBackend> mem_;
  std::unique_ptr<Crfs> fs_;
};

TEST_F(EpochLedger, TwoInterleavedEpochsAccountEveryByte) {
  constexpr std::size_t kChunk = 64 * KiB;
  constexpr unsigned kFiles = 2;
  constexpr std::size_t kPerFile = 512 * KiB;  // 8 chunks per file
  constexpr std::size_t kRecord = 16 * KiB;
  remount(Config{.chunk_size = kChunk, .pool_size = 8 * kChunk});

  run_checkpoint("ea", kFiles, kPerFile, kRecord);
  run_checkpoint("eb", kFiles, kPerFile, kRecord);

  const auto records = fs_->epochs();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(fs_->open_epoch().has_value());

  for (const auto& rec : records) {
    // Exact byte/chunk/file accounting: close() drains, so by epoch_end
    // every byte the app acknowledged is durable on the backend.
    EXPECT_EQ(rec.bytes, kFiles * kPerFile);
    EXPECT_EQ(rec.durable_bytes, kFiles * kPerFile);
    EXPECT_EQ(rec.files, kFiles);
    EXPECT_EQ(rec.chunks, kFiles * kPerFile / kChunk);
    EXPECT_EQ(rec.app_writes, kFiles * kPerFile / kRecord);
    EXPECT_GE(rec.backend_writes, 1u);
    EXPECT_LE(rec.backend_writes, rec.chunks);
    EXPECT_EQ(rec.io_errors, 0u);
    EXPECT_TRUE(rec.explicit_marker);
    EXPECT_FALSE(rec.open);

    // Monotone-sane lag derivations: every durable chunk contributed one
    // lag sample; the max bounds the mean; all inside the epoch's wall.
    EXPECT_GE(rec.end_ns, rec.start_ns);
    EXPECT_GT(rec.durability_lag_max_ns, 0u);
    EXPECT_GE(rec.durability_lag_sum_ns, rec.durability_lag_max_ns);
    EXPECT_GE(static_cast<double>(rec.durability_lag_max_ns),
              rec.mean_durability_lag_ns());
    EXPECT_LE(rec.durability_lag_max_ns, rec.end_ns - rec.start_ns);
    EXPECT_GT(rec.aggregation_ratio(), 1.0);  // 16K writes into 64K chunks
    EXPECT_GT(rec.effective_bw(), 0.0);
  }
  EXPECT_EQ(records[0].label, "ea");
  EXPECT_EQ(records[1].label, "eb");
  EXPECT_GE(records[1].start_ns, records[0].end_ns);

  // The crfs.epoch.* registry metrics are exactly the ledger's sums.
  auto& m = fs_->metrics();
  EXPECT_EQ(m.counter("crfs.epoch.completed").value(), 2u);
  EXPECT_EQ(m.counter("crfs.epoch.bytes").value(), records[0].bytes + records[1].bytes);
  EXPECT_EQ(m.counter("crfs.epoch.files").value(), records[0].files + records[1].files);
  EXPECT_EQ(m.counter("crfs.epoch.chunks").value(),
            records[0].chunks + records[1].chunks);
  // Durability-lag histogram saw one sample per chunk, mount-wide.
  const auto snap = m.snapshot();
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.first == "crfs.chunk.durability_lag_ns") {
      found = true;
      EXPECT_EQ(h.second.count, records[0].chunks + records[1].chunks);
    }
  }
  EXPECT_TRUE(found);

  // Ledger keys are in stats_json.
  const std::string json = fs_->stats_json();
  auto parsed = obs::json::parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  ASSERT_NE(parsed->get("epochs"), nullptr);
  ASSERT_TRUE(parsed->get("epochs")->is_array());
  EXPECT_EQ(parsed->get("epochs")->array->size(), 2u);
  ASSERT_NE(parsed->get("epochs_completed"), nullptr);
  EXPECT_EQ(parsed->get("epochs_completed")->number, 2.0);
}

TEST_F(EpochLedger, OpenEpochSnapshotTracksLiveCounters) {
  remount(Config{.chunk_size = 4096, .pool_size = 4 * 4096});
  ASSERT_TRUE(fs_->epoch_begin("live").ok());
  auto h = fs_->open("live.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("0123456789abcdef"), 0).ok());

  auto open = fs_->open_epoch();
  ASSERT_TRUE(open.has_value());
  EXPECT_TRUE(open->open);
  EXPECT_EQ(open->label, "live");
  EXPECT_EQ(open->bytes, 16u);
  EXPECT_EQ(open->files, 1u);
  EXPECT_EQ(fs_->metrics().gauge("crfs.epoch.open").value(),
            static_cast<std::int64_t>(open->id));

  ASSERT_TRUE(fs_->close(h.value()).ok());
  ASSERT_TRUE(fs_->epoch_end().ok());
  EXPECT_EQ(fs_->metrics().gauge("crfs.epoch.open").value(), 0);
}

TEST_F(EpochLedger, EpochApiErrorsWhenTrackingDisabled) {
  remount(Config{.chunk_size = 4096, .pool_size = 4 * 4096, .epoch_tracking = false});
  EXPECT_FALSE(fs_->epoch_begin("x").ok());
  EXPECT_FALSE(fs_->epoch_end().ok());
  EXPECT_TRUE(fs_->epochs().empty());
  EXPECT_FALSE(fs_->open_epoch().has_value());

  // The pipeline still works with attribution off.
  auto h = fs_->open("plain", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("data"), 0).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());
}

// ------------------------------------------------- rotation heuristics

TEST(EpochTrackerRules, CkptGenerationKeyExtraction) {
  using obs::EpochTracker;
  EXPECT_EQ(EpochTracker::ckpt_key("rank0.ckpt.12"), "ckpt:12");
  EXPECT_EQ(EpochTracker::ckpt_key("img_ckpt-7"), "ckpt:7");
  EXPECT_EQ(EpochTracker::ckpt_key("a/b/context.123.ckpt"), "");
  EXPECT_EQ(EpochTracker::ckpt_key("checkpoint"), "");
  EXPECT_EQ(EpochTracker::ckpt_key("plain.img"), "");
}

TEST(EpochTrackerRules, GenerationChangeRotatesAutomaticEpoch) {
  obs::EpochTracker tracker({.gap_ns = 1'000'000'000, .ledger_capacity = 8}, nullptr);
  auto e1 = tracker.on_open("rank0.ckpt.1", 100);
  auto e1b = tracker.on_open("rank1.ckpt.1", 200);
  EXPECT_EQ(e1.get(), e1b.get());  // same generation -> same epoch
  tracker.on_close("rank0.ckpt.1", 300);
  tracker.on_close("rank1.ckpt.1", 400);

  auto e2 = tracker.on_open("rank0.ckpt.2", 500);  // inside the quiet gap
  EXPECT_NE(e1.get(), e2.get());                   // generation change rotates anyway
  ASSERT_EQ(tracker.records().size(), 1u);
  EXPECT_EQ(tracker.records()[0].label, "ckpt:1");
  EXPECT_EQ(tracker.records()[0].files, 2u);
  EXPECT_EQ(tracker.records()[0].end_ns, 500u);
}

TEST(EpochTrackerRules, QuietGapRotatesAndReopenDedupesFiles) {
  obs::EpochTracker tracker({.gap_ns = 1'000, .ledger_capacity = 8}, nullptr);
  auto e1 = tracker.on_open("a.img", 0);
  auto e1b = tracker.on_open("a.img", 10);  // reopen: same epoch, one file
  EXPECT_EQ(e1.get(), e1b.get());
  tracker.on_close("a.img", 20);
  tracker.on_close("a.img", 30);

  // Within the gap: still the same epoch.
  auto e1c = tracker.on_open("b.img", 500);
  EXPECT_EQ(e1.get(), e1c.get());
  tracker.on_close("b.img", 600);

  // Past the gap with nothing open: next open starts a fresh epoch.
  auto e2 = tracker.on_open("c.img", 5'000);
  EXPECT_NE(e1.get(), e2.get());
  ASSERT_EQ(tracker.records().size(), 1u);
  EXPECT_EQ(tracker.records()[0].files, 2u);  // a.img counted once

  // A still-open handle blocks gap rotation no matter how long the quiet.
  auto e2b = tracker.on_open("d.img", 50'000);
  EXPECT_EQ(e2.get(), e2b.get());
}

TEST(EpochTrackerRules, ExplicitEpochNeverAutoRotates) {
  obs::EpochTracker tracker({.gap_ns = 10, .ledger_capacity = 8}, nullptr);
  tracker.begin("manual", 0);
  auto e1 = tracker.on_open("rank.ckpt.1", 100);
  tracker.on_close("rank.ckpt.1", 110);
  // Generation change AND quiet gap both elapsed: explicit epoch holds.
  auto e2 = tracker.on_open("rank.ckpt.2", 10'000);
  EXPECT_EQ(e1.get(), e2.get());
  EXPECT_TRUE(tracker.records().empty());

  tracker.end(20'000);
  ASSERT_EQ(tracker.records().size(), 1u);
  EXPECT_EQ(tracker.records()[0].label, "manual");
  EXPECT_TRUE(tracker.records()[0].explicit_marker);
  EXPECT_EQ(tracker.records()[0].files, 2u);
}

TEST(EpochTrackerRules, LedgerIsBoundedButTotalKeepsCounting) {
  obs::EpochTracker tracker({.gap_ns = 1, .ledger_capacity = 2}, nullptr);
  for (int i = 0; i < 5; ++i) {
    std::string label = "e";
    label += std::to_string(i);
    tracker.begin(label, i * 100);
    tracker.end(i * 100 + 50);
  }
  EXPECT_EQ(tracker.records().size(), 2u);
  EXPECT_EQ(tracker.total_finalized(), 5u);
  EXPECT_EQ(tracker.records()[0].label, "e3");
  EXPECT_EQ(tracker.records()[1].label, "e4");
}

// ------------------------------------------------------ marker control file

TEST_F(EpochLedger, MarkerFileDrivesExplicitEpochs) {
  remount(Config{.chunk_size = 4096, .pool_size = 4 * 4096});
  auto ctl = fs_->open(".crfs_epoch", {.create = true, .write = true});
  ASSERT_TRUE(ctl.ok());
  ASSERT_TRUE(fs_->write(ctl.value(), as_bytes("begin ckpt-A\n"), 0).ok());

  auto h = fs_->open("a.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(fs_->write(h.value(), as_bytes("payload"), 0).ok());
  ASSERT_TRUE(fs_->close(h.value()).ok());

  ASSERT_TRUE(fs_->write(ctl.value(), as_bytes("end"), 0).ok());
  // Bad commands error; the control file accepts nothing else.
  EXPECT_FALSE(fs_->write(ctl.value(), as_bytes("bogus"), 0).ok());
  ASSERT_TRUE(fs_->close(ctl.value()).ok());

  const auto records = fs_->epochs();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].label, "ckpt-A");
  EXPECT_TRUE(records[0].explicit_marker);
  EXPECT_EQ(records[0].bytes, 7u);
  // The control file never reached the backend.
  EXPECT_FALSE(mem_->contents(".crfs_epoch").ok());
}

// --------------------------------------------------------- concurrency

// Stress variant (TSan-checked under CRFS_SANITIZE, scripts/check_tsan.sh):
// concurrent writers against epoch begin/end churn exercises the
// EpochState handoff through WriteJobs across rotations.
TEST(EpochLedgerStress, RotationUnderConcurrentWriters) {
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{.chunk_size = 16 * KiB, .pool_size = 8 * 16 * KiB});
  ASSERT_TRUE(fs.ok());

  constexpr unsigned kWriters = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::vector<std::byte> buf(8 * KiB, static_cast<std::byte>(w));
      for (int round = 0; round < kRounds; ++round) {
        std::string path = "s";
        path += std::to_string(w);
        path += "_";
        path += std::to_string(round);
        auto h = fs.value()->open(path, {.create = true, .truncate = true, .write = true});
        if (!h.ok()) continue;
        for (std::size_t off = 0; off < 64 * KiB; off += buf.size()) {
          (void)fs.value()->write(h.value(), buf, off);
        }
        (void)fs.value()->close(h.value());
      }
    });
  }
  // Epoch churn from the control thread while writers run.
  for (int i = 0; i < 16; ++i) {
    (void)fs.value()->epoch_begin("churn" + std::to_string(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (void)fs.value()->epoch_end();
  }
  for (auto& t : writers) t.join();
  (void)fs.value()->epoch_end();

  // Each byte is attributed to exactly one EpochState; a rotation that
  // strikes while a file is mid-stream snapshots the record before the
  // file's remaining bytes land, so the ledger sum is bounded by (and
  // under no churn equals) the mount total — never above it, never zero.
  std::uint64_t ledger_bytes = 0;
  for (const auto& rec : fs.value()->epochs()) ledger_bytes += rec.bytes;
  if (auto open = fs.value()->open_epoch()) ledger_bytes += open->bytes;
  EXPECT_LE(ledger_bytes, static_cast<std::uint64_t>(kWriters) * kRounds * 64 * KiB);
  EXPECT_GT(ledger_bytes, 0u);
  EXPECT_GE(fs.value()->epochs().size(), 16u);  // the explicit churn epochs
}

// ------------------------------------------------------------ postmortem

/// The kPostmortem frames of the journal under `dir`, in decode order
/// (a crash file's frame comes last).
std::vector<obs::JournalRecord> postmortem_frames(const std::string& dir) {
  std::vector<obs::JournalRecord> out;
  for (auto& rec : obs::JournalReader::read_dir(dir).records) {
    if (rec.type == obs::FrameType::kPostmortem) out.push_back(std::move(rec));
  }
  return out;
}

/// Mounts with a journal under `dir`, writes 8 chunks into an open
/// "doomed" epoch, drains them, journals a postmortem (which also
/// publishes it for the crash path) and aborts with the file still open.
[[noreturn]] void abort_mid_checkpoint(const std::string& dir) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = 4096,
                               .pool_size = 4 * 4096,
                               .enable_tracing = true,
                               .journal_dir = dir});
  if (!fs.ok()) std::exit(3);
  (void)fs.value()->epoch_begin("doomed");
  auto h = fs.value()->open("mid.ckpt", {.create = true, .truncate = true, .write = true});
  if (!h.ok()) std::exit(3);
  std::vector<std::byte> buf(4096, std::byte{0x5A});
  for (std::size_t off = 0; off < 8 * 4096; off += 4096) {
    (void)fs.value()->write(h.value(), buf, off);
  }
  (void)fs.value()->fsync(h.value());   // pipeline drained
  (void)fs.value()->dump_postmortem();  // deterministic final refresh
  std::abort();                         // die mid-epoch, file still open
}

using PostmortemDeathTest = ::testing::Test;

TEST(PostmortemDeathTest, AbortMidCheckpointLeavesParseableDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ::testing::TempDir() + "crfs_epoch_postmortem_journal";
  std::filesystem::remove_all(dir);

  EXPECT_EXIT(abort_mid_checkpoint(dir), ::testing::KilledBySignal(SIGABRT), "");

  // Only the fatal-signal handler writes the crash file, and the reader
  // decodes it after the segments: the newest frame is the handler's.
  ASSERT_TRUE(std::filesystem::exists(dir + "/" + obs::kPostmortemFile))
      << "no crash file under " << dir;
  const auto frames = postmortem_frames(dir);
  ASSERT_EQ(frames.size(), 2u);  // dump_postmortem's, then the crash file's
  auto doc = obs::json::parse(frames.back().payload);
  ASSERT_TRUE(doc.has_value()) << "unparseable frame: " << frames.back().payload.substr(0, 400);

  const auto* open = doc->get("epoch_open");
  ASSERT_NE(open, nullptr);
  ASSERT_TRUE(open->is_object()) << "no epoch open at dump time";
  EXPECT_EQ(open->get("label")->string, "doomed");
  EXPECT_EQ(open->get("bytes")->number, 8.0 * 4096);
  EXPECT_EQ(open->get("durable_bytes")->number, 8.0 * 4096);  // fsync drained

  // The last pipeline spans made it into the trace tail.
  const auto* tail = doc->get("trace_tail");
  ASSERT_NE(tail, nullptr);
  ASSERT_TRUE(tail->is_array());
  EXPECT_GT(tail->array->size(), 0u);
  ASSERT_NE(doc->get("pipeline"), nullptr);
  ASSERT_NE(doc->get("events"), nullptr);
  std::filesystem::remove_all(dir);
}

// The child's own SIGABRT handler touches this file; a plain array, so
// the handler stays async-signal-safe.
char g_marker_path[512];

void touch_marker(int) {
  const int fd = ::open(g_marker_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) ::close(fd);
}

TEST(PostmortemDeathTest, AbortStillRunsTheHandlerTheMountReplaced) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = ::testing::TempDir() + "crfs_epoch_chain_journal";
  const std::string marker = ::testing::TempDir() + "crfs_epoch_chain_marker";
  std::filesystem::remove_all(dir);
  std::filesystem::remove(marker);
  std::snprintf(g_marker_path, sizeof(g_marker_path), "%s", marker.c_str());

  EXPECT_EXIT(
      {
        struct sigaction sa {};
        sa.sa_handler = touch_marker;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGABRT, &sa, nullptr);
        abort_mid_checkpoint(dir);  // the mount's handler replaces touch_marker
      },
      ::testing::KilledBySignal(SIGABRT), "");

  // Both handlers ran: the mount's wrote its crash frame, then handed the
  // signal to the application's, and the process still died of SIGABRT.
  EXPECT_TRUE(std::filesystem::exists(marker));
  EXPECT_TRUE(std::filesystem::exists(dir + "/" + obs::kPostmortemFile));
  EXPECT_EQ(postmortem_frames(dir).size(), 2u);
  std::filesystem::remove_all(dir);
  std::filesystem::remove(marker);
}

TEST(Postmortem, DumpOnDemandWithoutSignal) {
  const std::string dir = ::testing::TempDir() + "crfs_epoch_dump_now_journal";
  std::filesystem::remove_all(dir);
  {
    auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                          Config{.chunk_size = 4096, .pool_size = 4 * 4096, .journal_dir = dir});
    ASSERT_TRUE(fs.ok());
    auto h = fs.value()->open("f", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fs.value()->write(h.value(), as_bytes("abc"), 0).ok());
    ASSERT_TRUE(fs.value()->close(h.value()).ok());
    ASSERT_TRUE(fs.value()->dump_postmortem().ok());

    // Journaled and flushed before the call returns, with the mount live.
    const auto frames = postmortem_frames(dir);
    ASSERT_EQ(frames.size(), 1u);
    auto doc = obs::json::parse(frames[0].payload);
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->get("mount")->get("app_bytes")->number, 3.0);
    EXPECT_NE(doc->get("trace_tail"), nullptr);
  }
  // A clean unmount leaves no crash file.
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + obs::kPostmortemFile));
  std::filesystem::remove_all(dir);

  // No journal -> dump_postmortem errors instead of writing.
  auto plain = Crfs::mount(std::make_shared<MemBackend>(),
                           Config{.chunk_size = 4096, .pool_size = 4 * 4096});
  ASSERT_TRUE(plain.ok());
  const Status st = plain.value()->dump_postmortem();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, EINVAL);
}

// -------------------------------------------------------- sim determinism

// Fixed-bandwidth backend on the virtual clock (same shape as the
// SimHealth harness in test_obs.cpp).
class FixedRateBackend final : public sim::BackendSim {
 public:
  FixedRateBackend(sim::Simulation& sim, double bytes_per_sec)
      : sim_(sim), bw_(bytes_per_sec) {}
  sim::Task write_call(unsigned, sim::FileId, std::uint64_t, std::uint64_t len,
                       bool) override {
    co_await sim_.delay(static_cast<double>(len) / bw_);
  }
  sim::Task close_file(unsigned, sim::FileId, bool) override { co_return; }
  void stop() override {}

 private:
  sim::Simulation& sim_;
  double bw_;
};

sim::Task drive_two_epoch_checkpoint(sim::CrfsSimNode& node) {
  node.epoch_begin("sim-ckpt-0");
  co_await node.app_write(0, 4 * MiB);
  co_await node.app_write(1, 4 * MiB);
  co_await node.close_file(0);
  co_await node.close_file(1);
  node.epoch_end();
  node.epoch_begin("sim-ckpt-1");
  co_await node.app_write(2, 2 * MiB);
  co_await node.close_file(2);
  node.stop();  // finalizes the open epoch at the final virtual time
}

std::string run_sim_epochs() {
  sim::Simulation sim;
  sim::Calibration cal;
  FixedRateBackend backend(sim, 256.0 * MiB);
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 4 * MiB;
  cfg.io_threads = 2;
  sim::CrfsSimNode node(sim, cal, backend, /*node=*/0, cfg, FuseOptions{}, /*ppn=*/1);
  node.start();
  sim.spawn(drive_two_epoch_checkpoint(node));
  sim.run();
  return obs::epochs_to_json(node.epochs());
}

TEST(SimEpochs, RecordsAreByteIdenticalAcrossRuns) {
  const std::string a = run_sim_epochs();
  const std::string b = run_sim_epochs();
  EXPECT_EQ(a, b);

  auto doc = obs::json::parse(a);
  ASSERT_TRUE(doc.has_value()) << a;
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->array->size(), 2u);
  const auto& e0 = (*doc->array)[0];
  EXPECT_EQ(e0.get("label")->string, "sim-ckpt-0");
  EXPECT_EQ(e0.get("bytes")->number, 8.0 * MiB);
  EXPECT_EQ(e0.get("durable_bytes")->number, 8.0 * MiB);
  EXPECT_EQ(e0.get("files")->number, 2.0);
  EXPECT_EQ(e0.get("chunks")->number, 8.0);
  const auto& e1 = (*doc->array)[1];
  EXPECT_EQ(e1.get("label")->string, "sim-ckpt-1");
  EXPECT_EQ(e1.get("bytes")->number, 2.0 * MiB);
  EXPECT_EQ(e1.get("durable_bytes")->number, 2.0 * MiB);
}

}  // namespace
}  // namespace crfs
