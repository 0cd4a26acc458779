// Durable telemetry journal tests: writer/reader round-trip with CRC
// framing, segment rotation + retention (meta frame re-written at every
// segment head), torn-tail recovery after truncation and bit corruption,
// a fork+SIGKILL crash test proving the offline reader recovers every
// fully-written frame, DES determinism (two replays of the same throttled
// scenario produce byte-identical journals and slo_json), and a real-mount
// end-to-end SLO breach against a ThrottledBackend that must be visible in
// crfs.slo.* metrics, events, stats_json, the postmortem, and the journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "backend/mem_backend.h"
#include "backend/wrappers.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/fuse_shim.h"
#include "obs/json_lite.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "sim/crfs_sim.h"
#include "sim/engine.h"
#include "sim/throttled_sim.h"

namespace crfs {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "crfs_journal_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::uint64_t counter_value(const obs::Registry& reg, std::string_view name) {
  for (const auto& [n, v] : reg.snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

std::vector<std::string> segment_paths(const std::string& dir) {
  std::vector<std::string> out;
  if (!fs::exists(dir)) return out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("seg-", 0) == 0 && e.path().extension() == ".crfsj") {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string concat_segments(const std::string& dir) {
  std::string all;
  for (const auto& p : segment_paths(dir)) all += slurp(p);
  return all;
}

// ------------------------------------------------------------- round-trip

TEST(Journal, RoundTripPreservesFramesInOrder) {
  const std::string dir = fresh_dir("roundtrip");
  obs::Registry reg;
  obs::Journal j({.dir = dir}, &reg);
  ASSERT_TRUE(j.ok()) << j.error();
  j.set_meta(R"({"mount":"test"})", 5);
  j.append(obs::FrameType::kSample, 100, R"({"seq":0})");
  j.append(obs::FrameType::kEvent, 200, R"({"rule":"x"})");
  j.append(obs::FrameType::kEpoch, 300, R"({"id":1})");
  j.append(obs::FrameType::kSlow, 400, R"({"lat":9})");
  j.flush(1'000'000'000, /*force_fsync=*/true);

  const auto r = obs::JournalReader::read_dir(dir);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.segments, 1u);
  EXPECT_EQ(r.meta_json, R"({"mount":"test"})");
  ASSERT_EQ(r.records.size(), 4u);
  EXPECT_EQ(r.records[0].type, obs::FrameType::kSample);
  EXPECT_EQ(r.records[0].ts_ns, 100u);
  EXPECT_EQ(r.records[0].payload, R"({"seq":0})");
  EXPECT_EQ(r.records[1].type, obs::FrameType::kEvent);
  EXPECT_EQ(r.records[2].type, obs::FrameType::kEpoch);
  EXPECT_EQ(r.records[3].type, obs::FrameType::kSlow);
  EXPECT_EQ(r.records[3].seq, r.records[0].seq + 3);

  // Registry mirror: 4 appends + 1 meta, at least one fsync, no errors.
  EXPECT_EQ(counter_value(reg, "crfs.journal.appends"), j.appends());
  EXPECT_GE(counter_value(reg, "crfs.journal.fsyncs"), 1u);
  EXPECT_EQ(counter_value(reg, "crfs.journal.errors"), 0u);
  EXPECT_GT(counter_value(reg, "crfs.journal.bytes"), 0u);
}

TEST(Journal, ReadDirOnMissingOrEmptyDirFails) {
  const auto missing = obs::JournalReader::read_dir("/nonexistent/journal");
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(missing.error.empty());
  const std::string dir = fresh_dir("empty");
  const auto empty = obs::JournalReader::read_dir(dir);
  EXPECT_FALSE(empty.ok);
}

// ------------------------------------------- rotation + retention + meta

TEST(Journal, RotationRetiresOldSegmentsAndReplantsMeta) {
  const std::string dir = fresh_dir("rotate");
  obs::Journal j({.dir = dir, .segment_bytes = 512, .max_bytes = 2048}, nullptr);
  ASSERT_TRUE(j.ok()) << j.error();
  j.set_meta(R"({"cfg":"rotate-test"})", 0);
  const std::string payload(100, 'x');
  for (std::uint64_t i = 0; i < 64; ++i) {
    j.append(obs::FrameType::kSample, i, payload);
    j.flush(i, false);
  }
  j.flush(64, true);

  EXPECT_GT(j.segments_created(), 4u);
  const auto segs = segment_paths(dir);
  ASSERT_GE(segs.size(), 2u);
  // Retention unlinked the oldest: segment 0 must be gone and the total
  // on-disk footprint bounded near max_bytes.
  EXPECT_EQ(fs::exists(dir + "/seg-00000000.crfsj"), false);
  std::size_t total = 0;
  for (const auto& p : segs) total += fs::file_size(p);
  EXPECT_LE(total, 2048u + 512u + 256u);

  // Every surviving segment starts with a kMeta frame (magic at offset 0,
  // FrameType u16 at offset 6 — see the header layout in journal.h).
  for (const auto& p : segs) {
    const std::string bytes = slurp(p);
    ASSERT_GE(bytes.size(), obs::kJournalHeaderBytes);
    std::uint32_t magic = 0;
    std::memcpy(&magic, bytes.data(), sizeof(magic));
    EXPECT_EQ(magic, obs::kJournalMagic) << p;
    std::uint16_t type = 0;
    std::memcpy(&type, bytes.data() + 6, sizeof(type));
    EXPECT_EQ(type, static_cast<std::uint16_t>(obs::FrameType::kMeta)) << p;
  }

  // The reader still sees the meta and a contiguous suffix of samples.
  const auto r = obs::JournalReader::read_dir(dir);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.meta_json, R"({"cfg":"rotate-test"})");
  EXPECT_FALSE(r.records.empty());
  for (std::size_t k = 1; k < r.records.size(); ++k) {
    EXPECT_EQ(r.records[k].ts_ns, r.records[k - 1].ts_ns + 1);
  }
}

// ------------------------------------------------------- torn-tail + CRC

TEST(Journal, TruncatedTailIsReportedTornNotFatal) {
  const std::string dir = fresh_dir("torn");
  obs::Journal j({.dir = dir}, nullptr);
  ASSERT_TRUE(j.ok()) << j.error();
  j.set_meta("{}", 0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    j.append(obs::FrameType::kSample, i, "{\"i\":" + std::to_string(i) + "}");
  }
  j.flush(0, true);

  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  // Chop into the last frame: everything before it must still decode.
  fs::resize_file(segs[0], fs::file_size(segs[0]) - 3);

  const auto r = obs::JournalReader::read_dir(dir);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.torn_tail);
  EXPECT_GT(r.torn_bytes, 0u);
  ASSERT_EQ(r.records.size(), 9u);
  EXPECT_EQ(r.records.back().payload, "{\"i\":8}");
}

TEST(Journal, CrcRejectsCorruptedFrame) {
  const std::string dir = fresh_dir("crc");
  obs::Journal j({.dir = dir}, nullptr);
  ASSERT_TRUE(j.ok()) << j.error();
  j.set_meta("{}", 0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    j.append(obs::FrameType::kSample, i, "{\"i\":" + std::to_string(i) + "}");
  }
  j.flush(0, true);

  const auto segs = segment_paths(dir);
  ASSERT_EQ(segs.size(), 1u);
  // Flip a payload byte inside the final frame; its CRC must reject it.
  {
    std::fstream f(segs[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    char c = 0;
    f.seekg(-2, std::ios::end);
    f.get(c);
    f.seekp(-2, std::ios::end);
    f.put(static_cast<char>(c ^ 0x5A));
  }

  const auto r = obs::JournalReader::read_dir(dir);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 9u);
  EXPECT_EQ(r.records.back().payload, "{\"i\":8}");
}

// The crash file: written by write_crash_frame (what the fatal-signal
// handlers call), decoded after the segments, and folded into the segment
// sequence by the next incarnation, so a later frame stays the newest.
TEST(Journal, CrashFrameIsReadLastAndKeepsItsPlaceOnRemount) {
  const std::string dir = fresh_dir("crashfile");
  {
    obs::Journal j({.dir = dir}, nullptr);
    j.set_postmortem_renderer([] { return std::string(R"({"life":1})"); });
    j.append(obs::FrameType::kSample, 1, R"({"seq":0})");
    j.flush(1, /*force_fsync=*/true);
    ASSERT_TRUE(j.write_crash_frame());
    j.set_postmortem_renderer(nullptr);
  }
  auto r = obs::JournalReader::read_dir(dir);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[1].type, obs::FrameType::kPostmortem);
  EXPECT_EQ(r.records[1].payload, R"({"life":1})");

  {
    obs::Journal j({.dir = dir}, nullptr);
    j.set_postmortem_renderer([] { return std::string(R"({"life":2})"); });
    ASSERT_TRUE(j.refresh_postmortem(/*append=*/true));
    j.set_postmortem_renderer(nullptr);
  }
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + obs::kPostmortemFile));
  r = obs::JournalReader::read_dir(dir);
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<std::string> postmortems;
  for (const auto& rec : r.records) {
    if (rec.type == obs::FrameType::kPostmortem) postmortems.push_back(rec.payload);
  }
  EXPECT_EQ(postmortems, (std::vector<std::string>{R"({"life":1})", R"({"life":2})"}));
}

// -------------------------------------------------------- SIGKILL crash
// Named JournalCrash so scripts/check_tsan.sh can exclude the fork from
// the TSan pass (fork + instrumented runtime don't mix).

TEST(JournalCrash, SigkilledWriterLeavesRecoverablePrefix) {
  const std::string dir = fresh_dir("sigkill");
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: append+flush numbered frames forever (one big segment so the
    // recovered prefix is the full history, not a retention suffix).
    obs::Journal j({.dir = dir, .segment_bytes = 64u << 20, .max_bytes = 128u << 20},
                   nullptr);
    if (!j.ok()) _exit(1);
    j.set_meta(R"({"writer":"doomed"})", 0);
    for (std::uint64_t i = 0;; ++i) {
      j.append(obs::FrameType::kSample, i, "{\"i\":" + std::to_string(i) + "}");
      j.flush(i, false);
    }
    _exit(0);  // unreachable
  }

  // Parent: wait for a healthy amount of journal, then SIGKILL mid-append.
  const std::string seg0 = dir + "/seg-00000000.crfsj";
  for (int spins = 0; spins < 2000; ++spins) {
    std::error_code ec;
    if (fs::exists(seg0, ec) && fs::file_size(seg0, ec) > 64 * 1024) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  const auto r = obs::JournalReader::read_dir(dir);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.meta_json, R"({"writer":"doomed"})");
  ASSERT_GT(r.records.size(), 100u);
  // Every fully-written frame before the torn tail survives, in order,
  // with nothing missing: at most the one in-flight frame is lost.
  for (std::size_t k = 0; k < r.records.size(); ++k) {
    ASSERT_EQ(r.records[k].payload, "{\"i\":" + std::to_string(k) + "}");
  }
}

// -------------------------------------------------------- DES determinism

sim::Task drive_sim(sim::CrfsSimNode& node, std::uint64_t bytes) {
  co_await node.app_write(0, bytes);
  co_await node.close_file(0);
  node.stop();
}

struct SimReplay {
  std::string slo_json;
  std::string journal_bytes;
  std::uint64_t breaches = 0;
  std::uint64_t records = 0;
};

// One throttled-backend replay journaling into `dir` (cleaned first, so
// both runs embed the identical meta frame — the config string includes
// the journal path).
SimReplay run_throttled_replay(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  sim::Simulation sim;
  sim::Calibration cal;
  sim::ThrottledBackendSim backend(sim);
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 8 * MiB;
  cfg.io_threads = 2;
  cfg.sample_ms = 10;
  cfg.journal_dir = dir;
  cfg.journal_fsync_ms = 0;
  cfg.slo_lag_ms = 1;  // any real flush latency breaches this
  cfg.slo_short_s = 1;
  cfg.slo_long_s = 5;
  sim::CrfsSimNode node(sim, cal, backend, /*node=*/0, cfg, FuseOptions{}, /*ppn=*/1);

  obs::Sampler sampler(node.metrics());
  node.start();
  sim.spawn(node.sample_loop(sampler, 0.010));
  sim.spawn(drive_sim(node, 64 * MiB));
  sim.run();

  SimReplay out;
  out.slo_json = node.slo_json();
  out.breaches = counter_value(node.metrics(), "crfs.slo.breaches");
  out.journal_bytes = concat_segments(dir);
  const auto r = obs::JournalReader::read_dir(dir);
  out.records = r.ok ? r.records.size() : 0;
  return out;
}

TEST(JournalSim, ReplaysAreByteIdenticalIncludingBurnRates) {
  const std::string dir = fresh_dir("sim_det");
  const SimReplay a = run_throttled_replay(dir);
  const SimReplay b = run_throttled_replay(dir);

  // The throttled scenario must actually breach the 1ms lag budget, and
  // the virtual-time journal/burn-rate state must replay byte-for-byte.
  EXPECT_GE(a.breaches, 1u);
  EXPECT_GT(a.records, 0u);
  EXPECT_FALSE(a.journal_bytes.empty());
  EXPECT_EQ(a.breaches, b.breaches);
  EXPECT_EQ(a.slo_json, b.slo_json);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.journal_bytes, b.journal_bytes);
}

// ------------------------------------------------- real-mount breach e2e

TEST(JournalMount, ThrottledBackendDrivesVisibleSloBreach) {
  const std::string dir = fresh_dir("mount_breach");
  auto throttled = std::make_shared<ThrottledBackend>(
      std::make_shared<MemBackend>(), /*bytes_per_second=*/8.0 * MiB);
  Config cfg;
  cfg.chunk_size = 256 * KiB;
  cfg.pool_size = 2 * MiB;
  cfg.large_write_bypass = false;  // keep writes on the chunk pipeline
  cfg.sample_ms = 5;
  cfg.journal_dir = dir + "/journal";
  cfg.journal_fsync_ms = 0;
  cfg.slo_lag_ms = 1;  // 1ms durability-lag budget vs an 8 MiB/s backend
  cfg.slo_stall_pct = 1;
  cfg.slo_short_s = 1;
  cfg.slo_long_s = 5;
  auto mounted = Crfs::mount(throttled, cfg);
  ASSERT_TRUE(mounted.ok()) << mounted.error().to_string();
  auto fs_ = std::move(mounted.value());

  auto h = fs_->open("ckpt.img", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  const std::vector<std::byte> data(1 * MiB);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs_->write(h.value(), data, static_cast<std::uint64_t>(i) * data.size()).ok());
    ASSERT_TRUE(fs_->fsync(h.value()).ok());
  }
  ASSERT_TRUE(fs_->close(h.value()).ok());
  // Let the sampler observe the (terrible) durability lags a few times.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Live surfaces: metric, event, stats_json, postmortem.
  EXPECT_GE(counter_value(fs_->metrics(), "crfs.slo.breaches"), 1u);
  bool saw_breach_event = false;
  for (const auto& ev : fs_->events()) {
    if (ev.rule == "slo_breach") saw_breach_event = true;
  }
  EXPECT_TRUE(saw_breach_event);

  const std::string stats = fs_->stats_json();
  auto doc = obs::json::parse(stats);
  ASSERT_TRUE(doc.has_value()) << stats;
  EXPECT_DOUBLE_EQ(doc->get("schema_version")->number, 4.0);
  const auto* slo = doc->get("slo");
  ASSERT_TRUE(slo != nullptr && slo->is_object()) << stats;
  EXPECT_TRUE(slo->get("enabled")->boolean);
  EXPECT_TRUE(slo->get("breached")->boolean);
  const auto* journal = doc->get("journal");
  ASSERT_TRUE(journal != nullptr && journal->is_object());
  EXPECT_TRUE(journal->get("enabled")->boolean);
  EXPECT_GT(journal->get("appends")->number, 0.0);

  auto pm = obs::json::parse(fs_->render_postmortem());
  ASSERT_TRUE(pm.has_value());
  EXPECT_NE(pm->get("slo"), nullptr);
  EXPECT_NE(pm->get("journal"), nullptr);

  // Unmount, then prove the breach survived the process via the journal.
  fs_.reset();
  const auto r = obs::JournalReader::read_dir(cfg.journal_dir);
  ASSERT_TRUE(r.ok) << r.error;
  bool journaled_breach = false;
  std::size_t samples = 0;
  for (const auto& rec : r.records) {
    if (rec.type == obs::FrameType::kSample) ++samples;
    if (rec.type == obs::FrameType::kEvent &&
        rec.payload.find("slo_breach") != std::string::npos) {
      journaled_breach = true;
    }
  }
  EXPECT_GT(samples, 0u);
  EXPECT_TRUE(journaled_breach);
  // The meta frame carries the mount config and the SLO targets.
  auto meta = obs::json::parse(r.meta_json);
  ASSERT_TRUE(meta.has_value()) << r.meta_json;
  EXPECT_NE(meta->get("slo"), nullptr);
  EXPECT_NE(meta->get("config"), nullptr);
}

}  // namespace
}  // namespace crfs
