// Tiered burst-buffer backend tests: epoch-aware drain correctness
// (eviction only after remote durability), fault injection (remote tier
// down mid-drain, stage-full backpressure), restore coherence across
// tiers with readahead on/off, the shed_drain controller rule, and the
// DES mirror's deterministic replay + bandwidth-decoupling structure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/tiered_backend.h"
#include "backend/wrappers.h"
#include "blcr/checkpoint_writer.h"
#include "blcr/process_image.h"
#include "blcr/restart_reader.h"
#include "blcr/sinks.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"
#include "crfs/mount_options.h"
#include "obs/controller.h"
#include "obs/knobs.h"
#include "obs/sampler.h"
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

// -- Drain-unit correctness ---------------------------------------------------

TEST(TieredBackendTest, StagedDataIsReadableThenDrainsByteIdentical) {
  auto stage = std::make_shared<MemBackend>();
  auto remote = std::make_shared<MemBackend>();
  TieredBackend tier(stage, remote, TieredOptions{});

  const auto data = make_pattern(3 * MiB, 5);
  backend_write(tier, "ckpt.img", data);

  // Still staged: nothing sealed, remote has no bytes, reads come back
  // bit-identical from the stage.
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

// -- shed_drain controller rule ----------------------------------------------

TEST(TieredControl, ShedDrainHalvesThenRestoresOnEpochFinalize) {
  obs::Registry reg;
  std::atomic<std::int64_t> depth{4};
  reg.gauge_fn("crfs.queue.depth", [&] { return depth.load(); });
  auto& drain_hist = reg.histogram("crfs.tier.drain_pwrite_ns");
  drain_hist.record(100'000'000);  // 100 ms: remote saturated
  auto& epochs_done = reg.counter("crfs.epoch.completed");

  KnobPlane plane;
  plane.define(KnobDef{"drain_mbps", 0.0, 1e6, "MB/s"}, 200.0,
               [](double, double*, std::string*) { return true; });
  obs::DecisionLog log(64, nullptr, nullptr);
  obs::Controller controller(
      obs::ControllerConfig{}, log, nullptr, nullptr,
      [&](std::string_view name, double fb) { return plane.snapshot()->get(name, fb); },
      [&](std::string_view name, double requested) {
        const TuneResult r = plane.tune(name, requested);
        return obs::TuneOutcome{r.outcome, r.from, r.to, r.reason, r.generation};
      });
  obs::Sampler sampler(reg);
  sampler.set_tick_observer([&](const obs::Sample& s) { controller.tick(s); });

  // Saturated remote + standing queue: shed_drain halves drain_mbps.
  sampler.tick(1'000'000'000);
  {
    const auto decisions = log.snapshot();
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].rule, "shed_drain");
    EXPECT_EQ(decisions[0].knob, "drain_mbps");
    EXPECT_DOUBLE_EQ(decisions[0].from, 200.0);
    EXPECT_DOUBLE_EQ(decisions[0].to, 100.0);
  }

  // Still shed, no epoch finalized yet: nothing further fires (the rule
  // is a one-shot episode, not a repeated halving).
  sampler.tick(2'000'000'000);
  EXPECT_EQ(log.snapshot().size(), 1u);

  // The burst epoch finalizes: the rule restores the pre-shed value
  // immediately, cooldown notwithstanding.
  epochs_done.add(1);
  sampler.tick(2'500'000'000);
  const auto decisions = log.snapshot();
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[1].rule, "shed_drain");
  EXPECT_DOUBLE_EQ(decisions[1].to, 200.0);
  EXPECT_DOUBLE_EQ(plane.snapshot()->get("drain_mbps", 0.0), 200.0);
}

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

}  // namespace
}  // namespace crfs
