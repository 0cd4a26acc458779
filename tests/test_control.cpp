// Control-plane tests: KnobPlane bounds/veto/generation semantics and the
// Crfs tune plumbing (API, .crfs_tune control file, audit trail in
// metrics/stats_json). The knob sets of the mount and the DES node are
// pinned, and a control byte in an audited knob name stays escaped in
// every JSON document.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "backend/mem_backend.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/fuse_shim.h"
#include "obs/json_lite.h"
#include "obs/knobs.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "sim/crfs_sim.h"
#include "sim/engine.h"
#include "sim/throttled_sim.h"

namespace crfs {
namespace {

std::uint64_t counter_value(const obs::Registry& reg, std::string_view name) {
  for (const auto& [n, v] : reg.snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

std::int64_t gauge_value(const obs::Registry& reg, std::string_view name) {
  for (const auto& [n, v] : reg.snapshot().gauges) {
    if (n == name) return v;
  }
  return -1;
}

// ------------------------------------------------------------ KnobPlane

TEST(KnobPlane, TuneAppliesWithinBoundsAndBumpsGeneration) {
  KnobPlane plane;
  double live = 4.0;
  plane.define(KnobDef{"x", 1.0, 10.0, "chunks"}, live,
               [&](double v, double*, std::string*) {
                 live = v;
                 return true;
               });
  EXPECT_EQ(plane.generation(), 0u);
  EXPECT_DOUBLE_EQ(plane.snapshot()->get("x"), 4.0);

  const TuneResult r = plane.tune("x", 6.0);
  EXPECT_EQ(r.outcome, "applied");
  EXPECT_DOUBLE_EQ(r.from, 4.0);
  EXPECT_DOUBLE_EQ(r.to, 6.0);
  EXPECT_TRUE(r.reason.empty());
  EXPECT_EQ(r.generation, 1u);
  EXPECT_DOUBLE_EQ(live, 6.0);
  EXPECT_DOUBLE_EQ(plane.snapshot()->get("x"), 6.0);
  EXPECT_EQ(plane.generation(), 1u);
}

TEST(KnobPlane, OutOfBoundsRequestsAreClampedWithReason) {
  KnobPlane plane;
  plane.define(KnobDef{"x", 1.0, 10.0, "chunks"}, 4.0,
               [](double, double*, std::string*) { return true; });
  const TuneResult high = plane.tune("x", 100.0);
  EXPECT_EQ(high.outcome, "clamped");
  EXPECT_DOUBLE_EQ(high.to, 10.0);
  EXPECT_EQ(high.reason, "clamped to [1, 10]");
  const TuneResult low = plane.tune("x", -3.0);
  EXPECT_EQ(low.outcome, "clamped");
  EXPECT_DOUBLE_EQ(low.to, 1.0);
}

TEST(KnobPlane, UnknownKnobAndApplyRefusalAreVetoed) {
  KnobPlane plane;
  plane.define(KnobDef{"x", 1.0, 10.0, "chunks"}, 4.0,
               [](double, double*, std::string* reason) {
                 *reason = "component says no";
                 return false;
               });
  const TuneResult unknown = plane.tune("y", 2.0);
  EXPECT_EQ(unknown.outcome, "vetoed");
  EXPECT_EQ(unknown.reason, "unknown knob 'y'");

  const TuneResult refused = plane.tune("x", 8.0);
  EXPECT_EQ(refused.outcome, "vetoed");
  EXPECT_EQ(refused.reason, "component says no");
  EXPECT_DOUBLE_EQ(refused.to, 4.0);  // value untouched
  // Vetoes never publish: generation stays 0 and the snapshot is stale.
  EXPECT_EQ(plane.generation(), 0u);
  EXPECT_DOUBLE_EQ(plane.snapshot()->get("x"), 4.0);
}

TEST(KnobPlane, PartialApplyReportsClampedWithApplyReason) {
  KnobPlane plane;
  plane.define(KnobDef{"x", 1.0, 100.0, "chunks"}, 8.0,
               [](double v, double* achieved, std::string* reason) {
                 if (v < 8.0) {
                   *achieved = 6.0;  // e.g. shrink bounded by free chunks
                   *reason = "shrink bounded by free chunks";
                 }
                 return true;
               });
  const TuneResult r = plane.tune("x", 2.0);
  EXPECT_EQ(r.outcome, "clamped");
  EXPECT_DOUBLE_EQ(r.to, 6.0);
  EXPECT_EQ(r.reason, "shrink bounded by free chunks");
  EXPECT_DOUBLE_EQ(plane.snapshot()->get("x"), 6.0);
}

TEST(KnobPlane, ToJsonListsSortedKnobsWithBounds) {
  KnobPlane plane;
  plane.define(KnobDef{"zeta", 0.0, 5.0, "ms"}, 1.0, {});
  plane.define(KnobDef{"alpha", 1.0, 10.0, "chunks"}, 4.0, {});
  auto doc = obs::json::parse(plane.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->get("generation")->number, 0.0);
  const auto* knobs = doc->get("knobs");
  ASSERT_TRUE(knobs != nullptr && knobs->is_array());
  ASSERT_EQ(knobs->array->size(), 2u);
  EXPECT_EQ((*knobs->array)[0].get("name")->string, "alpha");
  EXPECT_EQ((*knobs->array)[1].get("name")->string, "zeta");
  EXPECT_DOUBLE_EQ((*knobs->array)[0].get("max")->number, 10.0);
  EXPECT_EQ((*knobs->array)[0].get("unit")->string, "chunks");
}

// ------------------------------------------------------- Crfs::tune API

Config small_config() {
  Config cfg;
  cfg.chunk_size = 256 * KiB;
  cfg.pool_size = 1 * MiB;  // 4 chunks
  cfg.io_threads = 1;
  return cfg;
}

TEST(CrfsTune, PoolGrowReclampsBatchAndLandsEverywhere) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), small_config());
  ASSERT_TRUE(fs.ok());
  Crfs& crfs = *fs.value();

  // 4-chunk pool: the effective io_batch was mount-clamped to half of it.
  EXPECT_DOUBLE_EQ(crfs.knob_plane().snapshot()->get("io_batch"), 2.0);

  const obs::CtlDecision d = crfs.tune("pool_chunks", 8.0);
  EXPECT_EQ(d.outcome, "applied");
  EXPECT_EQ(d.source, "manual");
  EXPECT_EQ(d.rule, "tune");
  EXPECT_DOUBLE_EQ(d.from, 4.0);
  EXPECT_DOUBLE_EQ(d.to, 8.0);
  EXPECT_EQ(d.seq, 1u);

  // Audit trail: decision log, crfs.ctl.* counters, knob gauge, event log.
  EXPECT_EQ(crfs.decision_log().total(), 1u);
  EXPECT_EQ(counter_value(crfs.metrics(), "crfs.ctl.decisions"), 1u);
  EXPECT_EQ(counter_value(crfs.metrics(), "crfs.ctl.applied"), 1u);
  EXPECT_EQ(gauge_value(crfs.metrics(), "crfs.knob.pool_chunks"), 8);
  const auto events = crfs.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rule, "ctl.tune");
  EXPECT_NE(events[0].message.find("manual pool_chunks 4 -> 8"), std::string::npos);

  // A raise beyond the knob's ceiling clamps with the bounds in the reason.
  const obs::CtlDecision big = crfs.tune("pool_chunks", 1000.0);
  EXPECT_EQ(big.outcome, "clamped");
  EXPECT_DOUBLE_EQ(big.to, 16.0);  // tune_pool_max auto = 4x pool
  EXPECT_NE(big.reason.find("clamped to [1, 16]"), std::string::npos);

  // io_batch may now use half of the grown pool.
  const obs::CtlDecision batch = crfs.tune("io_batch", 8.0);
  EXPECT_EQ(batch.outcome, "applied");
  EXPECT_DOUBLE_EQ(batch.to, 8.0);

  // ...but never more than that: requests beyond it report the cap.
  const obs::CtlDecision over = crfs.tune("io_batch", 64.0);
  EXPECT_EQ(over.outcome, "clamped");
  EXPECT_DOUBLE_EQ(over.to, 8.0);
  EXPECT_NE(over.reason.find("capped at half the pool"), std::string::npos);
}

TEST(CrfsTune, ComponentVetoesAreAuditedNotApplied) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), small_config());
  ASSERT_TRUE(fs.ok());
  Crfs& crfs = *fs.value();

  // sample_ms=0 mount: no sampler thread to re-arm.
  const obs::CtlDecision period = crfs.tune("sample_ms", 50.0);
  EXPECT_EQ(period.outcome, "vetoed");
  EXPECT_NE(period.reason.find("sampler disabled"), std::string::npos);

  const obs::CtlDecision unknown = crfs.tune("warp_factor", 9.0);
  EXPECT_EQ(unknown.outcome, "vetoed");
  EXPECT_NE(unknown.reason.find("unknown knob 'warp_factor'"), std::string::npos);

  EXPECT_EQ(counter_value(crfs.metrics(), "crfs.ctl.vetoed"), 2u);
  EXPECT_EQ(crfs.knob_plane().generation(), 0u);  // nothing moved
}

TEST(CrfsTune, StatsJsonCarriesSchemaVersionAndControllerSection) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), small_config());
  ASSERT_TRUE(fs.ok());
  (void)fs.value()->tune("pool_chunks", 8.0);

  auto doc = obs::json::parse(fs.value()->stats_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->get("schema_version") != nullptr);
  EXPECT_DOUBLE_EQ(doc->get("schema_version")->number, 4.0);
  const auto* ctl = doc->get("controller");
  ASSERT_TRUE(ctl != nullptr && ctl->is_object());
  EXPECT_DOUBLE_EQ(ctl->get("generation")->number, 1.0);
  EXPECT_DOUBLE_EQ(ctl->get("decisions_total")->number, 1.0);
  const auto* decisions = ctl->get("decisions");
  ASSERT_TRUE(decisions != nullptr && decisions->is_array());
  ASSERT_EQ(decisions->array->size(), 1u);
  EXPECT_EQ((*decisions->array)[0].get("knob")->string, "pool_chunks");
  const auto* knobs = ctl->get("knob_plane")->get("knobs");
  ASSERT_TRUE(knobs != nullptr && knobs->is_array());
  EXPECT_EQ(knobs->array->size(), 11u);
}

// ----------------------------------------------- .crfs_tune control file

TEST(TuneControlFile, TokensApplyAndMalformedOnesNameTheToken) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), small_config());
  ASSERT_TRUE(fs.ok());
  FuseShim shim(*fs.value(), FuseOptions{});

  auto h = shim.open(".crfs_tune", {.write = true});
  ASSERT_TRUE(h.ok());

  const auto put = [&](const char* text) {
    std::vector<std::byte> payload(std::strlen(text));
    std::memcpy(payload.data(), text, payload.size());
    return shim.write(h.value(), payload, 0);
  };

  auto good = put("pool_chunks=8, io_batch=4");
  ASSERT_TRUE(good.ok());
  const auto decisions = fs.value()->decision_log().snapshot();
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].source, "ctlfile");
  EXPECT_EQ(decisions[0].knob, "pool_chunks");
  EXPECT_EQ(decisions[1].knob, "io_batch");
  EXPECT_DOUBLE_EQ(fs.value()->knob_plane().snapshot()->get("pool_chunks"), 8.0);

  // Malformed / unknown tokens fail with EINVAL naming the exact token.
  auto bad_value = put("io_batch=abc");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.error().to_string().find("\"io_batch=abc\""), std::string::npos);
  auto no_eq = put("io_batch");
  ASSERT_FALSE(no_eq.ok());
  EXPECT_NE(no_eq.error().to_string().find("expected knob=value"), std::string::npos);
  auto unknown = put("bogus=1");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().to_string().find("\"bogus=1\""), std::string::npos);
  EXPECT_NE(unknown.error().to_string().find("unknown knob"), std::string::npos);

  // Vetoed knobs surface the veto reason through the same errno path.
  auto vetoed = put("sample_ms=50");
  ASSERT_FALSE(vetoed.ok());
  EXPECT_NE(vetoed.error().to_string().find("sampler disabled"), std::string::npos);

  // Reads return EOF; the control file never reaches the backend.
  std::byte buf[16];
  auto rd = shim.read(h.value(), std::span<std::byte>(buf), 0);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd.value(), 0u);
  ASSERT_TRUE(shim.close(h.value()).ok());
}

// A vetoed .crfs_tune token is still audited under its raw knob name; a
// control byte in it must come out escaped, or stats_json and the
// postmortem stop being JSON.
TEST(TuneControlFile, ControlBytesInVetoedKnobNamesStayEscaped) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), small_config());
  ASSERT_TRUE(fs.ok());
  FuseShim shim(*fs.value(), FuseOptions{});
  auto h = shim.open(".crfs_tune", {.write = true});
  ASSERT_TRUE(h.ok());
  const std::string text = "\x01x=1";
  std::vector<std::byte> payload(text.size());
  std::memcpy(payload.data(), text.data(), text.size());
  EXPECT_FALSE(shim.write(h.value(), payload, 0).ok());  // vetoed: unknown knob
  ASSERT_TRUE(shim.close(h.value()).ok());
  ASSERT_EQ(fs.value()->decision_log().snapshot().size(), 1u);

  for (const std::string& doc : {fs.value()->stats_json(), fs.value()->render_postmortem()}) {
    for (const char c : doc) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte in " << doc;
    }
    EXPECT_NE(doc.find("\\u0001x"), std::string::npos);
    EXPECT_TRUE(obs::json::parse(doc).has_value());
  }
}

// ------------------------------------------------------- knob-set pins

// The knob sets are part of the control-plane contract (crfsctl tune,
// .crfs_tune): a refactor that adds, drops or rebounds
// one must fail here first.
void expect_knob_set(const KnobPlane& plane, const std::vector<KnobDef>& want) {
  const std::vector<KnobDef> got = plane.defs();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_DOUBLE_EQ(got[i].min_value, want[i].min_value) << want[i].name;
    EXPECT_DOUBLE_EQ(got[i].max_value, want[i].max_value) << want[i].name;
    EXPECT_EQ(got[i].unit, want[i].unit) << want[i].name;
  }
}

TEST(KnobPin, RealMountPinsItsKnobSet) {
  const Config cfg;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  ASSERT_TRUE(fs.ok());
  const double pool_max = static_cast<double>(cfg.pool_size * 4 / cfg.chunk_size);
  const double batch_max = static_cast<double>(cfg.tune_io_batch_max);
  expect_knob_set(fs.value()->knob_plane(),
                  {{"drain_mbps", 0.0, 1e6, "MB/s"},
                   {"drain_parallel", 1.0, 64.0, "threads"},
                   {"epoch_gap_ms", 1.0, 600000.0, "ms"},
                   {"io_batch", 1.0, batch_max, "chunks"},
                   {"journal_fsync_ms", 0.0, 600000.0, "ms"},
                   {"pool_chunks", 1.0, pool_max, "chunks"},
                   {"readahead", 0.0, 1.0, "bool"},
                   {"readahead_window", 1.0, 1024.0, "chunks"},
                   {"sample_ms", 1.0, 10000.0, "ms"},
                   {"slow_capture_ms", 0.0, 100000.0, "ms"},
                   {"slow_pwrite_ms", 0.0, 100000.0, "ms"}});
}

TEST(KnobPin, SimNodePinsItsKnobSet) {
  sim::Simulation sim;
  sim::Calibration cal;
  sim::ThrottledBackendSim backend(sim);
  const Config cfg;
  sim::CrfsSimNode node(sim, cal, backend, /*node=*/0, cfg, FuseOptions{}, /*ppn=*/1);
  const double pool_max = static_cast<double>(cfg.pool_size * 4 / cfg.chunk_size);
  const double batch_max = static_cast<double>(cfg.tune_io_batch_max);
  expect_knob_set(node.knob_plane(), {{"epoch_gap_ms", 1.0, 600000.0, "ms"},
                                      {"io_batch", 1.0, batch_max, "chunks"},
                                      {"pool_chunks", 1.0, pool_max, "chunks"},
                                      {"readahead", 0.0, 1.0, "bool"},
                                      {"readahead_window", 1.0, 1024.0, "chunks"},
                                      {"slow_capture_ms", 0.0, 100000.0, "ms"}});
}

// Prometheus exposition is a scrape endpoint: it must be readable while
// an operator retunes knobs and the pipeline writes.
// Runs under the TSan CI job — any knob-plane/registry/exposition data
// race fails the suite there.
TEST(ControlPlane, PrometheusScrapeRacesKnobRetunes) {
  Config cfg = small_config();
  cfg.sample_ms = 5;  // live sampler ticking alongside
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  ASSERT_TRUE(fs.ok());
  Crfs& crfs = *fs.value();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    FuseShim shim(crfs, FuseOptions{});
    std::vector<std::byte> record(64 * KiB, std::byte{1});
    auto h = shim.open("scrape.ckpt", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    for (std::size_t off = 0; off < 8 * MiB; off += record.size()) {
      ASSERT_TRUE(shim.write(h.value(), record, off).ok());
    }
    ASSERT_TRUE(shim.close(h.value()).ok());
    done.store(true);
  });
  std::thread tuner([&] {
    // Hammer every hot-path-visible knob, including the slow-store
    // threshold the IO completion path reads per chunk.
    for (int i = 0; !done.load() || i < 16; ++i) {
      (void)crfs.tune("io_batch", 1.0 + i % 4);
      (void)crfs.tune("pool_chunks", 4.0 + i % 3);
      (void)crfs.tune("slow_capture_ms", (i % 2) != 0 ? 1.0 : 1000.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (i >= 1000) break;  // safety against a stuck writer
    }
  });
  std::string last;
  for (int scrape = 0; scrape < 50; ++scrape) {
    last = obs::to_prometheus(crfs.metrics().snapshot());
    EXPECT_NE(last.find("crfs_"), std::string::npos);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer.join();
  tuner.join();
  // The final exposition carries the knob gauges with legal values.
  last = obs::to_prometheus(crfs.metrics().snapshot());
  EXPECT_NE(last.find("crfs_knob_io_batch"), std::string::npos);
  EXPECT_NE(last.find("crfs_knob_slow_capture_ms"), std::string::npos);
  EXPECT_GT(crfs.knob_plane().generation(), 0u);
}

}  // namespace
}  // namespace crfs
