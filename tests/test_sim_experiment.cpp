// End-to-end DES experiment tests: determinism, paper-shape assertions
// for every figure the simulation backs, and the CRFS-pipeline sim.
#include <gtest/gtest.h>

#include "sim/crfs_sim.h"
#include "sim/experiment.h"
#include "sim/ext3_sim.h"

namespace crfs::sim {
namespace {

ExperimentConfig base_config(mpi::LuClass cls, BackendKind backend, FsMode mode) {
  ExperimentConfig cfg;
  cfg.lu_class = cls;
  cfg.backend = backend;
  cfg.mode = mode;
  return cfg;
}

TEST(Experiment, DeterministicForSeed) {
  auto cfg = base_config(mpi::LuClass::kB, BackendKind::kExt3, FsMode::kNative);
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  ASSERT_EQ(a.rank_seconds.size(), b.rank_seconds.size());
  for (std::size_t i = 0; i < a.rank_seconds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rank_seconds[i], b.rank_seconds[i]);
  }
  EXPECT_DOUBLE_EQ(a.mean_rank_seconds, b.mean_rank_seconds);
}

TEST(Experiment, SeedChangesJitterNotShape) {
  auto cfg = base_config(mpi::LuClass::kB, BackendKind::kExt3, FsMode::kNative);
  const auto a = run_experiment(cfg);
  cfg.seed = 1234;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.mean_rank_seconds, b.mean_rank_seconds);
  EXPECT_NEAR(a.mean_rank_seconds, b.mean_rank_seconds, a.mean_rank_seconds * 0.4);
}

TEST(Experiment, AllRanksComplete) {
  auto cfg = base_config(mpi::LuClass::kB, BackendKind::kLustre, FsMode::kCrfs);
  cfg.nodes = 4;
  cfg.ppn = 4;
  const auto r = run_experiment(cfg);
  ASSERT_EQ(r.rank_seconds.size(), 16u);
  for (double t : r.rank_seconds) EXPECT_GT(t, 0.0);
  EXPECT_GE(r.max_rank_seconds, r.mean_rank_seconds);
  EXPECT_LE(r.min_rank_seconds, r.mean_rank_seconds);
}

// ---- paper-shape assertions (the figures' qualitative claims) ----------

// Figs 6-8: CRFS wins on all three backends for class B and C.
TEST(PaperShapes, CrfsWinsClassBAndC) {
  for (const auto backend : {BackendKind::kExt3, BackendKind::kLustre, BackendKind::kNfs}) {
    for (const auto cls : {mpi::LuClass::kB, mpi::LuClass::kC}) {
      const auto cell = run_cell(mpi::Stack::kMvapich2, cls, backend);
      EXPECT_GT(cell.speedup(), 1.5)
          << backend_name(backend) << " " << mpi::lu_class_name(cls);
    }
  }
}

// Fig 6b anchor: CRFS over Lustre at class C is a multi-X win (paper 5.5X).
TEST(PaperShapes, LustreClassCHeadlineSpeedup) {
  const auto cell = run_cell(mpi::Stack::kMvapich2, mpi::LuClass::kC, BackendKind::kLustre);
  EXPECT_GT(cell.speedup(), 3.5);
  EXPECT_LT(cell.speedup(), 9.0);
}

// Fig 6c: class D gains shrink — ~30% on Lustre, ~10% on ext3.
TEST(PaperShapes, ClassDGainsShrink) {
  const auto lustre = run_cell(mpi::Stack::kMvapich2, mpi::LuClass::kD, BackendKind::kLustre);
  EXPECT_GT(lustre.speedup(), 1.1);
  EXPECT_LT(lustre.speedup(), 1.7);
  const auto ext3 = run_cell(mpi::Stack::kMvapich2, mpi::LuClass::kD, BackendKind::kExt3);
  EXPECT_GT(ext3.speedup(), 1.02);
  EXPECT_LT(ext3.speedup(), 1.6);
}

// §V-C: "CRFS+NFS performs slightly worse than the native NFS" at class D.
TEST(PaperShapes, NfsOutlierAtClassD) {
  const auto cell = run_cell(mpi::Stack::kMvapich2, mpi::LuClass::kD, BackendKind::kNfs);
  EXPECT_LT(cell.speedup(), 1.0);
  EXPECT_GT(cell.speedup(), 0.85);  // only slightly worse
}

// Fig 9: benefit grows with process multiplexing and saturates ~30%.
TEST(PaperShapes, MultiplexingScalability) {
  std::vector<double> reductions;
  for (const unsigned ppn : {1u, 2u, 4u, 8u}) {
    const auto cell =
        run_cell(mpi::Stack::kMvapich2, mpi::LuClass::kD, BackendKind::kLustre, 16, ppn);
    reductions.push_back(1.0 - cell.crfs_seconds / cell.native_seconds);
  }
  EXPECT_LT(reductions[0], 0.18) << "little benefit at 1 ppn";
  for (std::size_t i = 1; i < reductions.size(); ++i) {
    EXPECT_GE(reductions[i], reductions[i - 1] - 0.02) << "benefit must grow with ppn";
  }
  EXPECT_GT(reductions[3], 0.18) << "~30% reduction at 8 ppn";
  EXPECT_LT(reductions[3], 0.45);
}

// Fig 3 / Fig 11: native spread ~2x, CRFS collapses it.
TEST(PaperShapes, VarianceCollapse) {
  auto cfg = base_config(mpi::LuClass::kC, BackendKind::kExt3, FsMode::kNative);
  cfg.nodes = 8;
  cfg.ppn = 8;
  const auto native = run_experiment(cfg);
  cfg.mode = FsMode::kCrfs;
  const auto crfs = run_experiment(cfg);
  EXPECT_GT(native.spread(), 1.5);
  EXPECT_LT(crfs.spread(), 1.35);
  EXPECT_LT(crfs.spread(), native.spread() * 0.75);
}

// Fig 10: CRFS has far fewer disk seeks and bigger requests.
TEST(PaperShapes, BlockTraceSequentiality) {
  auto cfg = base_config(mpi::LuClass::kC, BackendKind::kExt3, FsMode::kNative);
  cfg.nodes = 8;
  cfg.ppn = 8;
  const auto native = run_experiment(cfg);
  cfg.mode = FsMode::kCrfs;
  const auto crfs = run_experiment(cfg);
  ASSERT_GT(native.disk_summary.requests, 0u);
  ASSERT_GT(crfs.disk_summary.requests, 0u);
  EXPECT_GT(native.disk_summary.requests, 4 * crfs.disk_summary.requests);
  EXPECT_GT(native.disk_summary.seeks, 4 * crfs.disk_summary.seeks);
  const double native_req =
      static_cast<double>(native.disk_summary.bytes) /
      static_cast<double>(native.disk_summary.requests);
  const double crfs_req = static_cast<double>(crfs.disk_summary.bytes) /
                          static_cast<double>(crfs.disk_summary.requests);
  EXPECT_GT(crfs_req, 3.0 * native_req);
}

// Table I (time column): medium writes carry a disproportionate share of
// time on native ext3; tiny writes are nearly free.
TEST(PaperShapes, TableOneTimeShares) {
  auto cfg = base_config(mpi::LuClass::kC, BackendKind::kExt3, FsMode::kNative);
  cfg.nodes = 8;
  cfg.ppn = 8;
  cfg.record_writes = true;
  const auto r = run_experiment(cfg);
  const auto& h = r.profile.histogram();
  const double total_time = h.total_seconds();
  ASSERT_GT(total_time, 0.0);
  const auto& b = h.buckets();
  const double tiny_time = b[0].seconds / total_time;          // 0-64
  const double medium_time = b[4].seconds / total_time;        // 4K-16K
  const double medium_data =
      static_cast<double>(b[4].bytes) / static_cast<double>(h.total_bytes());
  EXPECT_LT(tiny_time, 0.05) << "paper: 0.17%";
  EXPECT_GT(medium_time, 0.25) << "paper: 44.66%";
  EXPECT_GT(medium_time, 2.0 * medium_data)
      << "medium ops must be disproportionately expensive";
}

// Image sizes flow through: bigger class => longer checkpoint.
TEST(Experiment, ClassOrderingMonotone) {
  for (const auto backend : {BackendKind::kExt3, BackendKind::kLustre}) {
    double prev = 0;
    for (const auto cls : {mpi::LuClass::kB, mpi::LuClass::kC, mpi::LuClass::kD}) {
      auto cfg = base_config(cls, backend, FsMode::kNative);
      const double t = run_experiment(cfg).mean_rank_seconds;
      EXPECT_GT(t, prev) << backend_name(backend);
      prev = t;
    }
  }
}

// The ext3 single-node shortcut equals the statistics of a multi-node run.
TEST(Experiment, Ext3ShortcutMatchesFullRun) {
  auto cfg = base_config(mpi::LuClass::kB, BackendKind::kExt3, FsMode::kCrfs);
  cfg.nodes = 4;
  cfg.ppn = 4;
  const auto fast = run_experiment(cfg);
  cfg.ext3_single_node = false;
  const auto full = run_experiment(cfg);
  // Full run simulates 16 ranks; shortcut 4. Means agree within jitter.
  EXPECT_EQ(fast.rank_seconds.size(), 4u);
  EXPECT_EQ(full.rank_seconds.size(), 16u);
  EXPECT_NEAR(fast.mean_rank_seconds, full.mean_rank_seconds,
              0.3 * full.mean_rank_seconds);
}

// ------------------------------------------------------------ CrfsSimNode

TEST(CrfsSimNode, ChunkAccountingMatchesData) {
  Simulation sim;
  Calibration cal;
  Ext3Sim backend(sim, cal, 1, 1, 7);
  crfs::Config config;  // 4M chunks, 16M pool
  CrfsSimNode node(sim, cal, backend, 0, config, crfs::FuseOptions{}, 1);
  node.start();
  sim.spawn([](Simulation&, CrfsSimNode& n) -> Task {
    for (int i = 0; i < 6; ++i) co_await n.app_write(1, 4 * MiB);
    co_await n.app_write(1, 1 * MiB);  // partial
    co_await n.close_file(1);
  }(sim, node));
  sim.run();
  EXPECT_EQ(node.chunks_flushed(), 7u);  // 6 full + 1 partial
}

TEST(CrfsSimNode, PoolBackpressureEngagesWithSlowBackend) {
  Simulation sim;
  Calibration cal;
  cal.dirty_limit = 1;  // force every backend write to wait on the disk
  Ext3Sim backend(sim, cal, 1, 1, 7);
  crfs::Config config;
  CrfsSimNode node(sim, cal, backend, 0, config, crfs::FuseOptions{}, 1);
  node.start();
  sim.spawn([](Simulation&, CrfsSimNode& n) -> Task {
    co_await n.app_write(1, 64 * MiB);  // far beyond the 16 MB pool
    co_await n.close_file(1);
  }(sim, node));
  sim.run();
  EXPECT_GT(node.pool_waits(), 0u);
}

TEST(CrfsSimNode, CloseWaitsForAllChunks) {
  Simulation sim;
  Calibration cal;
  Ext3Sim backend(sim, cal, 1, 1, 7);
  crfs::Config config;
  CrfsSimNode node(sim, cal, backend, 0, config, crfs::FuseOptions{}, 1);
  node.start();
  double write_done = 0, close_done = 0;
  sim.spawn([](Simulation& s, CrfsSimNode& n, double& wd, double& cd) -> Task {
    co_await n.app_write(1, 32 * MiB);
    wd = s.now();
    co_await n.close_file(1);
    cd = s.now();
  }(sim, node, write_done, close_done));
  sim.run();
  EXPECT_GT(close_done, write_done);  // close waits for outstanding chunks
}

}  // namespace
}  // namespace crfs::sim
