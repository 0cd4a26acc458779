// Ablation A4: google-benchmark microbenches for the CRFS core data
// structures — the per-operation costs that bound the aggregation path.
// After the benchmarks, a short instrumented checkpoint runs through the
// full stack and prints the obs registry's per-stage latency table
// (BENCH_OBS_* lines), the observability baseline for regression diffs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "backend/mem_backend.h"
#include "backend/null_backend.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/units.h"
#include "crfs/buffer_pool.h"
#include "crfs/crfs.h"
#include "crfs/file_table.h"
#include "crfs/fuse_shim.h"
#include "crfs/work_queue.h"
#include "obs/metrics.h"

namespace crfs {
namespace {

void BM_BufferPoolAcquireRelease(benchmark::State& state) {
  BufferPool pool(16 * MiB, 4 * MiB);
  for (auto _ : state) {
    auto chunk = pool.try_acquire(0);
    benchmark::DoNotOptimize(chunk);
    pool.release(std::move(chunk));
  }
}
BENCHMARK(BM_BufferPoolAcquireRelease);

void BM_ChunkAppend(benchmark::State& state) {
  const auto piece = static_cast<std::size_t>(state.range(0));
  Chunk chunk(4 * MiB);
  std::vector<std::byte> data(piece, std::byte{7});
  for (auto _ : state) {
    if (chunk.remaining() < piece) chunk.reset(0);
    benchmark::DoNotOptimize(chunk.append(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(piece));
}
BENCHMARK(BM_ChunkAppend)->Arg(64)->Arg(4 * 1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_WorkQueuePushPop(benchmark::State& state) {
  WorkQueue queue;
  auto entry = std::make_shared<FileEntry>("bench", 1);
  for (auto _ : state) {
    auto chunk = std::make_unique<Chunk>(4096);
    chunk->reset(0);
    queue.push(WriteJob{entry, std::move(chunk)});
    auto work = queue.pop_work(1);
    benchmark::DoNotOptimize(work);
  }
}
BENCHMARK(BM_WorkQueuePushPop);

void BM_FileTableFindOrCreate(benchmark::State& state) {
  FileTable table;
  int i = 0;
  for (auto _ : state) {
    const std::string path = "f" + std::to_string(i++ % 64);
    auto entry = table.find_or_create(path, [&]() -> Result<std::shared_ptr<FileEntry>> {
      return std::make_shared<FileEntry>(path, 1);
    });
    benchmark::DoNotOptimize(entry);
  }
}
BENCHMARK(BM_FileTableFindOrCreate);

void BM_Crc64(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc64::of(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc64)->Arg(4 * 1024)->Arg(1024 * 1024);

// End-to-end single-writer aggregation throughput through the full stack
// (FuseShim -> Crfs -> NullBackend), the per-stream ceiling of Fig 5.
void BM_CrfsWritePath(benchmark::State& state) {
  const auto write_size = static_cast<std::size_t>(state.range(0));
  auto backend = std::make_shared<NullBackend>();
  auto fs = Crfs::mount(backend, Config{});
  FuseShim shim(*fs.value(), FuseOptions{});
  auto h = shim.open("stream", {.create = true, .truncate = true, .write = true});
  std::vector<std::byte> buf(write_size, std::byte{3});
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shim.write(h.value(), buf, offset).ok());
    offset += write_size;
  }
  (void)shim.close(h.value());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(write_size));
}
BENCHMARK(BM_CrfsWritePath)->Arg(64)->Arg(8 * 1024)->Arg(128 * 1024)->Arg(1024 * 1024);

// Write-path cost against a real storing backend (MemBackend), isolating
// the extra copy CRFS pays versus the discard path.
void BM_CrfsWritePathStoring(benchmark::State& state) {
  auto backend = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(backend, Config{.chunk_size = 1 * MiB, .pool_size = 8 * MiB});
  FuseShim shim(*fs.value(), FuseOptions{});
  auto h = shim.open("stream", {.create = true, .truncate = true, .write = true});
  std::vector<std::byte> buf(128 * 1024, std::byte{3});
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shim.write(h.value(), buf, offset).ok());
    offset += buf.size();
    if (offset >= 256 * MiB) offset = 0;  // wrap: bounds the backend footprint
  }
  (void)shim.close(h.value());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_CrfsWritePathStoring);

// Per-stage latency baseline: run a fixed multi-writer checkpoint through
// FuseShim -> Crfs -> MemBackend, then print the registry's histogram
// table. One BENCH_OBS_* line per stage gives copy / pool-wait /
// queue-wait / pwrite / drain percentiles in a greppable form.
void report_stage_latencies() {
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 8 * MiB;
  cfg.io_threads = 2;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  if (!fs.ok()) return;
  FuseShim shim(*fs.value(), FuseOptions{});

  constexpr int kWriters = 4;
  constexpr std::size_t kPerWriter = 64 * MiB;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto h = shim.open("bench_obs_rank" + std::to_string(w),
                         {.create = true, .truncate = true, .write = true});
      if (!h.ok()) return;
      std::vector<std::byte> buf(128 * KiB, std::byte{9});
      for (std::size_t off = 0; off < kPerWriter; off += buf.size()) {
        (void)shim.write(h.value(), buf, off);
      }
      (void)shim.fsync(h.value());
      (void)shim.close(h.value());
    });
  }
  for (auto& t : writers) t.join();

  std::printf("\n-- per-stage latency baseline (%d writers x %zu MiB) --\n",
              kWriters, kPerWriter / MiB);
  const auto snap = fs.value()->metrics().snapshot();
  for (const auto& [name, h] : snap.histograms) {
    if (h.count == 0) continue;
    std::printf("BENCH_OBS_%s count=%llu p50=%s p95=%s p99=%s max=%s\n",
                name.c_str(), static_cast<unsigned long long>(h.count),
                obs::format_ns(static_cast<std::uint64_t>(h.p50())).c_str(),
                obs::format_ns(static_cast<std::uint64_t>(h.p95())).c_str(),
                obs::format_ns(static_cast<std::uint64_t>(h.p99())).c_str(),
                obs::format_ns(h.max).c_str());
  }
}

// Write path with the live sampler ticking in the background at the
// given period (arg in ms; 0 = sampler off). The sampler only touches
// the registry snapshot mutex from its own thread, so the expected delta
// versus BM_CrfsWritePath is noise — this benchmark is the regression
// guard for that claim (docs/OBSERVABILITY.md budgets it at <= 5%).
void BM_CrfsWritePathSampled(benchmark::State& state) {
  Config cfg;
  cfg.sample_ms = static_cast<unsigned>(state.range(0));
  auto fs = Crfs::mount(std::make_shared<NullBackend>(), cfg);
  FuseShim shim(*fs.value(), FuseOptions{});
  auto h = shim.open("stream", {.create = true, .truncate = true, .write = true});
  std::vector<std::byte> buf(128 * 1024, std::byte{3});
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shim.write(h.value(), buf, offset).ok());
    offset += buf.size();
  }
  (void)shim.close(h.value());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_CrfsWritePathSampled)->Arg(0)->Arg(10)->Arg(1);

// BM_CrfsWritePath's A/B twin with the epoch ledger off (mount option
// `no_epochs`). BM_CrfsWritePath itself runs with the default config, so
// epoch attribution (~3 relaxed fetch_adds per write) is already in its
// numbers; diffing against this variant isolates the ledger's hot-path
// cost. The end-to-end budget is enforced by report_ledger_overhead().
void BM_CrfsWritePathNoEpochs(benchmark::State& state) {
  const auto write_size = static_cast<std::size_t>(state.range(0));
  Config cfg;
  cfg.epoch_tracking = false;
  auto fs = Crfs::mount(std::make_shared<NullBackend>(), cfg);
  FuseShim shim(*fs.value(), FuseOptions{});
  auto h = shim.open("stream", {.create = true, .truncate = true, .write = true});
  std::vector<std::byte> buf(write_size, std::byte{3});
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shim.write(h.value(), buf, offset).ok());
    offset += write_size;
  }
  (void)shim.close(h.value());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(write_size));
}
BENCHMARK(BM_CrfsWritePathNoEpochs)->Arg(128 * 1024)->Arg(1024 * 1024);

// Sampler overhead measurement: the same fixed multi-writer checkpoint
// with the telemetry plane off and at a 10 ms period, timed end to end
// (best of kReps to shed scheduler noise). Prints BENCH_OBS_SAMPLER_*
// lines plus the relative overhead; the documented budget is <= 5%.
double time_checkpoint_s(unsigned sample_ms) {
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 8 * MiB;
  cfg.io_threads = 2;
  cfg.sample_ms = sample_ms;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  if (!fs.ok()) return 0.0;
  FuseShim shim(*fs.value(), FuseOptions{});

  constexpr int kWriters = 4;
  constexpr std::size_t kPerWriter = 32 * MiB;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto h = shim.open("bench_sampler_rank" + std::to_string(w),
                         {.create = true, .truncate = true, .write = true});
      if (!h.ok()) return;
      std::vector<std::byte> buf(128 * KiB, std::byte{9});
      for (std::size_t off = 0; off < kPerWriter; off += buf.size()) {
        (void)shim.write(h.value(), buf, off);
      }
      (void)shim.fsync(h.value());
      (void)shim.close(h.value());
    });
  }
  for (auto& t : writers) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void report_sampler_overhead() {
  constexpr int kReps = 5;
  double best_off = 1e30, best_on = 1e30;
  for (int i = 0; i < kReps; ++i) {
    best_off = std::min(best_off, time_checkpoint_s(0));
    best_on = std::min(best_on, time_checkpoint_s(10));
  }
  const double overhead_pct = best_off > 0 ? 100.0 * (best_on - best_off) / best_off : 0.0;
  std::printf("\n-- sampler overhead (best of %d, 4 writers x 32 MiB) --\n", kReps);
  std::printf("BENCH_OBS_SAMPLER_OFF  %.4f s\n", best_off);
  std::printf("BENCH_OBS_SAMPLER_10MS %.4f s\n", best_on);
  std::printf("BENCH_OBS_SAMPLER_OVERHEAD %.2f %% (budget <= 5%%)\n", overhead_pct);
}

// Epoch-ledger overhead guard: the same fixed multi-writer checkpoint
// with epoch tracking off (mount option `no_epochs`) and on, wrapped in
// an explicit epoch. Best of kReps, printed as BENCH_OBS_LEDGER_* lines
// with a PASS/FAIL verdict against the documented <= 5% budget
// (docs/OBSERVABILITY.md "Epoch ledger"), and written to BENCH_OBS.json
// so CI can archive the measurement.
double time_epoch_checkpoint_s(bool tracking) {
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 8 * MiB;
  cfg.io_threads = 2;
  cfg.epoch_tracking = tracking;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  if (!fs.ok()) return 0.0;
  FuseShim shim(*fs.value(), FuseOptions{});

  constexpr int kWriters = 4;
  constexpr std::size_t kPerWriter = 32 * MiB;
  const auto t0 = std::chrono::steady_clock::now();
  if (tracking) (void)fs.value()->epoch_begin("bench");
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto h = shim.open("bench_ledger_rank" + std::to_string(w),
                         {.create = true, .truncate = true, .write = true});
      if (!h.ok()) return;
      std::vector<std::byte> buf(128 * KiB, std::byte{9});
      for (std::size_t off = 0; off < kPerWriter; off += buf.size()) {
        (void)shim.write(h.value(), buf, off);
      }
      (void)shim.fsync(h.value());
      (void)shim.close(h.value());
    });
  }
  for (auto& t : writers) t.join();
  if (tracking) (void)fs.value()->epoch_end();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool report_ledger_overhead() {
  constexpr int kReps = 5;
  constexpr double kBudgetPct = 5.0;
  double best_off = 1e30, best_on = 1e30;
  for (int i = 0; i < kReps; ++i) {
    best_off = std::min(best_off, time_epoch_checkpoint_s(false));
    best_on = std::min(best_on, time_epoch_checkpoint_s(true));
  }
  const double overhead_pct = best_off > 0 ? 100.0 * (best_on - best_off) / best_off : 0.0;
  const bool pass = overhead_pct <= kBudgetPct;
  std::printf("\n-- epoch ledger overhead (best of %d, 4 writers x 32 MiB) --\n", kReps);
  std::printf("BENCH_OBS_LEDGER_OFF %.4f s\n", best_off);
  std::printf("BENCH_OBS_LEDGER_ON  %.4f s\n", best_on);
  std::printf("BENCH_OBS_LEDGER_OVERHEAD %.2f %% (budget <= %.0f%%)\n", overhead_pct,
              kBudgetPct);
  std::printf("BENCH_OBS_LEDGER_GUARD %s\n", pass ? "PASS" : "FAIL");
  if (std::FILE* f = std::fopen("BENCH_OBS.json", "w")) {
    std::fprintf(f,
                 "{\"ledger_off_s\":%.6f,\"ledger_on_s\":%.6f,"
                 "\"ledger_overhead_pct\":%.3f,\"budget_pct\":%.1f,"
                 "\"guard\":\"%s\"}\n",
                 best_off, best_on, overhead_pct, kBudgetPct, pass ? "PASS" : "FAIL");
    std::fclose(f);
    std::printf("wrote BENCH_OBS.json\n");
  }
  return pass;
}

// Journal + SLO write-path overhead guard: the same fixed multi-writer
// checkpoint with the sampler on (10 ms) in both runs and, on the ON
// side, journal=<dir> plus SLO burn-rate tracking added. The journal
// only ever sees cold-path appends (sampler tick, events), so what it
// adds on top of an already-sampling mount must stay within the
// documented <= 5% budget (docs/OBSERVABILITY.md "Durable journal"). Printed as BENCH_OBS_JOURNAL_* lines and written
// to BENCH_JOURNAL.json for CI to archive and bench_regress.py to diff.
double time_journal_checkpoint_s(bool journaled) {
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 8 * MiB;
  cfg.io_threads = 2;
  cfg.sample_ms = 10;  // both sides sample; the delta isolates journal+slo
  std::string dir;
  if (journaled) {
    dir = std::filesystem::temp_directory_path().string() + "/crfs_bench_journal";
    std::filesystem::remove_all(dir);
    cfg.journal_dir = dir;
    cfg.slo_lag_ms = 1000;  // quiescent targets: track burn, never breach
    cfg.slo_stall_pct = 90;
  }
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  if (!fs.ok()) return 0.0;
  FuseShim shim(*fs.value(), FuseOptions{});

  constexpr int kWriters = 4;
  constexpr std::size_t kPerWriter = 32 * MiB;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto h = shim.open("bench_journal_rank" + std::to_string(w),
                         {.create = true, .truncate = true, .write = true});
      if (!h.ok()) return;
      std::vector<std::byte> buf(128 * KiB, std::byte{9});
      for (std::size_t off = 0; off < kPerWriter; off += buf.size()) {
        (void)shim.write(h.value(), buf, off);
      }
      (void)shim.fsync(h.value());
      (void)shim.close(h.value());
    });
  }
  for (auto& t : writers) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  fs.value().reset();  // stop sampler + journal before deleting the dir
  if (!dir.empty()) std::filesystem::remove_all(dir);
  return secs;
}

bool report_journal_overhead() {
  constexpr int kReps = 5;
  constexpr double kBudgetPct = 5.0;
  double best_off = 1e30, best_on = 1e30;
  for (int i = 0; i < kReps; ++i) {
    best_off = std::min(best_off, time_journal_checkpoint_s(false));
    best_on = std::min(best_on, time_journal_checkpoint_s(true));
  }
  const double overhead_pct = best_off > 0 ? 100.0 * (best_on - best_off) / best_off : 0.0;
  const bool pass = overhead_pct <= kBudgetPct;
  std::printf("\n-- journal+slo overhead (best of %d, 4 writers x 32 MiB) --\n", kReps);
  std::printf("BENCH_OBS_JOURNAL_OFF %.4f s\n", best_off);
  std::printf("BENCH_OBS_JOURNAL_ON  %.4f s\n", best_on);
  std::printf("BENCH_OBS_JOURNAL_OVERHEAD %.2f %% (budget <= %.0f%%)\n", overhead_pct,
              kBudgetPct);
  std::printf("BENCH_OBS_JOURNAL_GUARD %s\n", pass ? "PASS" : "FAIL");
  if (std::FILE* f = std::fopen("BENCH_JOURNAL.json", "w")) {
    std::fprintf(f,
                 "{\"journal_off_s\":%.6f,\"journal_on_s\":%.6f,"
                 "\"journal_overhead_pct\":%.3f,\"budget_pct\":%.1f,"
                 "\"guard\":\"%s\"}\n",
                 best_off, best_on, overhead_pct, kBudgetPct, pass ? "PASS" : "FAIL");
    std::fclose(f);
    std::printf("wrote BENCH_JOURNAL.json\n");
  }
  return pass;
}

// Causal-tracing overhead guard: the same fixed multi-writer checkpoint
// with enable_tracing off vs on. Tracing on means every write carries a
// span + trace id, every chunk a causal chain, and the IO workers
// retro-record queue/submit/pwrite spans — the full observability tax of
// `crfsctl trace`/`crfsctl slow` forensics. Printed as BENCH_OBS_TRACE_*
// lines with a PASS/FAIL verdict against the <= 5% budget
// (docs/OBSERVABILITY.md "Causal request tracing") and written to
// BENCH_TRACE.json for CI to archive.
double time_trace_checkpoint_s(bool tracing) {
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 8 * MiB;
  cfg.io_threads = 2;
  cfg.enable_tracing = tracing;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  if (!fs.ok()) return 0.0;
  FuseShim shim(*fs.value(), FuseOptions{});

  constexpr int kWriters = 4;
  constexpr std::size_t kPerWriter = 32 * MiB;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto h = shim.open("bench_trace_rank" + std::to_string(w),
                         {.create = true, .truncate = true, .write = true});
      if (!h.ok()) return;
      std::vector<std::byte> buf(128 * KiB, std::byte{9});
      for (std::size_t off = 0; off < kPerWriter; off += buf.size()) {
        (void)shim.write(h.value(), buf, off);
      }
      (void)shim.fsync(h.value());
      (void)shim.close(h.value());
    });
  }
  for (auto& t : writers) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool report_trace_overhead() {
  constexpr int kReps = 5;
  constexpr double kBudgetPct = 5.0;
  double best_off = 1e30, best_on = 1e30;
  for (int i = 0; i < kReps; ++i) {
    best_off = std::min(best_off, time_trace_checkpoint_s(false));
    best_on = std::min(best_on, time_trace_checkpoint_s(true));
  }
  const double overhead_pct = best_off > 0 ? 100.0 * (best_on - best_off) / best_off : 0.0;
  const bool pass = overhead_pct <= kBudgetPct;
  std::printf("\n-- causal tracing overhead (best of %d, 4 writers x 32 MiB) --\n",
              kReps);
  std::printf("BENCH_OBS_TRACE_OFF %.4f s\n", best_off);
  std::printf("BENCH_OBS_TRACE_ON  %.4f s\n", best_on);
  std::printf("BENCH_OBS_TRACE_OVERHEAD %.2f %% (budget <= %.0f%%)\n", overhead_pct,
              kBudgetPct);
  std::printf("BENCH_OBS_TRACE_GUARD %s\n", pass ? "PASS" : "FAIL");
  if (std::FILE* f = std::fopen("BENCH_TRACE.json", "w")) {
    std::fprintf(f,
                 "{\"trace_off_s\":%.6f,\"trace_on_s\":%.6f,"
                 "\"trace_overhead_pct\":%.3f,\"budget_pct\":%.1f,"
                 "\"guard\":\"%s\"}\n",
                 best_off, best_on, overhead_pct, kBudgetPct, pass ? "PASS" : "FAIL");
    std::fclose(f);
    std::printf("wrote BENCH_TRACE.json\n");
  }
  return pass;
}

}  // namespace
}  // namespace crfs

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  crfs::report_stage_latencies();
  crfs::report_sampler_overhead();
  // The guards' verdicts are advisory on developer machines (wall-clock
  // noise); CI greps BENCH_OBS_LEDGER_GUARD and archives BENCH_OBS.json.
  (void)crfs::report_ledger_overhead();
  (void)crfs::report_journal_overhead();
  (void)crfs::report_trace_overhead();
  return 0;
}
