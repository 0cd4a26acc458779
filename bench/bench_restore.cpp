// Restore-side read pipeline benchmark (docs/PERFORMANCE.md "Read path
// and restore"): checkpoint N rank images through CRFS, then restart
// them through a read-throttled backend with readahead on and off, plus a
// direct BackendSource baseline and a readahead restore from a real
// PosixBackend whose files are evicted from the page cache before each
// pass, verifying the payload CRC every single time.
//
// What it proves, and how:
//   * Correctness: every restore path must reproduce the checkpoint's
//     payload CRC bit-identically; any mismatch exits nonzero.
//   * Prefetch wins structurally, not just on wall clock: with readahead
//     on, the sequential restore scan must issue strictly fewer blocking
//     preads (crfs.read.sync_preads) than with readahead off, and the
//     prefetch hit count must be nonzero. On the cold PosixBackend the
//     in-flight depth histogram must exceed 1. Wall-clock MiB/s is
//     reported but only gates under CRFS_BENCH_STRICT=1 — CI runners
//     are too noisy for timing gates (see bench_multistream.cpp).
//   * Readahead-off costs (about) nothing: with the knob off the read
//     path must issue exactly one backend pread per application read and
//     zero prefetches — the structural form of the paper's "no
//     additional overhead on file reads" passthrough claim. The wall
//     clock delta vs the direct baseline is printed as the <=5% guard
//     (hard only under CRFS_BENCH_STRICT=1).
//
// Env knobs: CRFS_BENCH_BYTES overrides the per-rank image size and
// CRFS_BENCH_REPS the repetitions (best-of). Defaults keep the run well
// under CI's bench-smoke budget.
//
// Output: a TextTable for humans, BENCH_RESTORE_* greppable lines for
// CI, and BENCH_RESTORE.json next to the binary for artifact upload.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <filesystem>

#include "backend/mem_backend.h"
#include "backend/posix_backend.h"
#include "backend/wrappers.h"
#include "blcr/checkpoint_writer.h"
#include "blcr/process_image.h"
#include "blcr/restart_reader.h"
#include "blcr/sinks.h"
#include "common/table.h"
#include "common/units.h"
#include "common/wall_clock.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"

using namespace crfs;

namespace {

struct ModeStats {
  std::string name;        // table / JSON label
  std::string key;         // BENCH_RESTORE_<KEY> suffix
  double seconds = -1.0;   // best-of-reps wall time; <0 = CRC failure
  double mib_s = 0.0;
  double ttfb_ms = 0.0;    // mean scan time-to-first-byte (restore ledger)
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_wasted = 0;
  std::uint64_t sync_preads = 0;
  std::uint64_t inflight_max = 0;  // crfs.read.inflight_depth max
};

std::string rank_path(unsigned r) { return "rank" + std::to_string(r) + ".ckpt"; }

// Writes `file` back and drops its pages from the page cache, so the next
// restore reads it from the device.
void evict_page_cache(const std::filesystem::path& file) {
  const int fd = ::open(file.c_str(), O_RDWR);
  if (fd < 0) return;
  (void)::fdatasync(fd);
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

}  // namespace

int main() {
  unsigned ranks = 2;
  std::uint64_t image_bytes = 32 * MiB;
  if (const char* env = std::getenv("CRFS_BENCH_BYTES")) {
    if (auto parsed = parse_bytes(env)) image_bytes = *parsed;
  }
  int reps = 3;
  if (const char* env = std::getenv("CRFS_BENCH_REPS")) {
    reps = std::max(1, std::atoi(env));
  }
  const bool strict = std::getenv("CRFS_BENCH_STRICT") != nullptr;

  // Slow enough that prefetch depth matters, fast enough for CI smoke.
  const double throttle_bw = 512.0 * MiB;
  const auto throttle_op = std::chrono::microseconds(50);

  std::printf("=== Restore read pipeline (readahead on/off) ===\n");
  std::printf("%u ranks x %s images; read-throttled backend %.0f MiB/s + %lld us/op; "
              "best of %d reps\n\n",
              ranks, format_bytes(image_bytes).c_str(), throttle_bw / MiB,
              static_cast<long long>(throttle_op.count()), reps);

  auto mem = std::make_shared<MemBackend>();
  std::vector<std::uint64_t> crcs(ranks);

  // Checkpoint through CRFS (write path untouched by this bench).
  {
    auto fs = Crfs::mount(mem, Config{});
    if (!fs.ok()) {
      std::printf("mount failed\n");
      return 1;
    }
    FuseShim shim(*fs.value(), FuseOptions{.big_writes = true});
    for (unsigned r = 0; r < ranks; ++r) {
      const auto image = blcr::ProcessImage::synthesize(r, image_bytes, 7);
      auto file = File::open(shim, rank_path(r),
                             {.create = true, .truncate = true, .write = true});
      blcr::CrfsFileSink sink(file.value());
      crcs[r] = blcr::CheckpointWriter::write_image(image, sink).value();
      (void)file.value().close();
    }
  }
  const double total_mib = static_cast<double>(ranks) *
                           static_cast<double>(image_bytes) / static_cast<double>(MiB);

  // The throttled view every restore path reads through: same wrapper,
  // same rate, so direct-vs-CRFS deltas are pure read-path overhead.
  auto throttled = std::make_shared<ThrottledBackend>(mem, throttle_bw, throttle_op);
  throttled->throttle_reads(true);

  // Baseline: blcr reads the backend files directly, no CRFS mount.
  auto restore_direct = [&]() -> double {
    const Stopwatch sw;
    for (unsigned r = 0; r < ranks; ++r) {
      auto bf = throttled->open_file(rank_path(r),
                                     {.create = false, .truncate = false, .write = false});
      blcr::BackendSource source(*throttled, bf.value());
      auto restored = blcr::RestartReader::read_image(source);
      if (!restored.ok() || restored.value().payload_crc != crcs[r]) return -1.0;
      (void)throttled->close_file(bf.value());
    }
    return sw.elapsed_seconds();
  };

  // One CRFS restore pass; fills `out` with the mount's read telemetry.
  // `before_rep` runs ahead of each repetition, outside its clock.
  auto restore_mode = [&](std::shared_ptr<BackendFs> backend, bool readahead, ModeStats& out,
                          const std::function<void()>& before_rep = [] {}) -> bool {
    out.seconds = -1.0;
    for (int rep = 0; rep < reps; ++rep) {
      before_rep();
      Config cfg{};
      cfg.readahead = readahead;
      cfg.readahead_window = 8;
      auto fs = Crfs::mount(backend, cfg);
      if (!fs.ok()) return false;
      FuseShim shim(*fs.value(), FuseOptions{.big_writes = true});
      const Stopwatch sw;
      for (unsigned r = 0; r < ranks; ++r) {
        auto file = File::open(shim, rank_path(r),
                               {.create = false, .truncate = false, .write = false});
        blcr::CrfsFileSource source(file.value());
        auto restored = blcr::RestartReader::read_image(source);
        if (!restored.ok() || restored.value().payload_crc != crcs[r]) return false;
        (void)file.value().close();
      }
      const double secs = sw.elapsed_seconds();
      if (out.seconds < 0 || secs < out.seconds) out.seconds = secs;
      // Telemetry is per-mount and deterministic in structure; the last
      // rep's counters describe every rep's shape.
      auto& m = fs.value()->metrics();
      out.ops = m.counter("crfs.read.ops").value();
      out.bytes = m.counter("crfs.read.bytes").value();
      out.prefetch_issued = m.counter("crfs.read.prefetch_issued").value();
      out.prefetch_hits = m.counter("crfs.read.prefetch_hits").value();
      out.prefetch_wasted = m.counter("crfs.read.prefetch_wasted").value();
      out.sync_preads = m.counter("crfs.read.sync_preads").value();
      out.inflight_max = m.histogram("crfs.read.inflight_depth").snapshot().max;
      double ttfb_sum = 0.0;
      std::uint64_t scans = 0;
      for (const auto& row : fs.value()->restore_ledger()) {
        if (row.active) continue;
        ttfb_sum += static_cast<double>(row.ttfb_ns);
        scans += 1;
      }
      out.ttfb_ms = scans > 0 ? ttfb_sum / static_cast<double>(scans) / 1e6 : 0.0;
    }
    out.mib_s = total_mib / out.seconds;
    return true;
  };

  (void)restore_direct();  // warm-up
  double direct = -1.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double secs = restore_direct();
    if (secs < 0) {
      std::printf("BENCH_RESTORE_CRC FAIL (direct baseline)\n");
      return 1;
    }
    if (direct < 0 || secs < direct) direct = secs;
  }

  std::vector<ModeStats> modes(3);
  modes[0].name = "readahead";
  modes[0].key = "SYNC_RA";
  modes[1].name = "no readahead";
  modes[1].key = "SYNC_NORA";
  modes[2].name = "posix, cold, readahead";
  modes[2].key = "POSIX_RA";
  const bool readaheads[] = {true, false, true};
  for (std::size_t i = 0; i < 2; ++i) {
    if (!restore_mode(throttled, readaheads[i], modes[i])) {
      std::printf("BENCH_RESTORE_CRC FAIL (%s)\n", modes[i].name.c_str());
      return 1;
    }
  }

  // Third mode: the same images on a real PosixBackend with a cold page
  // cache, where every window fill is a blocking device read on an IO
  // thread, so the inflight-depth histogram must exceed 1.
  const std::filesystem::path posix_dir =
      std::filesystem::temp_directory_path() /
      ("crfs_bench_restore_" + std::to_string(static_cast<long>(::getpid())));
  std::filesystem::create_directories(posix_dir);
  {
    auto posix = PosixBackend::create(posix_dir.string());
    if (!posix.ok()) {
      std::printf("posix backend unavailable, skipping POSIX_RA\n");
    } else {
      auto posix_backend = std::shared_ptr<BackendFs>(std::move(posix.value()));
      // Replay the checkpoint files out of the mem backend byte-for-byte.
      std::vector<std::byte> copy_buf(4 * MiB);
      for (unsigned r = 0; r < ranks; ++r) {
        auto src = mem->open_file(rank_path(r),
                                  {.create = false, .truncate = false, .write = false});
        auto dst = posix_backend->open_file(
            rank_path(r), {.create = true, .truncate = true, .write = true});
        std::uint64_t off = 0;
        for (;;) {
          auto n = mem->pread(src.value(), copy_buf, off);
          if (!n.ok() || n.value() == 0) break;
          (void)posix_backend->pwrite(
              dst.value(), std::span<const std::byte>(copy_buf.data(), n.value()), off);
          off += n.value();
        }
        (void)mem->close_file(src.value());
        (void)posix_backend->close_file(dst.value());
      }
      // Resident pages pass straight through without a prefetch, so each
      // restore starts from a cold page cache: the gates below then test
      // the window on reads that block.
      const auto evict_ranks = [&] {
        for (unsigned r = 0; r < ranks; ++r) evict_page_cache(posix_dir / rank_path(r));
      };
      if (!restore_mode(posix_backend, true, modes[2], evict_ranks)) {
        std::printf("BENCH_RESTORE_CRC FAIL (%s)\n", modes[2].name.c_str());
        return 1;
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(posix_dir, ec);

  TextTable table({"Restore path", "Time", "MiB/s", "TTFB", "hits/issued",
                   "sync preads", "inflight max", "vs direct"});
  char buf[6][40];
  std::snprintf(buf[0], sizeof(buf[0]), "%.3f s", direct);
  std::snprintf(buf[1], sizeof(buf[1]), "%.1f", total_mib / direct);
  table.add_row({"direct from backend (no CRFS)", buf[0], buf[1], "-", "-", "-", "-", ""});
  for (const auto& m : modes) {
    if (m.seconds < 0) continue;  // skipped mode
    std::snprintf(buf[0], sizeof(buf[0]), "%.3f s", m.seconds);
    std::snprintf(buf[1], sizeof(buf[1]), "%.1f", m.mib_s);
    std::snprintf(buf[2], sizeof(buf[2]), "%.2f ms", m.ttfb_ms);
    std::snprintf(buf[3], sizeof(buf[3]), "%llu/%llu",
                  static_cast<unsigned long long>(m.prefetch_hits),
                  static_cast<unsigned long long>(m.prefetch_issued));
    std::snprintf(buf[4], sizeof(buf[4]), "%llu",
                  static_cast<unsigned long long>(m.sync_preads));
    std::snprintf(buf[5], sizeof(buf[5]), "%llu",
                  static_cast<unsigned long long>(m.inflight_max));
    char vs[32];
    // The posix mode runs unthrottled on a different device — its wall
    // clock is not comparable with the throttled direct baseline.
    if (m.key == "POSIX_RA") {
      std::snprintf(vs, sizeof(vs), "n/a");
    } else {
      std::snprintf(vs, sizeof(vs), "%+.0f%%", 100.0 * (m.seconds - direct) / direct);
    }
    table.add_row({m.name, buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], vs});
  }
  std::printf("%s\n", table.render().c_str());

  // -- Greppable lines (CI bench-smoke) --------------------------------------
  std::printf("BENCH_RESTORE_DIRECT %.1f MiB/s\n", total_mib / direct);
  for (const auto& m : modes) {
    if (m.seconds < 0) continue;
    const double hit_rate = m.prefetch_issued > 0
        ? static_cast<double>(m.prefetch_hits) / static_cast<double>(m.prefetch_issued)
        : 0.0;
    std::printf("BENCH_RESTORE_%s %.1f MiB/s ttfb_ms=%.3f hit_rate=%.2f "
                "sync_preads=%llu inflight_max=%llu\n",
                m.key.c_str(), m.mib_s, m.ttfb_ms, hit_rate,
                static_cast<unsigned long long>(m.sync_preads),
                static_cast<unsigned long long>(m.inflight_max));
  }

  // -- Structural gates ------------------------------------------------------
  const ModeStats& sync_ra = modes[0];
  const ModeStats& sync_off = modes[1];
  const ModeStats& posix_ra = modes[2];
  bool ok = true;
  // Readahead must actually absorb blocking preads on a sequential scan.
  if (sync_ra.prefetch_hits == 0 || sync_ra.sync_preads >= sync_off.sync_preads) ok = false;
  // A cold scan on real fds must keep more than one chunk read in
  // flight across the IO threads, and its prefetches must be consumed.
  if (posix_ra.seconds > 0 && (posix_ra.inflight_max <= 1 || posix_ra.prefetch_hits == 0)) {
    ok = false;
  }
  // Readahead off == pure passthrough: one backend pread per app read,
  // zero prefetch traffic (the structural <=overhead proof).
  const bool off_passthrough =
      sync_off.prefetch_issued == 0 && sync_off.sync_preads == sync_off.ops;
  if (!off_passthrough) ok = false;
  std::printf("BENCH_RESTORE_STRUCTURAL ra_hits=%llu ra_sync_preads=%llu "
              "off_sync_preads=%llu posix_inflight_max=%llu off_passthrough=%s verdict=%s\n",
              static_cast<unsigned long long>(sync_ra.prefetch_hits),
              static_cast<unsigned long long>(sync_ra.sync_preads),
              static_cast<unsigned long long>(sync_off.sync_preads),
              static_cast<unsigned long long>(posix_ra.inflight_max),
              off_passthrough ? "yes" : "no", ok ? "PASS" : "FAIL");

  // Wall-clock guards: informational by default, hard under STRICT.
  const double off_overhead = 100.0 * (sync_off.seconds - direct) / direct;
  const bool off_guard = off_overhead <= 5.0;
  std::printf("BENCH_RESTORE_OFF_OVERHEAD %+.1f%% (guard <=5%%: %s)\n", off_overhead,
              off_guard ? "PASS" : "SOFT-FAIL");
  std::printf("BENCH_RESTORE_SPEEDUP %.2fx readahead vs none (wall clock, %s)\n",
              sync_off.seconds / sync_ra.seconds, strict ? "gated" : "informational");
  if (strict && (!off_guard || sync_ra.seconds >= sync_off.seconds)) ok = false;

  // -- JSON artifact ---------------------------------------------------------
  if (std::FILE* f = std::fopen("BENCH_RESTORE.json", "w")) {
    std::fprintf(f,
                 "{\n  \"ranks\": %u,\n  \"image_bytes\": %llu,\n"
                 "  \"throttle_bw_mib_s\": %.1f,\n  \"throttle_per_op_us\": %lld,\n"
                 "  \"direct\": {\"seconds\": %.6f, \"mib_s\": %.1f},\n  \"modes\": [\n",
                 ranks, static_cast<unsigned long long>(image_bytes), throttle_bw / MiB,
                 static_cast<long long>(throttle_op.count()), direct, total_mib / direct);
    std::vector<std::size_t> printed;
    for (std::size_t i = 0; i < modes.size(); ++i) {
      if (modes[i].seconds >= 0) printed.push_back(i);
    }
    for (std::size_t p = 0; p < printed.size(); ++p) {
      const std::size_t i = printed[p];
      const auto& m = modes[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"readahead\": %s,\n"
          "     \"seconds\": %.6f, \"mib_s\": %.1f, \"ttfb_ms\": %.3f,\n"
          "     \"ops\": %llu, \"bytes\": %llu, \"prefetch_issued\": %llu,\n"
          "     \"prefetch_hits\": %llu, \"prefetch_wasted\": %llu,\n"
          "     \"sync_preads\": %llu, \"inflight_max\": %llu}%s\n",
          m.name.c_str(), readaheads[i] ? "true" : "false", m.seconds,
          m.mib_s, m.ttfb_ms, static_cast<unsigned long long>(m.ops),
          static_cast<unsigned long long>(m.bytes),
          static_cast<unsigned long long>(m.prefetch_issued),
          static_cast<unsigned long long>(m.prefetch_hits),
          static_cast<unsigned long long>(m.prefetch_wasted),
          static_cast<unsigned long long>(m.sync_preads),
          static_cast<unsigned long long>(m.inflight_max),
          p + 1 < printed.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"structural_pass\": %s,\n  \"off_overhead_pct\": %.1f\n}\n",
                 ok ? "true" : "false", off_overhead);
    std::fclose(f);
    std::printf("wrote BENCH_RESTORE.json\n");
  }

  if (!ok) {
    std::printf("BENCH_RESTORE verdict: FAIL\n");
    return 1;
  }
  std::printf("BENCH_RESTORE verdict: PASS\n");
  return 0;
}
