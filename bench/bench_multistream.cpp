// Concurrent checkpoint-stream write-path benchmark (docs/PERFORMANCE.md).
//
// Measures aggregate FuseShim -> Crfs -> MemBackend throughput for 1, 4,
// and 16 parallel streams, each issuing sequential 256 KiB writes that
// the shim splits into <=128 KiB FUSE-sized requests. MemBackend (not
// NullBackend) so the IO threads pay a real memcpy per chunk — that is
// what makes backend-call coalescing and per-file locking visible in the
// numbers instead of being hidden behind a free discard.
//
// Two configurations per stream count:
//   * tuned   — mount defaults (io_batch=8, pwritev runs)
//   * legacy  — io_batch=1: one pop and one pwrite per chunk. It differs
//     from the defaults only in batching; both arms share the one-lock
//     pool and the handle map.
//
// Output: one BENCH_WRITEPATH_STREAMS<N> line per tuned stream count (the
// CI smoke greps these), a BENCH_WRITEPATH_COALESCED_PWRITES line proving
// the vectored-write path engaged, and BENCH_WRITEPATH.json in the
// current directory for artifact upload.
//
// The exit gate (no coalesced pwrites -> exit 1) does not rest on timing:
// fast MemBackend workers pop most chunks the moment they are queued, so
// the measured rows may coalesce nothing on a given run. A coalescing
// probe holds one IO thread's first backend write until the stream has
// queued further adjacent chunks behind it, so that thread's next dequeue
// always holds a run to coalesce.
//
// Env knobs: CRFS_BENCH_BYTES overrides the per-stream volume and
// CRFS_BENCH_REPS the repetitions (best-of); CRFS_BENCH_BATCH /
// CRFS_BENCH_POOL override the tuned config's io_batch / pool_size for
// one-off experiments. Defaults keep the full run under ~30 s.
//
// Wall-clock caveat: on a single-core host the writer threads and IO
// workers timeshare one CPU, so lock-contention wins cannot show up as
// throughput; compare the backend-pwrite counts (structure) there and
// trust the multistream MiB/s only on real multicore hardware.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/mem_backend.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/fuse_shim.h"

using namespace crfs;

namespace {

struct RunResult {
  double mib_s = 0.0;
  std::uint64_t coalesced_pwrites = 0;
  std::uint64_t backend_pwrites = 0;
};

RunResult run_streams(int streams, std::size_t per_stream, const Config& cfg) {
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, cfg);
  if (!fs.ok()) {
    std::fprintf(stderr, "mount failed: %s\n", fs.error().to_string().c_str());
    return {};
  }
  FuseShim shim(*fs.value(), FuseOptions{});

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(streams));
  for (int w = 0; w < streams; ++w) {
    writers.emplace_back([&, w] {
      auto h = shim.open("stream" + std::to_string(w),
                         {.create = true, .truncate = true, .write = true});
      if (!h.ok()) return;
      std::vector<std::byte> buf(256 * KiB, std::byte{7});
      // Wrap the offset so MemBackend files stay bounded (32 MiB each)
      // while the measured volume is per_stream bytes.
      const std::size_t wrap = 32 * MiB;
      std::uint64_t off = 0;
      for (std::size_t done = 0; done < per_stream; done += buf.size()) {
        (void)shim.write(h.value(), buf, off);
        off += buf.size();
        if (off >= wrap) off = 0;
      }
      (void)shim.close(h.value());
    });
  }
  for (auto& t : writers) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  RunResult r;
  r.mib_s = static_cast<double>(per_stream) * streams / MiB / seconds;
  r.coalesced_pwrites = fs.value()->metrics().counter("crfs.io.coalesced_pwrites").value();
  r.backend_pwrites = mem->total_pwrites();
  return r;
}

RunResult best_of(int reps, int streams, std::size_t per_stream, const Config& cfg) {
  RunResult best;
  for (int i = 0; i < reps; ++i) {
    const RunResult r = run_streams(streams, per_stream, cfg);
    if (r.mib_s > best.mib_s) best = r;
  }
  return best;
}

// Forwards to a MemBackend, holding the first backend write (pwrite or
// pwritev) until `ready()` holds or one second passes.
class HoldFirstWriteBackend final : public BackendFs {
 public:
  explicit HoldFirstWriteBackend(std::function<bool()> ready) : ready_(std::move(ready)) {}

  Status pwrite(BackendFile f, std::span<const std::byte> d, std::uint64_t off) override {
    hold_first();
    return inner_.pwrite(f, d, off);
  }
  Status pwritev(BackendFile f, std::span<const BackendIoVec> iov, std::uint64_t off) override {
    hold_first();
    return inner_.pwritev(f, iov, off);
  }
  Result<BackendFile> open_file(const std::string& p, OpenFlags fl) override {
    return inner_.open_file(p, fl);
  }
  Status close_file(BackendFile f) override { return inner_.close_file(f); }
  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    return inner_.pread(f, d, off);
  }
  Status fsync(BackendFile f) override { return inner_.fsync(f); }
  Status truncate(BackendFile f, std::uint64_t s) override { return inner_.truncate(f, s); }
  Result<BackendStat> stat(const std::string& p) override { return inner_.stat(p); }
  Status mkdir(const std::string& p) override { return inner_.mkdir(p); }
  Status rmdir(const std::string& p) override { return inner_.rmdir(p); }
  Status unlink(const std::string& p) override { return inner_.unlink(p); }
  Status rename(const std::string& a, const std::string& b) override {
    return inner_.rename(a, b);
  }
  Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_.list_dir(p);
  }
  std::string name() const override { return "hold_first(" + inner_.name() + ")"; }

 private:
  void hold_first() {
    if (held_.exchange(true)) return;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (!ready_() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  MemBackend inner_;
  std::function<bool()> ready_;
  std::atomic<bool> held_{false};
};

// One sequential stream on a single IO thread whose first backend write
// is held until two more chunks are queued behind it; returns the mount's
// coalesced pwrites. Unlike the timed rows this cannot race: the held
// worker is the only consumer, so the queue must fill, and its next
// dequeue takes adjacent chunks of one file.
std::uint64_t coalescing_probe(Config cfg) {
  cfg.io_threads = 1;
  const Crfs* mounted = nullptr;
  auto backend = std::make_shared<HoldFirstWriteBackend>(
      [&mounted] { return mounted->queue_depth() >= 2; });
  auto fs = Crfs::mount(backend, cfg);
  if (!fs.ok()) {
    std::fprintf(stderr, "mount failed: %s\n", fs.error().to_string().c_str());
    return 0;
  }
  mounted = fs.value().get();
  FuseShim shim(*fs.value(), FuseOptions{});
  auto h = shim.open("probe", {.create = true, .truncate = true, .write = true});
  if (!h.ok()) return 0;
  std::vector<std::byte> buf(256 * KiB, std::byte{7});
  const std::uint64_t total = (cfg.num_chunks() + 2) * cfg.chunk_size;
  for (std::uint64_t off = 0; off < total; off += buf.size()) {
    (void)shim.write(h.value(), buf, off);
  }
  (void)shim.close(h.value());
  return fs.value()->metrics().counter("crfs.io.coalesced_pwrites").value();
}

}  // namespace

int main() {
  std::size_t base_bytes = 256 * MiB;
  if (const char* env = std::getenv("CRFS_BENCH_BYTES")) {
    if (auto parsed = parse_bytes(env)) base_bytes = *parsed;
  }
  int reps = 3;
  if (const char* env = std::getenv("CRFS_BENCH_REPS")) {
    reps = std::max(1, std::atoi(env));
  }

  Config tuned{};  // mount defaults: io_batch=8
  if (const char* env = std::getenv("CRFS_BENCH_BATCH")) tuned.io_batch = static_cast<unsigned>(std::atoi(env));
  if (const char* env = std::getenv("CRFS_BENCH_POOL")) { if (auto p = parse_bytes(env)) tuned.pool_size = *p; }
  Config legacy{};
  legacy.io_batch = 1;

  std::printf("=== Multistream write-path throughput (FuseShim -> Crfs -> MemBackend) ===\n");
  std::printf("tuned: %s | legacy: %s | best of %d reps\n\n",
              tuned.describe().c_str(), legacy.describe().c_str(), reps);

  const int stream_counts[] = {1, 4, 16};
  std::vector<std::pair<int, RunResult>> tuned_results;
  std::uint64_t total_coalesced = 0;
  for (const int streams : stream_counts) {
    // Keep the 16-stream run's total volume in the same ballpark as the
    // single-stream run so wall-clock stays flat across rows.
    const std::size_t per_stream = streams >= 16 ? base_bytes / 2 : base_bytes;
    const RunResult t = best_of(reps, streams, per_stream, tuned);
    const RunResult l = best_of(reps, streams, per_stream, legacy);
    tuned_results.emplace_back(streams, t);
    total_coalesced += t.coalesced_pwrites;
    std::printf("streams=%-2d  tuned %8.1f MiB/s (%llu backend pwrites, %llu coalesced)"
                "  legacy %8.1f MiB/s (%llu pwrites)  speedup %.2fx\n",
                streams, t.mib_s, static_cast<unsigned long long>(t.backend_pwrites),
                static_cast<unsigned long long>(t.coalesced_pwrites), l.mib_s,
                static_cast<unsigned long long>(l.backend_pwrites),
                l.mib_s > 0 ? t.mib_s / l.mib_s : 0.0);
  }

  const std::uint64_t probe_coalesced = coalescing_probe(tuned);
  total_coalesced += probe_coalesced;
  std::printf("coalescing probe (1 IO thread, first write held): %llu coalesced pwrites\n",
              static_cast<unsigned long long>(probe_coalesced));

  std::printf("\n");
  for (const auto& [streams, r] : tuned_results) {
    std::printf("BENCH_WRITEPATH_STREAMS%d %.1f MiB/s\n", streams, r.mib_s);
  }
  std::printf("BENCH_WRITEPATH_COALESCED_PWRITES %llu\n",
              static_cast<unsigned long long>(total_coalesced));

  // Machine-readable copy for the CI artifact.
  if (std::FILE* f = std::fopen("BENCH_WRITEPATH.json", "w")) {
    std::fprintf(f, "{\n  \"config\": \"%s\",\n  \"streams\": {\n", tuned.describe().c_str());
    for (std::size_t i = 0; i < tuned_results.size(); ++i) {
      const auto& [streams, r] = tuned_results[i];
      std::fprintf(f,
                   "    \"%d\": {\"mib_per_s\": %.1f, \"backend_pwrites\": %llu, "
                   "\"coalesced_pwrites\": %llu}%s\n",
                   streams, r.mib_s, static_cast<unsigned long long>(r.backend_pwrites),
                   static_cast<unsigned long long>(r.coalesced_pwrites),
                   i + 1 < tuned_results.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"coalesced_pwrites_total\": %llu\n}\n",
                 static_cast<unsigned long long>(total_coalesced));
    std::fclose(f);
    std::printf("wrote BENCH_WRITEPATH.json\n");
  }

  if (total_coalesced == 0) {
    std::fprintf(stderr, "FAIL: sequential workload produced no coalesced pwrites\n");
    return 1;
  }
  return 0;
}
