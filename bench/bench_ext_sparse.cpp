// Extension experiment: vmadump-style zero-page elision through CRFS.
//
// The paper's reference [10] (Plank et al., "Memory exclusion") is the
// classic observation that much of a process image does not need to be
// written. BLCR's vmadump skips zero pages; our dense writer (the paper's
// profiled mode) does not. This bench measures, on the REAL CRFS
// implementation, what elision buys on top of aggregation — and what it
// costs (sparse streams break pure sequentiality, so CRFS flushes more
// partial chunks).
#include <cstdio>

#include "backend/mem_backend.h"
#include "blcr/checkpoint_writer.h"
#include "blcr/process_image.h"
#include "blcr/sinks.h"
#include "common/table.h"
#include "common/units.h"
#include "common/wall_clock.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"

using namespace crfs;

namespace {

struct RunResult {
  double seconds = 0;
  std::uint64_t backend_bytes = 0;
  std::uint64_t partial_flushes = 0;
  std::uint64_t full_flushes = 0;
};

RunResult run(unsigned ranks, std::uint64_t image_bytes, bool sparse,
              std::uint64_t min_run = 64 * KiB) {
  auto mem = std::make_shared<MemBackend>();
  auto fs = Crfs::mount(mem, Config{});
  FuseShim shim(*fs.value(), FuseOptions{.big_writes = true});

  const Stopwatch sw;
  for (unsigned r = 0; r < ranks; ++r) {
    const auto img = blcr::ProcessImage::synthesize(r, image_bytes, 77 + r);
    auto file = File::open(shim, "rank" + std::to_string(r) + ".ckpt",
                           {.create = true, .truncate = true, .write = true});
    if (!file.ok()) return {};
    blcr::CrfsFileSink sink(file.value());
    (void)blcr::CheckpointWriter::write_image(
        img, sink, nullptr, {.elide_zero_pages = sparse, .min_skip_run = min_run});
    (void)file.value().close();
  }
  RunResult out;
  out.seconds = sw.elapsed_seconds();
  out.backend_bytes = mem->total_pwritten_bytes();
  obs::Registry& metrics = fs.value()->metrics();
  out.partial_flushes = metrics.counter("crfs.mount.partial_flushes").value();
  out.full_flushes = metrics.counter("crfs.mount.full_flushes").value();
  return out;
}

}  // namespace

int main() {
  constexpr unsigned kRanks = 4;
  constexpr std::uint64_t kImage = 32 * MiB;

  std::printf("=== Extension: zero-page elision (memory exclusion, paper ref [10]) "
              "===\n");
  std::printf("%u ranks x %s images through real CRFS (paper defaults), dense vs "
              "sparse.\n\n",
              kRanks, format_bytes(kImage).c_str());

  const auto dense = run(kRanks, kImage, false);
  const auto sparse_all = run(kRanks, kImage, true, 4 * KiB);
  const auto sparse = run(kRanks, kImage, true, 64 * KiB);

  TextTable table({"Mode", "Wall time", "Backend bytes", "Full flushes",
                   "Partial flushes"});
  char buf[2][32];
  auto row = [&](const char* name, const RunResult& r) {
    std::snprintf(buf[0], sizeof(buf[0]), "%.3f s", r.seconds);
    table.add_row({name, buf[0], format_bytes(r.backend_bytes),
                   std::to_string(r.full_flushes), std::to_string(r.partial_flushes)});
  };
  row("dense (paper mode)", dense);
  row("sparse, skip >= 4K", sparse_all);
  row("sparse, skip >= 64K", sparse);
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "Bytes saved: %.1f%% (>=4K skips) / %.1f%% (>=64K skips). Every skip\n"
      "breaks stream contiguity — a partial chunk flush in CRFS — so eliding\n"
      "single pages shreds aggregation (%llu partial flushes); the 64K\n"
      "threshold keeps nearly all the byte savings while flushing only %llu\n"
      "partials. Elision trades aggregation quality for volume: favourable\n"
      "when the backend is volume-bound (class D), irrelevant when it is\n"
      "cache-bound (B/C).\n",
      100.0 * (1.0 - static_cast<double>(sparse_all.backend_bytes) /
                         static_cast<double>(dense.backend_bytes)),
      100.0 * (1.0 - static_cast<double>(sparse.backend_bytes) /
                         static_cast<double>(dense.backend_bytes)),
      static_cast<unsigned long long>(sparse_all.partial_flushes),
      static_cast<unsigned long long>(sparse.partial_flushes));
  return 0;
}
