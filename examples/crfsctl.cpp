// crfsctl: the CRFS deployment admin tool.
//
//   crfsctl options <mount-options>       parse + echo canonical options
//   crfsctl bench <dir> [mount-options]   aggregation throughput on a real
//                                         directory, CRFS vs direct
//   crfsctl stats <dir> [mount-options] [--json]
//                                         run an instrumented checkpoint
//                                         workload, print the per-stage
//                                         pipeline report (crfs::obs);
//                                         --json emits stats_json() instead
//   crfsctl trace <dir> <out.json> [mount-options] [--thread=N]
//                [--since-ms=N] [--file=substr]
//                                         same workload with span tracing;
//                                         writes a Chrome/Perfetto trace,
//                                         optionally filtered to one lane,
//                                         a trailing time window, or spans
//                                         tagged with a file substring
//   crfsctl slow <dir> [mount-options] [--json] [--inject-slow[=MBps]]
//                                         run the workload and print the
//                                         tail-latency forensic store:
//                                         slow-chunk exemplars with their
//                                         full causal chains (stage times,
//                                         queue depths, knob generation);
//                                         --inject-slow throttles the
//                                         backend so a fast disk still
//                                         produces exemplars
//   crfsctl watch <dir> [mount-options]   drive the workload with the live
//                                         sampler on; refresh a terminal
//                                         view of rates, occupancy, and
//                                         fired health events
//   crfsctl prom <dir> [mount-options]    run the workload, dump the final
//                                         snapshot in Prometheus text
//                                         exposition format (incl. the
//                                         crfs_epoch_* series)
//   crfsctl report <dir> [mount-options] [--json]
//                                         run two explicit checkpoint
//                                         epochs and print the epoch
//                                         ledger: bytes, durability lag,
//                                         aggregation ratio, effective
//                                         bandwidth per epoch
//   crfsctl postmortem <dir>              pretty-print the newest postmortem
//                                         frame of a journal (the directory
//                                         itself or a mount dir with
//                                         .crfs/journal): the one a fatal
//                                         signal wrote, or the last
//                                         Crfs::dump_postmortem
//   crfsctl knobs <dir> [mount-options] [--json]
//                                         mount and print the runtime knob
//                                         table: bounds, units, current
//                                         values, knob-plane generation
//   crfsctl tune <dir> <knob=value[,knob=value...]> [mount-options] [--json]
//                                         apply tunes through the
//                                         .crfs_tune control file and
//                                         print the resulting audited
//                                         decisions
//   crfsctl timeline <dir> [--since=SEC] [--json]
//                                         read a mount's durable telemetry
//                                         journal (the directory itself or
//                                         a mount dir with .crfs/journal)
//                                         and print 1 s time buckets of
//                                         write rate, durability-lag p99,
//                                         and occupancy, with checkpoint
//                                         epochs overlaid — works after
//                                         the writing process is gone,
//                                         torn tails are reported, not
//                                         fatal
//   crfsctl slo <dir> [--json]            replay the journal's sample
//                                         frames through the SLO burn-rate
//                                         monitor (targets recovered from
//                                         the journal meta frame) and
//                                         print per-objective burn rates
//                                         and breaches
//   crfsctl epochs <dir> <set>            list a CheckpointSet's epochs
//   crfsctl verify <dir> <set> [epoch]    verify an epoch (default latest)
//
// Examples:
//   crfsctl bench /scratch "chunk=4M,pool=16M,threads=4"
//   crfsctl trace /scratch /tmp/epoch.json "chunk=1M,pool=4M"
//   crfsctl slow /scratch --inject-slow=32 --json
//   crfsctl verify /scratch job42
//
// Exit codes (stable, scripts may rely on them):
//   0   success
//   1   bad arguments / rejected tune tokens / workload failure
//   2   malformed document (stats, trace, postmortem failed to parse; no
//       journal, no postmortem frame, malformed SLO targets)
//   3   mount unreachable (backend create or Crfs::mount failed)
//   64  usage error (unknown command / missing operands)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "backend/posix_backend.h"
#include "backend/tiered_backend.h"
#include "backend/wrappers.h"
#include "blcr/checkpoint_set.h"
#include "common/table.h"
#include "common/units.h"
#include "common/wall_clock.h"
#include "crfs/mount_options.h"
#include "crfs/posix_api.h"
#include "obs/chrome_trace.h"
#include "obs/epoch.h"
#include "obs/journal.h"
#include "obs/json_lite.h"
#include "obs/prom.h"
#include "obs/sampler.h"
#include "obs/rules.h"
#include "obs/slow_store.h"

using namespace crfs;

namespace {

// Stable exit codes (see the file header): 1 = bad arguments, 2 =
// malformed document, 3 = mount unreachable. Scripts branch on these.
constexpr int kExitBadArgs = 1;
constexpr int kExitMalformed = 2;
constexpr int kExitUnreachable = 3;

int usage() {
  std::fprintf(stderr,
               "usage: crfsctl options <mount-options>\n"
               "       crfsctl bench <dir> [mount-options]\n"
               "       crfsctl stats <dir> [mount-options] [--json]\n"
               "       crfsctl trace <dir> <out.json> [mount-options] "
               "[--thread=N] [--since-ms=N] [--file=substr]\n"
               "       crfsctl slow <dir> [mount-options] [--json] "
               "[--inject-slow[=MBps]]\n"
               "       crfsctl watch <dir> [mount-options]\n"
               "       crfsctl prom <dir> [mount-options]\n"
               "       crfsctl report <dir> [mount-options] [--json]\n"
               "       crfsctl postmortem <dir>\n"
               "       crfsctl knobs <dir> [mount-options] [--json]\n"
               "       crfsctl tune <dir> <knob=value[,knob=value...]> "
               "[mount-options] [--json]\n"
               "       crfsctl timeline <dir> [--since=SEC] [--json]\n"
               "       crfsctl slo <dir> [--json]\n"
               "       crfsctl epochs <dir> <set>\n"
               "       crfsctl verify <dir> <set> [epoch]\n");
  return 64;
}

// The backend a crfsctl command mounts over `dir`: a plain PosixBackend,
// or — when the mount options name a staging tier (stage=/remote=) — a
// TieredBackend staging over `dir` and draining to the remote directory.
Result<std::shared_ptr<BackendFs>> make_ctl_backend(const std::string& dir,
                                                    const Config& cfg) {
  if (!cfg.tier_stage.empty()) {
    // remote= names the durable tier explicitly; without it the command's
    // <dir> argument is the remote and stage= is purely an accelerator.
    return make_tiered_backend(cfg, cfg.tier_remote.empty() ? dir : cfg.tier_remote);
  }
  auto backend = PosixBackend::create(dir);
  if (!backend.ok()) return backend.error();
  return std::shared_ptr<BackendFs>(std::move(backend).value());
}

// Pushes a checkpoint-shaped workload through a fresh CRFS mount on `dir`:
// 4 writer threads ("ranks"), one 16 MB image each, 64 KB records, fsync +
// close — enough traffic to populate every pipeline stage's histogram.
// Returns the still-mounted filesystem so the caller can report/export.
Result<std::unique_ptr<Crfs>> run_instrumented_workload(const std::string& dir,
                                                        const MountOptions& opts) {
  constexpr unsigned kRanks = 4;
  constexpr std::size_t kPerRank = 16 * MiB;
  constexpr std::size_t kRecord = 64 * KiB;

  auto backend = make_ctl_backend(dir, opts.config);
  if (!backend.ok()) return backend.error();
  auto fs = Crfs::mount(std::move(backend.value()), opts.config);
  if (!fs.ok()) return fs.error();

  {
    FuseShim shim(*fs.value(), opts.fuse);
    std::vector<std::thread> ranks;
    for (unsigned r = 0; r < kRanks; ++r) {
      ranks.emplace_back([&, r] {
        const std::string path = ".crfsctl_obs_rank" + std::to_string(r);
        std::vector<std::byte> record(kRecord, static_cast<std::byte>(r));
        auto h = shim.open(path, {.create = true, .truncate = true, .write = true});
        if (!h.ok()) return;
        for (std::size_t off = 0; off < kPerRank; off += kRecord) {
          (void)shim.write(h.value(), record, off);
        }
        (void)shim.fsync(h.value());
        (void)shim.close(h.value());
      });
    }
    for (auto& t : ranks) t.join();
  }
  for (unsigned r = 0; r < kRanks; ++r) {
    (void)fs.value()->unlink(".crfsctl_obs_rank" + std::to_string(r));
  }
  return fs;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) return usage();
  bool as_json = false;
  const char* optstr = "";
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else {
      optstr = argv[i];
    }
  }
  auto opts = parse_mount_options(optstr);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  auto fs = run_instrumented_workload(argv[2], opts.value());
  if (!fs.ok()) {
    std::fprintf(stderr, "error: %s\n", fs.error().to_string().c_str());
    return kExitUnreachable;
  }
  if (as_json) {
    std::printf("%s\n", fs.value()->stats_json().c_str());
  } else {
    std::printf("%s", fs.value()->stats_report().c_str());
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string out_path = argv[3];
  long long thread_filter = -1;
  double since_ms = -1.0;
  std::string file_filter;
  const char* optstr = "";
  for (int i = 4; i < argc; ++i) {
    if (std::strncmp(argv[i], "--thread=", 9) == 0) {
      thread_filter = std::atoll(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--since-ms=", 11) == 0) {
      since_ms = std::atof(argv[i] + 11);
      if (since_ms <= 0) {
        std::fprintf(stderr, "error: bad --since-ms value: %s\n", argv[i]);
        return kExitBadArgs;
      }
    } else if (std::strncmp(argv[i], "--file=", 7) == 0) {
      file_filter = argv[i] + 7;
    } else {
      optstr = argv[i];
    }
  }
  auto opts = parse_mount_options(optstr);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  opts.value().config.enable_tracing = true;
  auto fs = run_instrumented_workload(argv[2], opts.value());
  if (!fs.ok()) {
    std::fprintf(stderr, "error: %s\n", fs.error().to_string().c_str());
    return kExitUnreachable;
  }
  auto events = fs.value()->trace().snapshot();
  // Filters narrow the exported document, not the capture: --thread keeps
  // one lane, --since-ms keeps the trailing window (relative to the last
  // span end — monotonic timestamps have no meaningful absolute origin),
  // --file keeps spans tagged with a path containing the substring.
  if (thread_filter >= 0 || since_ms > 0 || !file_filter.empty()) {
    std::uint64_t max_end = 0;
    for (const auto& e : events) max_end = std::max(max_end, e.ts_ns + e.dur_ns);
    const std::uint64_t window_ns = static_cast<std::uint64_t>(since_ms * 1e6);
    const std::uint64_t horizon =
        since_ms > 0 ? (max_end > window_ns ? max_end - window_ns : 0) : 0;
    std::erase_if(events, [&](const obs::TraceEvent& e) {
      if (thread_filter >= 0 && e.tid != static_cast<std::uint32_t>(thread_filter)) {
        return true;
      }
      if (since_ms > 0 && e.ts_ns + e.dur_ns < horizon) return true;
      if (!file_filter.empty() &&
          (e.tag == nullptr || std::strstr(e.tag, file_filter.c_str()) == nullptr)) {
        return true;
      }
      return false;
    });
  }
  const Status written = obs::write_chrome_trace(out_path, events);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.error().to_string().c_str());
    return kExitBadArgs;
  }
  // Self-check: the exported document must parse back with a traceEvents
  // array — the same schema check the tests apply.
  std::string json;
  {
    std::FILE* f = std::fopen(out_path.c_str(), "r");
    if (f != nullptr) {
      char buf[65536];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, n);
      std::fclose(f);
    }
  }
  auto parsed = obs::json::parse(json);
  if (!parsed.has_value() || parsed->get("traceEvents") == nullptr ||
      !parsed->get("traceEvents")->is_array()) {
    std::fprintf(stderr, "error: emitted trace failed schema self-check\n");
    return kExitMalformed;
  }
  std::printf("wrote %zu span events to %s (load in chrome://tracing or "
              "https://ui.perfetto.dev)\n%s",
              events.size(), out_path.c_str(), fs.value()->stats_report().c_str());
  return 0;
}

// `crfsctl slow`: run a small checkpoint workload and print the
// tail-latency forensic store — each exemplar is one slow chunk's full
// causal chain (trace id, the copy-in -> durable stamp chain, disjoint
// stage durations) plus the pipeline state it saw. On a fast local disk
// nothing crosses the default 1 s threshold, so --inject-slow wraps the
// backend in a ThrottledBackend (default 64 MB/s) and arms a 5 ms
// threshold — the supported way to demo the store and what the CLI test
// uses to guarantee an exemplar.
int cmd_slow(int argc, char** argv) {
  if (argc < 3) return usage();
  bool as_json = false;
  double inject_mbps = 0.0;
  const char* optstr = "";
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strncmp(argv[i], "--inject-slow", 13) == 0) {
      inject_mbps = 64.0;
      if (argv[i][13] == '=') {
        inject_mbps = std::atof(argv[i] + 14);
      }
      if (argv[i][13] != '\0' && argv[i][13] != '=') {
        std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
        return kExitBadArgs;
      }
      if (inject_mbps <= 0) {
        std::fprintf(stderr, "error: bad --inject-slow value: %s\n", argv[i]);
        return kExitBadArgs;
      }
    } else {
      optstr = argv[i];
    }
  }
  auto opts = parse_mount_options(optstr);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  auto backend = PosixBackend::create(argv[2]);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.error().to_string().c_str());
    return kExitUnreachable;
  }
  std::shared_ptr<BackendFs> shared = std::move(backend.value());
  if (inject_mbps > 0) {
    auto throttled =
        std::make_shared<ThrottledBackend>(std::move(shared), inject_mbps * 1e6);
    // Throttle the read-back scan too, so the demo captures both kinds of
    // exemplar (slow chunk writes AND slow restore reads).
    throttled->throttle_reads(true);
    shared = std::move(throttled);
    // Throttled transfers are tens of ms per chunk; arm a threshold that
    // catches them unless the caller chose one explicitly.
    if (opts.value().config.slow_capture_ms == Config{}.slow_capture_ms) {
      opts.value().config.slow_capture_ms = 5;
    }
  }
  auto fs = Crfs::mount(shared, opts.value().config);
  if (!fs.ok()) {
    std::fprintf(stderr, "error: %s\n", fs.error().to_string().c_str());
    return kExitUnreachable;
  }

  constexpr unsigned kRanks = 2;
  constexpr std::size_t kPerRank = 4 * MiB;
  constexpr std::size_t kRecord = 64 * KiB;
  {
    FuseShim shim(*fs.value(), opts.value().fuse);
    std::vector<std::thread> ranks;
    for (unsigned r = 0; r < kRanks; ++r) {
      ranks.emplace_back([&, r] {
        const std::string path = ".crfsctl_slow_rank" + std::to_string(r);
        std::vector<std::byte> record(kRecord, static_cast<std::byte>(r));
        auto h = shim.open(path, {.create = true, .truncate = true, .write = true});
        if (!h.ok()) return;
        for (std::size_t off = 0; off < kPerRank; off += kRecord) {
          (void)shim.write(h.value(), record, off);
        }
        (void)shim.fsync(h.value());
        (void)shim.close(h.value());
      });
    }
    for (auto& t : ranks) t.join();

    // Restore-shaped read-back of rank 0's image: a sequential scan whose
    // chunk-sized prefetch reads cross the same throttle, so the store
    // captures kind="read" exemplars beside the write chains.
    auto h = shim.open(".crfsctl_slow_rank0", {.write = false});
    if (h.ok()) {
      std::vector<std::byte> buf(kRecord);
      for (std::size_t off = 0; off < kPerRank; off += kRecord) {
        (void)shim.read(h.value(), buf, off);
      }
      (void)shim.close(h.value());
    }
  }
  for (unsigned r = 0; r < kRanks; ++r) {
    (void)fs.value()->unlink(".crfsctl_slow_rank" + std::to_string(r));
  }

  if (as_json) {
    std::printf("%s\n", fs.value()->slow_json().c_str());
    return 0;
  }
  const obs::SlowStore& store = fs.value()->slow_store();
  const auto exemplars = store.snapshot();
  std::printf("crfsctl slow: %u ranks x %s into %s (%s)\n", kRanks,
              format_bytes(kPerRank).c_str(), argv[2],
              format_mount_options(opts.value()).c_str());
  std::printf("threshold=%llu ms captured=%llu kept=%zu/%zu\n",
              static_cast<unsigned long long>(store.threshold_ns() / 1'000'000),
              static_cast<unsigned long long>(store.captured()), exemplars.size(),
              store.capacity());
  if (exemplars.empty()) {
    std::printf("no slow exemplars captured (nothing crossed the threshold; "
                "try --inject-slow or a lower slow_capture_ms)\n");
    return 0;
  }
  for (const auto& ex : exemplars) {
    std::printf(
        "SLOW trace_id=%llu kind=%s path=%s len=%llu total_ms=%.2f device_ms=%.2f\n",
        static_cast<unsigned long long>(ex.trace_id), ex.kind.c_str(), ex.path.c_str(),
        static_cast<unsigned long long>(ex.len),
        static_cast<double>(ex.total_lag_ns) / 1e6,
        static_cast<double>(ex.device_ns) / 1e6);
  }
  TextTable table({"Trace", "Kind", "Path", "Len", "Stall", "Fill", "Queue", "Submit",
                   "Device", "Total", "Qdepth", "Free", "Gen"});
  const auto ms = [](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f ms", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  for (const auto& ex : exemplars) {
    table.add_row({std::to_string(ex.trace_id), ex.kind, ex.path, format_bytes(ex.len),
                   ms(ex.pool_stall_ns), ms(ex.fill_ns), ms(ex.queue_ns),
                   ms(ex.submit_wait_ns), ms(ex.device_ns), ms(ex.total_lag_ns),
                   std::to_string(ex.queue_depth), std::to_string(ex.free_chunks),
                   std::to_string(ex.knob_generation)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_prom(int argc, char** argv) {
  if (argc < 3) return usage();
  auto opts = parse_mount_options(argc >= 4 ? argv[3] : "");
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  auto fs = run_instrumented_workload(argv[2], opts.value());
  if (!fs.ok()) {
    std::fprintf(stderr, "error: %s\n", fs.error().to_string().c_str());
    return kExitUnreachable;
  }
  // Finalize the auto epoch the workload opened so the crfs_epoch_*
  // series cover it too.
  (void)fs.value()->epoch_end();
  std::printf("%s%s", obs::to_prometheus(fs.value()->metrics().snapshot()).c_str(),
              obs::epochs_to_prometheus(fs.value()->epochs()).c_str());
  return 0;
}

// `crfsctl report`: two explicit multi-file checkpoint epochs through a
// fresh mount, then the epoch ledger — the paper's per-checkpoint numbers
// (bytes, wall time, aggregation ratio, effective bandwidth) plus the
// ledger-derived durability lag. Greppable: one "EPOCH id=..." line per
// record; --json emits epochs_to_json() instead.
int cmd_report(int argc, char** argv) {
  if (argc < 3) return usage();
  bool as_json = false;
  const char* optstr = "";
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else {
      optstr = argv[i];
    }
  }
  auto opts = parse_mount_options(optstr);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  if (!opts.value().config.epoch_tracking) {
    std::fprintf(stderr, "error: crfsctl report needs epoch tracking (drop no_epochs)\n");
    return kExitBadArgs;
  }

  constexpr unsigned kEpochs = 2;
  constexpr unsigned kRanks = 4;
  constexpr std::size_t kPerRank = 8 * MiB;
  constexpr std::size_t kRecord = 64 * KiB;

  auto backend = make_ctl_backend(argv[2], opts.value().config);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.error().to_string().c_str());
    return kExitUnreachable;
  }
  auto fs = Crfs::mount(std::move(backend.value()), opts.value().config);
  if (!fs.ok()) {
    std::fprintf(stderr, "error: %s\n", fs.error().to_string().c_str());
    return kExitUnreachable;
  }

  {
    FuseShim shim(*fs.value(), opts.value().fuse);
    for (unsigned e = 0; e < kEpochs; ++e) {
      (void)fs.value()->epoch_begin("ckpt-" + std::to_string(e));
      std::vector<std::thread> ranks;
      for (unsigned r = 0; r < kRanks; ++r) {
        ranks.emplace_back([&, e, r] {
          const std::string path = ".crfsctl_report_rank" + std::to_string(r) +
                                   ".ckpt." + std::to_string(e);
          std::vector<std::byte> record(kRecord, static_cast<std::byte>(r + e));
          auto h = shim.open(path, {.create = true, .truncate = true, .write = true});
          if (!h.ok()) return;
          for (std::size_t off = 0; off < kPerRank; off += kRecord) {
            (void)shim.write(h.value(), record, off);
          }
          (void)shim.close(h.value());
        });
      }
      for (auto& t : ranks) t.join();
      (void)fs.value()->epoch_end();
    }

    // Restore phase: scan the last checkpoint back, one sequential reader
    // per rank image — each scan becomes a finalized restore-ledger row.
    {
      std::vector<std::thread> ranks;
      for (unsigned r = 0; r < kRanks; ++r) {
        ranks.emplace_back([&, r] {
          const std::string path = ".crfsctl_report_rank" + std::to_string(r) +
                                   ".ckpt." + std::to_string(kEpochs - 1);
          std::vector<std::byte> buf(kRecord);
          auto h = shim.open(path, {.write = false});
          if (!h.ok()) return;
          for (std::size_t off = 0; off < kPerRank; off += kRecord) {
            (void)shim.read(h.value(), buf, off);
          }
          (void)shim.close(h.value());
        });
      }
      for (auto& t : ranks) t.join();
    }
  }
  // Over a tiered backend, wait for the background drain to finish BEFORE
  // unlinking the images — eviction only happens once an epoch is
  // remote-durable, and the ledger's drained_bytes/drain_bw columns
  // should reflect the whole run.
  if (fs.value()->tiered_backend() != nullptr) {
    (void)fs.value()->tiered_backend()->flush();
  }
  for (unsigned e = 0; e < kEpochs; ++e) {
    for (unsigned r = 0; r < kRanks; ++r) {
      (void)fs.value()->unlink(".crfsctl_report_rank" + std::to_string(r) + ".ckpt." +
                               std::to_string(e));
    }
  }

  const auto records = fs.value()->epochs();
  if (as_json) {
    std::printf("%s\n", obs::epochs_to_json(records).c_str());
    return 0;
  }
  std::printf("crfsctl report: %u epochs x %u ranks x %s into %s (%s)\n", kEpochs, kRanks,
              format_bytes(kPerRank).c_str(), argv[2], format_mount_options(opts.value()).c_str());
  TextTable table({"Epoch", "Label", "Files", "Bytes", "Chunks", "Agg ratio",
                   "Eff BW", "Lag mean", "Lag max", "Drained", "Drain BW"});
  for (const auto& rec : records) {
    std::printf("EPOCH id=%llu label=%s files=%llu bytes=%llu chunks=%llu "
                "durable=%llu backend_writes=%llu drained=%llu drain_ns=%llu\n",
                static_cast<unsigned long long>(rec.id), rec.label.c_str(),
                static_cast<unsigned long long>(rec.files),
                static_cast<unsigned long long>(rec.bytes),
                static_cast<unsigned long long>(rec.chunks),
                static_cast<unsigned long long>(rec.durable_bytes),
                static_cast<unsigned long long>(rec.backend_writes),
                static_cast<unsigned long long>(rec.drained_bytes),
                static_cast<unsigned long long>(rec.drain_ns));
    char agg[32], bw[32], lmean[32], lmax[32], dbw[32];
    std::snprintf(agg, sizeof(agg), "%.2f", rec.aggregation_ratio());
    std::snprintf(bw, sizeof(bw), "%.0f MB/s", rec.effective_bw() / 1e6);
    std::snprintf(lmean, sizeof(lmean), "%.2f ms", rec.mean_durability_lag_ns() / 1e6);
    std::snprintf(lmax, sizeof(lmax), "%.2f ms",
                  static_cast<double>(rec.durability_lag_max_ns) / 1e6);
    std::snprintf(dbw, sizeof(dbw), "%.0f MB/s", rec.drain_bw() / 1e6);
    table.add_row({std::to_string(rec.id), rec.label, std::to_string(rec.files),
                   format_bytes(rec.bytes), std::to_string(rec.chunks), agg, bw,
                   lmean, lmax, format_bytes(rec.drained_bytes),
                   rec.drained_bytes > 0 ? dbw : "-"});
  }
  std::printf("%s", table.render().c_str());
  if (fs.value()->tiered_backend() != nullptr) {
    // Greppable tier line + occupancy snapshot: the drain-lag view an
    // operator checks after a burst (stage should empty at remote speed).
    std::printf("TIER %s\n", fs.value()->tier_json().c_str());
  }

  // Critical-path attribution: where the epoch's chunks spent their
  // lifetime, summed over chunks (so concurrent stages can exceed wall
  // time on multi-thread pipelines). Copy/stall come from the app side,
  // queue/submit/device from the IO side; barrier is the close()/fsync()
  // drain wait, which overlaps the background stages and is reported
  // beside the decomposition, not summed into it.
  std::printf("critical path (per-epoch stage times, summed over chunks):\n");
  TextTable stages({"Epoch", "Wall", "Copy", "Pool stall", "Queue", "Submit",
                    "Device", "Barrier"});
  const auto ms = [](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f ms", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  for (const auto& rec : records) {
    std::printf("STAGES id=%llu copy_ns=%llu pool_stall_ns=%llu queue_ns=%llu "
                "submit_wait_ns=%llu device_ns=%llu barrier_ns=%llu\n",
                static_cast<unsigned long long>(rec.id),
                static_cast<unsigned long long>(rec.copy_ns),
                static_cast<unsigned long long>(rec.pool_stall_ns),
                static_cast<unsigned long long>(rec.queue_residency_ns),
                static_cast<unsigned long long>(rec.submit_wait_ns),
                static_cast<unsigned long long>(rec.device_ns),
                static_cast<unsigned long long>(rec.barrier_ns));
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.2f ms", rec.wall_seconds() * 1e3);
    stages.add_row({std::to_string(rec.id), wall, ms(rec.copy_ns),
                    ms(rec.pool_stall_ns), ms(rec.queue_residency_ns),
                    ms(rec.submit_wait_ns), ms(rec.device_ns), ms(rec.barrier_ns)});
  }
  std::printf("%s", stages.render().c_str());

  // Per-restore attribution: the read-side mirror of the epoch ledger —
  // one row per sequential scan, greppable as RESTORE lines.
  const auto restores = fs.value()->restore_ledger();
  if (!restores.empty()) {
    std::printf("restores:\n");
    TextTable rt({"Path", "Bytes", "Ops", "Issued", "Hits", "Wasted", "Sync", "TTFB"});
    for (const auto& r : restores) {
      std::printf("RESTORE path=%s bytes=%llu ops=%llu prefetch_issued=%llu "
                  "prefetch_hits=%llu prefetch_wasted=%llu sync_preads=%llu "
                  "ttfb_ns=%llu\n",
                  r.path.c_str(), static_cast<unsigned long long>(r.bytes),
                  static_cast<unsigned long long>(r.ops),
                  static_cast<unsigned long long>(r.prefetch_issued),
                  static_cast<unsigned long long>(r.prefetch_hits),
                  static_cast<unsigned long long>(r.prefetch_wasted),
                  static_cast<unsigned long long>(r.sync_preads),
                  static_cast<unsigned long long>(r.ttfb_ns));
      rt.add_row({r.path, format_bytes(r.bytes), std::to_string(r.ops),
                  std::to_string(r.prefetch_issued), std::to_string(r.prefetch_hits),
                  std::to_string(r.prefetch_wasted), std::to_string(r.sync_preads),
                  ms(r.ttfb_ns)});
    }
    std::printf("%s", rt.render().c_str());
  }
  return 0;
}

// Journal-directory operand shared by `postmortem`, `timeline` and
// `slo`: accepts the journal directory itself or a mount directory
// holding the conventional .crfs/journal subdirectory (the journal=
// layout the docs recommend).
std::string resolve_journal_dir(const char* operand) {
  std::error_code ec;
  const std::filesystem::path nested =
      std::filesystem::path(operand) / ".crfs" / "journal";
  if (std::filesystem::is_directory(nested, ec)) return nested.string();
  return operand;
}

// `crfsctl postmortem`: pretty-print the newest kPostmortem frame of a
// journal — the one a fatal signal left in postmortem.crfsj, or else the
// last Crfs::dump_postmortem. Exit 2 when the journal holds none or it
// fails to parse.
int cmd_postmortem(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string dir = resolve_journal_dir(argv[2]);
  const auto res = obs::JournalReader::read_dir(dir);
  if (!res.ok) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    return kExitMalformed;
  }
  const auto newest = std::find_if(res.records.rbegin(), res.records.rend(), [](const auto& r) {
    return r.type == obs::FrameType::kPostmortem;
  });
  if (newest == res.records.rend()) {
    std::fprintf(stderr, "error: no postmortem frame in journal %s\n", dir.c_str());
    return kExitMalformed;
  }
  const auto doc = obs::json::parse(newest->payload);
  if (!doc.has_value() || !doc->is_object()) {
    std::fprintf(stderr, "error: the postmortem frame in %s is not a JSON object\n",
                 dir.c_str());
    return kExitMalformed;
  }

  const auto num = [&](const obs::json::Value* v) -> double {
    return v != nullptr && v->is_number() ? v->number : 0.0;
  };
  std::printf("CRFS postmortem %s\n", dir.c_str());
  if (const auto* cfg = doc->get("config"); cfg != nullptr && cfg->is_string()) {
    std::printf("  config: %s\n", cfg->string.c_str());
  }
  std::printf("  rendered_ns: %.0f\n", num(doc->get("rendered_ns")));
  if (const auto* mount = doc->get("mount"); mount != nullptr && mount->is_object()) {
    std::printf("  mount: app_writes=%.0f app_bytes=%.0f full_flushes=%.0f "
                "partial_flushes=%.0f\n",
                num(mount->get("app_writes")), num(mount->get("app_bytes")),
                num(mount->get("full_flushes")), num(mount->get("partial_flushes")));
  }

  const auto* open = doc->get("epoch_open");
  if (open != nullptr && open->is_object()) {
    const auto* label = open->get("label");
    std::printf("  OPEN EPOCH id=%.0f label=%s bytes=%.0f durable=%.0f chunks=%.0f\n",
                num(open->get("id")),
                label != nullptr && label->is_string() ? label->string.c_str() : "?",
                num(open->get("bytes")), num(open->get("durable_bytes")),
                num(open->get("chunks")));
  } else {
    std::printf("  no epoch open at dump time\n");
  }
  if (const auto* eps = doc->get("epochs"); eps != nullptr && eps->is_array()) {
    std::printf("  finished epochs: %zu (epochs_completed=%.0f)\n", eps->array->size(),
                num(doc->get("epochs_completed")));
    for (const auto& e : *eps->array) {
      const auto* label = e.get("label");
      std::printf("    EPOCH id=%.0f label=%s bytes=%.0f durable=%.0f\n",
                  num(e.get("id")),
                  label != nullptr && label->is_string() ? label->string.c_str() : "?",
                  num(e.get("bytes")), num(e.get("durable_bytes")));
    }
  }
  if (const auto* events = doc->get("events"); events != nullptr && events->is_array()) {
    std::printf("  events: %zu\n", events->array->size());
    for (const auto& e : *events->array) {
      const auto* rule = e.get("rule");
      const auto* msg = e.get("message");
      std::printf("    EVENT %s: %s\n",
                  rule != nullptr && rule->is_string() ? rule->string.c_str() : "?",
                  msg != nullptr && msg->is_string() ? msg->string.c_str() : "");
    }
  }
  if (const auto* slow = doc->get("slow"); slow != nullptr && slow->is_object()) {
    const auto* ex = slow->get("exemplars");
    std::printf("  slow exemplars: %zu (threshold_ms=%.0f captured=%.0f)\n",
                ex != nullptr && ex->is_array() ? ex->array->size() : 0,
                num(slow->get("threshold_ms")), num(slow->get("captured")));
    if (ex != nullptr && ex->is_array()) {
      for (const auto& s : *ex->array) {
        const auto* path = s.get("path");
        std::printf("    SLOW trace_id=%.0f path=%s total_ms=%.2f device_ms=%.2f\n",
                    num(s.get("trace_id")),
                    path != nullptr && path->is_string() ? path->string.c_str() : "?",
                    num(s.get("total_lag_ns")) / 1e6, num(s.get("device_ns")) / 1e6);
      }
    }
  }
  if (const auto* tail = doc->get("trace_tail"); tail != nullptr && tail->is_array()) {
    std::printf("  trace tail: %zu spans\n", tail->array->size());
    for (const auto& s : *tail->array) {
      const auto* name = s.get("name");
      std::printf("    SPAN %s ts=%.0f dur=%.0f\n",
                  name != nullptr && name->is_string() ? name->string.c_str() : "?",
                  num(s.get("ts_ns")), num(s.get("dur_ns")));
    }
  }
  return 0;
}

double jnum(const obs::json::Value* obj, const char* key) {
  if (obj == nullptr) return 0.0;
  const auto* v = obj->get(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

// `crfsctl timeline`: offline reconstruction of a mount's telemetry from
// the durable journal — the tool you reach for after the writer was
// SIGKILLed. Sample frames carry cumulative totals, so per-bucket rates
// are consecutive-frame deltas; a torn tail (normal after a kill) costs
// at most the one partial frame the CRC rejected.
int cmd_timeline(int argc, char** argv) {
  if (argc < 3) return usage();
  bool as_json = false;
  double since_s = -1.0;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else if (std::strncmp(argv[i], "--since=", 8) == 0) {
      since_s = std::atof(argv[i] + 8);
      if (since_s < 0) {
        std::fprintf(stderr, "error: bad --since value: %s\n", argv[i]);
        return kExitBadArgs;
      }
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return kExitBadArgs;
    }
  }
  const std::string dir = resolve_journal_dir(argv[2]);
  const auto res = obs::JournalReader::read_dir(dir);
  if (!res.ok) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    return kExitMalformed;
  }

  struct Point {
    std::uint64_t ts_ns = 0, pwrite_bytes = 0, pwrites = 0;
    std::uint64_t lag_p99_ns = 0, lag_n = 0;
    long long queue_depth = 0, free_chunks = 0;
  };
  struct EpochRow {
    std::uint64_t id = 0, start_ns = 0, end_ns = 0, bytes = 0;
    std::string label;
  };
  std::vector<Point> pts;
  std::vector<EpochRow> epochs;
  std::size_t events = 0, slow = 0;
  for (const auto& rec : res.records) {
    const auto doc = obs::json::parse(rec.payload);
    if (!doc.has_value() || !doc->is_object()) continue;
    if (rec.type == obs::FrameType::kSample) {
      Point p;
      p.ts_ns = static_cast<std::uint64_t>(jnum(&*doc, "ts_ns"));
      p.pwrite_bytes = static_cast<std::uint64_t>(jnum(&*doc, "pwrite_bytes"));
      p.pwrites = static_cast<std::uint64_t>(jnum(&*doc, "pwrites"));
      p.lag_p99_ns = static_cast<std::uint64_t>(jnum(&*doc, "lag_p99_ns"));
      p.lag_n = static_cast<std::uint64_t>(jnum(&*doc, "lag_n"));
      p.queue_depth = static_cast<long long>(jnum(&*doc, "queue_depth"));
      p.free_chunks = static_cast<long long>(jnum(&*doc, "free_chunks"));
      pts.push_back(p);
    } else if (rec.type == obs::FrameType::kEpoch) {
      EpochRow e;
      e.id = static_cast<std::uint64_t>(jnum(&*doc, "id"));
      e.start_ns = static_cast<std::uint64_t>(jnum(&*doc, "start_ns"));
      e.end_ns = static_cast<std::uint64_t>(jnum(&*doc, "end_ns"));
      e.bytes = static_cast<std::uint64_t>(jnum(&*doc, "bytes"));
      const auto* label = doc->get("label");
      if (label != nullptr && label->is_string()) e.label = label->string;
      epochs.push_back(e);
    } else if (rec.type == obs::FrameType::kEvent) {
      ++events;
    } else if (rec.type == obs::FrameType::kSlow) {
      ++slow;
    }
  }

  // 1 s buckets on the journal's own clock, origin = first sample frame.
  // Rates are deltas between consecutive frames, attributed to the bucket
  // of the later frame; the lag column keeps the worst p99 in the bucket.
  const std::uint64_t t0 = pts.empty() ? 0 : pts.front().ts_ns;
  struct Bucket {
    std::uint64_t pwrite_bytes = 0, pwrites = 0, lag_p99_ns = 0, samples = 0;
    long long queue_depth = 0, free_chunks = 0;
  };
  std::map<std::uint64_t, Bucket> buckets;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const std::uint64_t sec = (pts[i].ts_ns - t0) / 1'000'000'000;
    Bucket& b = buckets[sec];
    b.pwrite_bytes += pts[i].pwrite_bytes - pts[i - 1].pwrite_bytes;
    b.pwrites += pts[i].pwrites - pts[i - 1].pwrites;
    if (pts[i].lag_n > 0) b.lag_p99_ns = std::max(b.lag_p99_ns, pts[i].lag_p99_ns);
    b.queue_depth = pts[i].queue_depth;
    b.free_chunks = pts[i].free_chunks;
    b.samples += 1;
  }
  if (since_s >= 0) {
    std::erase_if(buckets, [&](const auto& kv) {
      return static_cast<double>(kv.first) < since_s;
    });
  }

  if (as_json) {
    std::string out = "{\"crfs_timeline\":1";
    out += ",\"journal_dir\":\"" + dir + "\"";
    out += ",\"segments\":" + std::to_string(res.segments);
    out += ",\"records\":" + std::to_string(res.records.size());
    out += ",\"samples\":" + std::to_string(pts.size());
    out += ",\"torn_tail\":" + std::string(res.torn_tail ? "true" : "false");
    out += ",\"torn_bytes\":" + std::to_string(res.torn_bytes);
    out += ",\"t0_ns\":" + std::to_string(t0);
    out += ",\"bucket_s\":1,\"buckets\":[";
    bool first = true;
    for (const auto& [sec, b] : buckets) {
      if (!first) out += ",";
      first = false;
      out += "{\"t_s\":" + std::to_string(sec);
      out += ",\"pwrite_bytes\":" + std::to_string(b.pwrite_bytes);
      out += ",\"pwrites\":" + std::to_string(b.pwrites);
      out += ",\"lag_p99_ns\":" + std::to_string(b.lag_p99_ns);
      out += ",\"queue_depth\":" + std::to_string(b.queue_depth);
      out += ",\"free_chunks\":" + std::to_string(b.free_chunks);
      out += ",\"samples\":" + std::to_string(b.samples) + "}";
    }
    out += "],\"epochs\":[";
    first = true;
    for (const auto& e : epochs) {
      if (!first) out += ",";
      first = false;
      out += "{\"id\":" + std::to_string(e.id);
      out += ",\"label\":\"" + e.label + "\"";
      out += ",\"start_ns\":" + std::to_string(e.start_ns);
      out += ",\"end_ns\":" + std::to_string(e.end_ns);
      out += ",\"bytes\":" + std::to_string(e.bytes) + "}";
    }
    out += "],\"events\":" + std::to_string(events);
    out += ",\"slow\":" + std::to_string(slow);
    out += ",\"meta\":";
    out += res.meta_json.empty() ? std::string("null") : res.meta_json;
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  std::printf("crfsctl timeline: %s (%zu segments, %zu records, %zu samples%s)\n",
              dir.c_str(), res.segments, res.records.size(), pts.size(),
              res.torn_tail ? ", TORN TAIL" : "");
  if (res.torn_tail) {
    std::printf("torn tail: %llu bytes abandoned at a CRC-rejected partial frame "
                "(normal after SIGKILL; every prior record was recovered)\n",
                static_cast<unsigned long long>(res.torn_bytes));
  }
  TextTable table({"T", "IO", "Pwrites", "Lag p99", "Queue", "Free"});
  for (const auto& [sec, b] : buckets) {
    char io[32], lag[32];
    std::snprintf(io, sizeof(io), "%.1f MB/s", static_cast<double>(b.pwrite_bytes) / 1e6);
    std::snprintf(lag, sizeof(lag), "%.2f ms", static_cast<double>(b.lag_p99_ns) / 1e6);
    std::printf("BUCKET t=%llus pwrite_bytes=%llu pwrites=%llu lag_p99_ns=%llu "
                "queue=%lld free=%lld\n",
                static_cast<unsigned long long>(sec),
                static_cast<unsigned long long>(b.pwrite_bytes),
                static_cast<unsigned long long>(b.pwrites),
                static_cast<unsigned long long>(b.lag_p99_ns), b.queue_depth,
                b.free_chunks);
    table.add_row({std::to_string(sec) + "s", io, std::to_string(b.pwrites), lag,
                   std::to_string(b.queue_depth), std::to_string(b.free_chunks)});
  }
  std::printf("%s", table.render().c_str());
  for (const auto& e : epochs) {
    std::printf("EPOCH id=%llu label=%s start=%.2fs end=%.2fs bytes=%llu\n",
                static_cast<unsigned long long>(e.id), e.label.c_str(),
                e.start_ns >= t0 ? static_cast<double>(e.start_ns - t0) / 1e9 : 0.0,
                e.end_ns >= t0 ? static_cast<double>(e.end_ns - t0) / 1e9 : 0.0,
                static_cast<unsigned long long>(e.bytes));
  }
  std::printf("events=%zu slow_exemplars=%zu\n", events, slow);
  return 0;
}

// `crfsctl slo`: offline burn-rate replay. The meta frame at the head of
// every segment carries the mount's SLO targets; sample frames carry the
// already-windowed inputs the live rule engine consumed, so replaying them
// through a fresh RuleEngine reproduces the burn rates and breach edges
// the dead process saw.
int cmd_slo(int argc, char** argv) {
  if (argc < 3) return usage();
  bool as_json = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return kExitBadArgs;
    }
  }
  const std::string dir = resolve_journal_dir(argv[2]);
  const auto res = obs::JournalReader::read_dir(dir);
  if (!res.ok) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    return kExitMalformed;
  }
  const auto meta = obs::json::parse(res.meta_json);
  const obs::json::Value* slo_cfg =
      meta.has_value() && meta->is_object() ? meta->get("slo") : nullptr;
  if (slo_cfg == nullptr || !slo_cfg->is_object()) {
    if (as_json) {
      std::printf("{\"enabled\":false}\n");
    } else {
      std::printf("no SLO targets in journal meta (mount with slo_lag_ms/"
                  "slo_stall_pct/slo_ttfb_ms to arm the monitor)\n");
    }
    return 0;
  }
  const auto cfg = obs::SloConfig::parse(*slo_cfg);
  if (!cfg.has_value()) {
    std::fprintf(stderr, "error: malformed SLO targets in the journal meta of %s\n",
                 dir.c_str());
    return kExitMalformed;
  }

  obs::Registry reg;
  obs::EventBuffer breach_events;
  obs::RuleEngine rules(*cfg, /*slow_pwrite_ns=*/0, &reg, &breach_events);
  std::size_t replayed = 0;
  for (const auto& rec : res.records) {
    if (rec.type != obs::FrameType::kSample) continue;
    const auto doc = obs::json::parse(rec.payload);
    if (!doc.has_value() || !doc->is_object()) continue;
    obs::RuleInput in;
    in.ts_ns = static_cast<std::uint64_t>(jnum(&*doc, "ts_ns"));
    in.lag_p99_ns = jnum(&*doc, "lag_p99_ns");
    in.lag_n = static_cast<std::uint64_t>(jnum(&*doc, "lag_n"));
    in.stall_ratio = jnum(&*doc, "stall_ratio_ppm") / 1e6;
    in.stall_n = static_cast<std::uint64_t>(jnum(&*doc, "stall_n"));
    in.ttfb_p99_ns = jnum(&*doc, "ttfb_p99_ns");
    in.ttfb_n = static_cast<std::uint64_t>(jnum(&*doc, "ttfb_n"));
    rules.evaluate(in);
    ++replayed;
  }

  if (as_json) {
    std::printf("%s\n", rules.slo_json().c_str());
    return 0;
  }
  std::printf("crfsctl slo: replayed %zu sample frames from %s%s\n", replayed,
              dir.c_str(), res.torn_tail ? " (torn tail)" : "");
  const auto doc = obs::json::parse(rules.slo_json());
  const auto* objectives =
      doc.has_value() ? doc->get("objectives") : nullptr;
  if (objectives != nullptr && objectives->is_array()) {
    TextTable table({"Objective", "Target", "Burn 5m", "Burn 1h", "Bad/Obs", "Breached"});
    for (const auto& o : *objectives->array) {
      const auto* name = o.get("name");
      const auto* breached = o.get("breached");
      const bool fired = breached != nullptr && breached->boolean;
      char bs[32], bl[32];
      std::snprintf(bs, sizeof(bs), "%.2f", jnum(&o, "burn_short_milli") / 1e3);
      std::snprintf(bl, sizeof(bl), "%.2f", jnum(&o, "burn_long_milli") / 1e3);
      std::printf("SLO name=%s burn_short_milli=%.0f burn_long_milli=%.0f "
                  "breached=%d breaches=%.0f\n",
                  name != nullptr && name->is_string() ? name->string.c_str() : "?",
                  jnum(&o, "burn_short_milli"), jnum(&o, "burn_long_milli"),
                  fired ? 1 : 0, jnum(&o, "breaches"));
      table.add_row({name != nullptr && name->is_string() ? name->string : "?",
                     std::to_string(static_cast<long long>(jnum(&o, "target"))), bs, bl,
                     std::to_string(static_cast<long long>(jnum(&o, "bad_short"))) + "/" +
                         std::to_string(static_cast<long long>(jnum(&o, "obs_short"))),
                     fired ? "YES" : "no"});
    }
    std::printf("%s", table.render().c_str());
  }
  for (const auto& ev : breach_events.snapshot()) {
    std::printf("EVENT %s %s: %s\n", obs::severity_name(ev.severity), ev.rule.c_str(),
                ev.message.c_str());
  }
  return 0;
}

// Decision-log table printed by `crfsctl tune`.
void print_decisions(const std::vector<obs::CtlDecision>& decisions) {
  if (decisions.empty()) {
    std::printf("no decisions recorded\n");
    return;
  }
  TextTable table({"Seq", "Source", "Rule", "Knob", "Req", "From", "To",
                   "Outcome", "Reason"});
  for (const auto& d : decisions) {
    char req[32], from[32], to[32];
    std::snprintf(req, sizeof(req), "%g", d.requested);
    std::snprintf(from, sizeof(from), "%g", d.from);
    std::snprintf(to, sizeof(to), "%g", d.to);
    table.add_row({std::to_string(d.seq), d.source, d.rule, d.knob, req, from,
                   to, d.outcome, d.reason});
  }
  std::printf("%s", table.render().c_str());
}

// `crfsctl knobs`: mount and print the declared runtime knob table. No
// workload — the knob plane is fully populated at mount time, so this is
// the quickest way to see what a given option string makes tunable (and
// what the bounds are) before touching anything.
int cmd_knobs(int argc, char** argv) {
  if (argc < 3) return usage();
  bool as_json = false;
  const char* optstr = "";
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else {
      optstr = argv[i];
    }
  }
  auto opts = parse_mount_options(optstr);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  auto backend = PosixBackend::create(argv[2]);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.error().to_string().c_str());
    return kExitUnreachable;
  }
  auto fs = Crfs::mount(std::move(backend.value()), opts.value().config);
  if (!fs.ok()) {
    std::fprintf(stderr, "error: %s\n", fs.error().to_string().c_str());
    return kExitUnreachable;
  }
  if (as_json) {
    std::printf("%s\n", fs.value()->knobs_json().c_str());
    return 0;
  }
  const KnobPlane& plane = fs.value()->knob_plane();
  std::printf("crfsctl knobs: %s (generation=%llu)\n",
              format_mount_options(opts.value()).c_str(),
              static_cast<unsigned long long>(plane.generation()));
  const KnobSnapshot* snap = plane.snapshot();
  TextTable table({"Knob", "Value", "Min", "Max", "Unit"});
  for (const KnobDef& def : plane.defs()) {
    char value[32], min[32], max[32];
    std::snprintf(value, sizeof(value), "%g", snap->get(def.name));
    std::snprintf(min, sizeof(min), "%g", def.min_value);
    std::snprintf(max, sizeof(max), "%g", def.max_value);
    table.add_row({def.name, value, min, max, def.unit});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

// `crfsctl tune`: apply `knob=value` tokens through the .crfs_tune
// control-file shim — the same path a deployment script inside the mount
// would use — then print the audited decisions. Exit 1 when any token is
// rejected (the EINVAL message names the offending token).
int cmd_tune(int argc, char** argv) {
  if (argc < 4) return usage();
  bool as_json = false;
  const char* optstr = "";
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
    } else {
      optstr = argv[i];
    }
  }
  auto opts = parse_mount_options(optstr);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  auto backend = PosixBackend::create(argv[2]);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.error().to_string().c_str());
    return kExitUnreachable;
  }
  auto fs = Crfs::mount(std::move(backend.value()), opts.value().config);
  if (!fs.ok()) {
    std::fprintf(stderr, "error: %s\n", fs.error().to_string().c_str());
    return kExitUnreachable;
  }

  int rc = 0;
  {
    FuseShim shim(*fs.value(), opts.value().fuse);
    auto h = shim.open(opts.value().config.tune_marker_path, {.write = true});
    if (!h.ok()) {
      std::fprintf(stderr, "error: %s\n", h.error().to_string().c_str());
      return 1;
    }
    const char* tokens = argv[3];
    std::vector<std::byte> payload(std::strlen(tokens));
    std::memcpy(payload.data(), tokens, payload.size());
    auto written = shim.write(h.value(), payload, 0);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.error().to_string().c_str());
      rc = 1;
    }
    (void)shim.close(h.value());
  }

  const auto decisions = fs.value()->decision_log().snapshot();
  if (as_json) {
    std::printf("%s\n", obs::decisions_to_json(decisions).c_str());
  } else {
    print_decisions(decisions);
  }
  return rc;
}

// One refresh frame of `crfsctl watch`: windowed rates from the latest
// sample, occupancy gauges, and the running event count. Greppable
// (every frame starts with "WATCH") so scripts and the CLI test can
// consume the same output a human does.
void render_watch_frame(const obs::Sample& s, std::uint64_t events_total, bool ansi) {
  if (ansi) std::printf("\033[2K\r");
  const obs::Rate* bytes = s.counter_rate("crfs.io.pwrite_bytes");
  const obs::Rate* pwrites = s.histogram_rate("crfs.io.pwrite_ns");
  const obs::Rate* errors = s.counter_rate("crfs.io.pwrite_errors");
  const auto free_chunks = s.gauge("crfs.pool.free_chunks");
  const auto depth = s.gauge("crfs.queue.depth");
  const auto in_flight = s.gauge("crfs.io.in_flight");
  std::printf("WATCH t=%.1fs io=%.1f MB/s pwrites=%.0f/s errs=%.0f/s "
              "free_chunks=%lld queue=%lld in_flight=%lld events=%llu",
              static_cast<double>(s.ts_ns) / 1e9,
              bytes != nullptr ? bytes->per_sec / 1e6 : 0.0,
              pwrites != nullptr ? pwrites->per_sec : 0.0,
              errors != nullptr ? errors->per_sec : 0.0,
              static_cast<long long>(free_chunks.value_or(-1)),
              static_cast<long long>(depth.value_or(-1)),
              static_cast<long long>(in_flight.value_or(-1)),
              static_cast<unsigned long long>(events_total));
  if (!ansi) std::printf("\n");
  std::fflush(stdout);
}

int cmd_watch(int argc, char** argv) {
  if (argc < 3) return usage();
  auto opts = parse_mount_options(argc >= 4 ? argv[3] : "");
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  if (opts.value().config.sample_ms == 0) opts.value().config.sample_ms = 50;

  constexpr unsigned kRanks = 4;
  constexpr std::size_t kPerRank = 16 * MiB;
  constexpr std::size_t kRecord = 64 * KiB;

  auto backend = PosixBackend::create(argv[2]);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.error().to_string().c_str());
    return kExitUnreachable;
  }
  auto fs = Crfs::mount(std::move(backend.value()), opts.value().config);
  if (!fs.ok()) {
    std::fprintf(stderr, "error: %s\n", fs.error().to_string().c_str());
    return kExitUnreachable;
  }

  std::printf("crfsctl watch: %u ranks x %s into %s (%s)\n", kRanks,
              format_bytes(kPerRank).c_str(), argv[2],
              format_mount_options(opts.value()).c_str());
  const bool ansi = isatty(fileno(stdout)) != 0;

  std::atomic<unsigned> ranks_left{kRanks};
  {
    FuseShim shim(*fs.value(), opts.value().fuse);
    std::vector<std::thread> ranks;
    for (unsigned r = 0; r < kRanks; ++r) {
      ranks.emplace_back([&, r] {
        const std::string path = ".crfsctl_watch_rank" + std::to_string(r);
        std::vector<std::byte> record(kRecord, static_cast<std::byte>(r));
        auto h = shim.open(path, {.create = true, .truncate = true, .write = true});
        if (h.ok()) {
          for (std::size_t off = 0; off < kPerRank; off += kRecord) {
            (void)shim.write(h.value(), record, off);
          }
          (void)shim.fsync(h.value());
          (void)shim.close(h.value());
        }
        ranks_left.fetch_sub(1);
      });
    }

    // Render loop: one frame per sampler period while the workload runs,
    // plus one final frame so short runs still show at least one.
    obs::Sampler* sampler = fs.value()->sampler();
    const auto period = std::chrono::milliseconds(opts.value().config.sample_ms);
    std::uint64_t last_seq = 0;
    do {
      std::this_thread::sleep_for(period);
      const auto latest = sampler->latest();
      if (latest.has_value() && (latest->seq + 1 != last_seq)) {
        last_seq = latest->seq + 1;
        render_watch_frame(*latest, fs.value()->event_log().total(), ansi);
      }
    } while (ranks_left.load() > 0);
    for (auto& t : ranks) t.join();
  }
  if (ansi) std::printf("\n");

  for (unsigned r = 0; r < kRanks; ++r) {
    (void)fs.value()->unlink(".crfsctl_watch_rank" + std::to_string(r));
  }

  const auto events = fs.value()->events();
  std::printf("\n%s\nsamples=%llu events=%zu\n", fs.value()->stats_report().c_str(),
              static_cast<unsigned long long>(fs.value()->sampler()->samples_taken()),
              events.size());
  for (const auto& e : events) {
    std::printf("EVENT %s %s: %s\n", obs::severity_name(e.severity), e.rule.c_str(),
                e.message.c_str());
  }
  return 0;
}

Result<MountOptions> options_from(int argc, char** argv, int index) {
  if (index < argc) return parse_mount_options(argv[index]);
  return MountOptions{};
}

int cmd_options(int argc, char** argv) {
  if (argc < 3) return usage();
  auto opts = parse_mount_options(argv[2]);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }
  std::printf("%s\n", format_mount_options(opts.value()).c_str());
  return 0;
}

int cmd_bench(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string dir = argv[2];
  auto opts = options_from(argc, argv, 3);
  if (!opts.ok()) {
    std::fprintf(stderr, "error: %s\n", opts.error().to_string().c_str());
    return kExitBadArgs;
  }

  constexpr unsigned kWriters = 4;
  constexpr std::size_t kPerWriter = 32 * MiB;
  constexpr std::size_t kRecord = 8 * KiB;  // checkpoint-like medium writes

  auto run = [&](bool through_crfs) -> double {
    auto backend = PosixBackend::create(dir);
    if (!backend.ok()) return -1;
    std::shared_ptr<BackendFs> shared = std::move(backend.value());
    std::unique_ptr<Crfs> fs;
    std::unique_ptr<FuseShim> shim;
    if (through_crfs) {
      auto mounted = Crfs::mount(shared, opts.value().config);
      if (!mounted.ok()) return -1;
      fs = std::move(mounted.value());
      shim = std::make_unique<FuseShim>(*fs, opts.value().fuse);
    }
    const Stopwatch sw;
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const std::string path = ".crfsctl_bench_" + std::to_string(w);
        std::vector<std::byte> record(kRecord, std::byte{0xAB});
        if (through_crfs) {
          auto h = shim->open(path, {.create = true, .truncate = true, .write = true});
          if (!h.ok()) return;
          for (std::size_t off = 0; off < kPerWriter; off += kRecord) {
            (void)shim->write(h.value(), record, off);
          }
          (void)shim->close(h.value());
        } else {
          auto h = shared->open_file(path, {.create = true, .truncate = true, .write = true});
          if (!h.ok()) return;
          for (std::size_t off = 0; off < kPerWriter; off += kRecord) {
            (void)shared->pwrite(h.value(), record, off);
          }
          (void)shared->close_file(h.value());
        }
      });
    }
    for (auto& t : writers) t.join();
    const double seconds = sw.elapsed_seconds();
    for (unsigned w = 0; w < kWriters; ++w) {
      (void)shared->unlink(".crfsctl_bench_" + std::to_string(w));
    }
    return seconds;
  };

  std::printf("crfsctl bench: %u writers x %s in %s writes -> %s\n", kWriters,
              format_bytes(kPerWriter).c_str(), format_bytes(kRecord).c_str(), dir.c_str());
  std::printf("mount options: %s\n", format_mount_options(opts.value()).c_str());
  std::printf("(best of 2 runs per mode; first touches absorb cold page-cache and\n"
              " writeback-throttle effects of the backing device)\n\n");
  auto best = [&](bool mode) {
    const double a = run(mode);
    const double b = run(mode);
    return a < 0 || b < 0 ? -1.0 : std::min(a, b);
  };
  const double direct = best(false);
  const double crfs = best(true);
  if (direct < 0 || crfs < 0) {
    std::fprintf(stderr, "bench failed (is %s writable?)\n", dir.c_str());
    return kExitUnreachable;
  }
  const double bytes = static_cast<double>(kWriters) * kPerWriter;
  TextTable table({"Path", "Time", "Throughput"});
  char buf[2][32];
  std::snprintf(buf[0], sizeof(buf[0]), "%.2f s", direct);
  std::snprintf(buf[1], sizeof(buf[1]), "%.0f MB/s", bytes / direct / 1e6);
  table.add_row({"direct", buf[0], buf[1]});
  std::snprintf(buf[0], sizeof(buf[0]), "%.2f s", crfs);
  std::snprintf(buf[1], sizeof(buf[1]), "%.0f MB/s", bytes / crfs / 1e6);
  table.add_row({"CRFS", buf[0], buf[1]});
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_epochs(int argc, char** argv) {
  if (argc < 4) return usage();
  auto backend = PosixBackend::create(argv[2]);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.error().to_string().c_str());
    return kExitUnreachable;
  }
  auto fs = Crfs::mount(std::move(backend.value()), Config{});
  if (!fs.ok()) return kExitUnreachable;
  FuseShim shim(*fs.value(), FuseOptions{});
  auto set = blcr::CheckpointSet::open(shim, argv[3]);
  if (!set.ok()) {
    std::fprintf(stderr, "error: %s\n", set.error().to_string().c_str());
    return 1;
  }
  auto epochs = set.value().epochs();
  if (!epochs.ok()) return 1;
  if (epochs.value().empty()) {
    std::printf("no committed epochs under %s/%s\n", argv[2], argv[3]);
    return 0;
  }
  TextTable table({"Epoch", "Ranks", "Total bytes"});
  for (unsigned e : epochs.value()) {
    auto info = set.value().inspect(e);
    if (!info.ok()) {
      table.add_row({std::to_string(e), "corrupt manifest", ""});
      continue;
    }
    std::uint64_t bytes = 0;
    for (const auto& r : info.value().rank_files) bytes += r.bytes;
    table.add_row({std::to_string(e), std::to_string(info.value().ranks),
                   format_bytes(bytes)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 4) return usage();
  auto backend = PosixBackend::create(argv[2]);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.error().to_string().c_str());
    return kExitUnreachable;
  }
  auto fs = Crfs::mount(std::move(backend.value()), Config{});
  if (!fs.ok()) return kExitUnreachable;
  FuseShim shim(*fs.value(), FuseOptions{});
  auto set = blcr::CheckpointSet::open(shim, argv[3]);
  if (!set.ok()) return 1;

  unsigned epoch = 0;
  if (argc >= 5) {
    epoch = static_cast<unsigned>(std::atoi(argv[4]));
  } else {
    auto latest = set.value().latest();
    if (!latest.ok() || !latest.value().has_value()) {
      std::fprintf(stderr, "no committed epoch to verify\n");
      return 1;
    }
    epoch = *latest.value();
  }
  const Stopwatch sw;
  const Status st = set.value().verify(epoch);
  if (!st.ok()) {
    std::fprintf(stderr, "epoch %u FAILED verification: %s\n", epoch,
                 st.error().to_string().c_str());
    return 2;
  }
  std::printf("epoch %u verified OK in %.2f s (every rank image parses and matches "
              "its manifest CRC64)\n",
              epoch, sw.elapsed_seconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "options") == 0) return cmd_options(argc, argv);
  if (std::strcmp(argv[1], "bench") == 0) return cmd_bench(argc, argv);
  if (std::strcmp(argv[1], "stats") == 0) return cmd_stats(argc, argv);
  if (std::strcmp(argv[1], "trace") == 0) return cmd_trace(argc, argv);
  if (std::strcmp(argv[1], "slow") == 0) return cmd_slow(argc, argv);
  if (std::strcmp(argv[1], "watch") == 0) return cmd_watch(argc, argv);
  if (std::strcmp(argv[1], "prom") == 0) return cmd_prom(argc, argv);
  if (std::strcmp(argv[1], "report") == 0) return cmd_report(argc, argv);
  if (std::strcmp(argv[1], "postmortem") == 0) return cmd_postmortem(argc, argv);
  if (std::strcmp(argv[1], "knobs") == 0) return cmd_knobs(argc, argv);
  if (std::strcmp(argv[1], "tune") == 0) return cmd_tune(argc, argv);
  if (std::strcmp(argv[1], "timeline") == 0) return cmd_timeline(argc, argv);
  if (std::strcmp(argv[1], "slo") == 0) return cmd_slo(argc, argv);
  if (std::strcmp(argv[1], "epochs") == 0) return cmd_epochs(argc, argv);
  if (std::strcmp(argv[1], "verify") == 0) return cmd_verify(argc, argv);
  return usage();
}
