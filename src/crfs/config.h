// CRFS mount configuration.
//
// Defaults follow the paper's evaluation settings (§V-B): 4 MB chunks, a
// 16 MB buffer pool, 4 IO threads, and FUSE "big_writes" enabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/units.h"
#include "obs/health.h"
#include "obs/slo.h"

namespace crfs {

/// The mount configuration. Each mount option sets one member; its
/// spelling, range and knob unit are its row of kMountOptionTable
/// (crfs/mount_options.h), and its default is the member initialiser here.
struct Config {
  /// Size of each aggregation chunk. The paper fixes 4 MB after the Fig 5
  /// sweep ("larger chunk size is generally more favorable").
  std::size_t chunk_size = 4 * MiB;

  /// Total buffer-pool size; pool_size / chunk_size chunks are carved at
  /// mount time. Paper: 16 MB ("CRFS shouldn't occupy too much memory
  /// since a real parallel application can use a large portion of the
  /// available memory").
  std::size_t pool_size = 16 * MiB;

  /// Number of IO worker threads draining the work queue. This is the
  /// concurrency throttle toward the backend; the paper finds 4 "generally
  /// yields the best throughput".
  unsigned io_threads = 4;

  /// Max chunks an IO worker drains from the work queue per lock
  /// acquisition (docs/PERFORMANCE.md). A batch holds one file's jobs in
  /// FIFO order, and adjacent chunks coalesce into one vectored backend
  /// write. 1 disables batching (one pop, one pwrite — the pre-batching
  /// behaviour). The effective batch is capped
  /// at half the pool's chunk count so a single batch can never park the
  /// whole pool behind one coalesced write.
  unsigned io_batch = 8;

  /// Large-write copy bypass: an application write of at least chunk_size
  /// bytes landing exactly at the file's append point skips the
  /// buffer-pool memcpy and is issued to the backend directly (counted in
  /// crfs.write.bypass_bytes).
  bool large_write_bypass = true;

  /// When true, a read() on a file with buffered dirty data flushes that
  /// data first so reads always observe prior writes. The paper's CRFS
  /// passes reads straight through (restart only happens after close, so
  /// buffered data can never be missed there); set to false to reproduce
  /// that exact behaviour. Default true: least surprise for general use.
  bool flush_before_read = true;

  /// Restart-side sequential readahead (docs/PERFORMANCE.md "Read path
  /// and restore"): when a file's reads form a forward scan, keep up to
  /// `readahead_window` chunk-sized reads in flight on the IO threads,
  /// parking the results in pool-backed cache slots.
  bool readahead = true;

  /// Max chunk reads kept in flight ahead of a sequential reader (also
  /// bounded by free pool chunks — prefetch never blocks checkpoint
  /// writers — and by the file's fair share of the pool among files open
  /// for reading).
  unsigned readahead_window = 4;

  /// Observability (docs/OBSERVABILITY.md). Counters and per-stage latency
  /// histograms (the crfs.* registry) are always on — their hot-path cost
  /// is a handful of relaxed atomics per write. `enable_tracing`
  /// additionally captures begin/end span events (write/flush/pwrite/
  /// drain) into per-thread ring buffers for Chrome-trace export; it is
  /// validated off by default so the hot path pays only counters.
  bool enable_tracing = false;

  /// Capacity of each per-thread trace ring, in events. Older events are
  /// overwritten once a thread exceeds this; 64Ki events cover a multi-GB
  /// checkpoint epoch at chunk granularity.
  std::size_t trace_ring_events = 64 * 1024;

  /// Live telemetry (docs/OBSERVABILITY.md): sampling period in
  /// milliseconds for the background obs::Sampler thread. 0 (default)
  /// disables the sampler entirely — no thread, no allocation, zero
  /// write-path effect.
  unsigned sample_ms = 0;

  /// Frames kept in the sampler's time-series ring (oldest evicted).
  /// 600 frames ≈ one minute of history at sample_ms=100.
  std::size_t sample_ring = 600;

  /// Bounded health/error event log capacity (obs::EventBuffer). The log
  /// exists even with the sampler off: IO-thread pwrite failures are
  /// always recorded there with path/offset/errno.
  std::size_t event_capacity = 256;

  /// Health-rule thresholds evaluated per sample (obs::HealthMonitor);
  /// only consulted when sample_ms > 0.
  obs::HealthConfig health{};

  /// Checkpoint-epoch attribution (docs/OBSERVABILITY.md "Epoch ledger").
  /// When on (default), Crfs::open resolves each writable file to an
  /// obs::EpochState (cold path) and the pipeline attributes bytes,
  /// chunks, pool stalls, and durability lag to it with relaxed atomics;
  /// finished epochs land in a bounded ledger (Crfs::epochs(),
  /// stats_json "epochs", `crfsctl report`). Off turns the whole layer
  /// off (the bench guard's baseline).
  bool epoch_tracking = true;

  /// Open/close quiet window after which the next writable open starts a
  /// new automatic epoch.
  unsigned epoch_gap_ms = 500;

  /// Finished EpochRecords kept (oldest evicted).
  std::size_t epoch_ledger = 64;

  /// Control-file path for explicit epoch markers: writing "begin
  /// [label]" / "end" to this path via the normal write API drives
  /// Crfs::epoch_begin/epoch_end without touching the backend.
  std::string epoch_marker_path = ".crfs_epoch";

  /// Upper bound (bytes) for runtime buffer-pool growth via the knob
  /// plane; requests above it are clamped. 0 auto-sizes to 4x pool_size.
  std::size_t tune_pool_max = 0;

  /// Upper bound for runtime io_batch raises via the knob plane.
  unsigned tune_io_batch_max = 256;

  /// Tail-latency forensics (docs/OBSERVABILITY.md "Slow exemplars"):
  /// a chunk whose copy-in -> durable lag OR backend device time reaches
  /// this many milliseconds has its full causal chain (all stage stamps,
  /// queue depth, free chunks, knob generation) captured into a bounded
  /// exemplar store, surfaced via stats_json "slow", `crfsctl slow`, and
  /// the postmortem. 0 disables capture (the store still exists so the
  /// JSON schema is stable).
  unsigned slow_capture_ms = 1000;

  /// Exemplars kept in the slow store (oldest evicted; `captured` keeps
  /// the lifetime total).
  std::size_t slow_exemplars = 32;

  /// Control-file path for runtime tuning: writing "knob=value" tokens
  /// (comma/whitespace separated) to this path via the normal write API
  /// drives Crfs::tune without touching the backend. Empty disables the
  /// shim; Crfs::tune and crfsctl tune keep working either way.
  std::string tune_marker_path = ".crfs_tune";

  /// Durable telemetry journal (docs/OBSERVABILITY.md "Durable journal"):
  /// when non-empty, an obs::Journal persists sample frames, events,
  /// finished epochs, and slow exemplars as CRC32-framed records under
  /// this directory (convention: `<mountdir>/.crfs/journal`), readable
  /// after the process is gone via `crfsctl timeline` / `crfsctl slo`.
  std::string journal_dir{};

  /// fsync cadence for the current journal segment, in milliseconds; 0
  /// never fsyncs mid-segment (rotation still seals finished segments).
  unsigned journal_fsync_ms = 1000;

  /// Background journal flusher cadence (pending frames -> segment file).
  unsigned journal_flush_ms = 200;

  /// Segment rotation size and total on-disk retention bound for the
  /// journal directory (oldest segments unlinked past the bound).
  std::size_t journal_segment_bytes = 1 * MiB;
  std::size_t journal_max_bytes = 16 * MiB;

  /// SLO burn-rate monitor (docs/OBSERVABILITY.md "SLOs and burn rates").
  /// A non-zero target enables that objective; any enabled objective
  /// requires sample_ms > 0 (the monitor runs on the Sampler tick path).
  unsigned slo_lag_ms = 0;     ///< durability-lag p99 target (ms)
  unsigned slo_stall_pct = 0;  ///< pool-stall wall-time share target (%)
  unsigned slo_ttfb_ms = 0;    ///< restore read p99 target (ms)

  /// Burn-rate window pair, seconds.
  unsigned slo_short_s = 300;
  unsigned slo_long_s = 3600;

  /// Tiered burst-buffer staging (docs/PERFORMANCE.md "Tiered staging").
  /// When non-empty, the mount composes a TieredBackend: writes land on
  /// this fast staging tier ("mem" = in-memory MemBackend, anything else
  /// = a directory for a local PosixBackend) and a background thread
  /// drains finalized epochs oldest-first to the slow remote tier.
  /// tier_remote names the remote directory for tools that mount from
  /// options alone (crfsctl).
  std::string tier_stage{};
  std::string tier_remote{};

  /// Max staged bytes before writers block for eviction (0 = unbounded).
  std::size_t stage_cap = 0;

  /// Drain bandwidth cap toward the remote tier, MB/s (0 = unthrottled).
  unsigned drain_mbps = 0;

  /// Max remote write streams of the tier drain, one per file.
  unsigned drain_parallel = 4;

  /// What fsync() promises under tiering: "stage" (fast, default) or
  /// "remote" (block until this file's staged bytes are remote-durable).
  std::string fsync_mode = "stage";

  /// Checks every mount option's range (kMountOptionTable in
  /// crfs/mount_options.h) and the rules that tie fields together.
  Status validate() const;

  /// True when any SLO objective is enabled.
  bool slo_enabled() const {
    return slo_lag_ms > 0 || slo_stall_pct > 0 || slo_ttfb_ms > 0;
  }

  /// The obs::SloConfig this mount config implies.
  obs::SloConfig slo_config() const {
    obs::SloConfig slo;
    slo.lag_p99_ns = static_cast<std::uint64_t>(slo_lag_ms) * 1'000'000;
    slo.stall_ratio = static_cast<double>(slo_stall_pct) / 100.0;
    slo.ttfb_p99_ns = static_cast<std::uint64_t>(slo_ttfb_ms) * 1'000'000;
    slo.short_window_ns = static_cast<std::uint64_t>(slo_short_s) * 1'000'000'000;
    slo.long_window_ns = static_cast<std::uint64_t>(slo_long_s) * 1'000'000'000;
    return slo;
  }

  /// Number of chunks the pool will hold.
  std::size_t num_chunks() const { return pool_size / chunk_size; }

  /// One line: the pool shape, then the settings that differ from their
  /// defaults.
  std::string describe() const {
    const Config def{};
    return "chunk=" + format_bytes(chunk_size) + " pool=" + format_bytes(pool_size) +
           " io_threads=" + std::to_string(io_threads) +
           (io_batch != def.io_batch ? " io_batch=" + std::to_string(io_batch) : "") +
           (!large_write_bypass ? " no_bypass" : "") +
           (!readahead ? " no_readahead" : "") +
           (readahead_window != def.readahead_window
                ? " readahead_window=" + std::to_string(readahead_window)
                : "") +
           (enable_tracing ? " tracing=on" : "") +
           (sample_ms > 0 ? " sample_ms=" + std::to_string(sample_ms) : "") +
           (slow_capture_ms != def.slow_capture_ms
                ? " slow_capture_ms=" + std::to_string(slow_capture_ms)
                : "") +
           (!epoch_tracking ? " epochs=off" : "") +
           (!journal_dir.empty() ? " journal=" + journal_dir : "") +
           (slo_enabled() ? " slo=lag:" + std::to_string(slo_lag_ms) +
                                "ms,stall:" + std::to_string(slo_stall_pct) +
                                "%,ttfb:" + std::to_string(slo_ttfb_ms) + "ms"
                          : "") +
           (!tier_stage.empty()
                ? " stage=" + tier_stage +
                      (!tier_remote.empty() ? " remote=" + tier_remote : "") +
                      (stage_cap > 0 ? " stage_cap=" + format_bytes(stage_cap) : "") +
                      (drain_mbps > 0 ? " drain_mbps=" + std::to_string(drain_mbps)
                                      : "") +
                      (drain_parallel != def.drain_parallel
                           ? " drain_parallel=" + std::to_string(drain_parallel)
                           : "") +
                      (fsync_mode != def.fsync_mode ? " fsync_mode=" + fsync_mode : "")
                : "");
  }
};

/// FUSE kernel-request parameters modelled by FuseShim.
struct FuseOptions {
  /// Maximum bytes per FUSE write request. Without "big_writes" the 2.6-era
  /// kernel splits application writes into single pages (4 KB); with it,
  /// requests carry up to 128 KB. The paper enables big_writes.
  bool big_writes = true;

  std::size_t max_write() const { return big_writes ? 128 * KiB : 4 * KiB; }
};

}  // namespace crfs
