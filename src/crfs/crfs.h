// Crfs: the Checkpoint/Restart Filesystem core (paper §IV).
//
// A stackable user-level filesystem: POSIX-shaped operations come in (in
// the paper via the FUSE kernel module; here via FuseShim or directly),
// writes are aggregated into pool chunks and flushed asynchronously by an
// IO thread pool; reads and metadata operations pass through to the
// backend unchanged. File layout on the backend is identical to what the
// application wrote, so a checkpoint can be restarted directly from the
// backend without CRFS mounted (paper §V-F).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "backend/backend_fs.h"
#include "backend/tiered_backend.h"
#include "crfs/buffer_pool.h"
#include "crfs/config.h"
#include "crfs/file_table.h"
#include "crfs/io_pool.h"
#include "crfs/readahead.h"
#include "crfs/work_queue.h"
#include "obs/events.h"
#include "obs/knobs.h"
#include "obs/plane.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace crfs {

class Crfs {
 public:
  using FileHandle = std::uint64_t;

  /// Mounts CRFS over `backend`. Fails on invalid configuration.
  static Result<std::unique_ptr<Crfs>> mount(std::shared_ptr<BackendFs> backend, Config cfg);

  /// Flushes every still-open file's buffered data, drains the IO pool,
  /// then releases the buffer pool.
  ~Crfs();

  Crfs(const Crfs&) = delete;
  Crfs& operator=(const Crfs&) = delete;

  // -- File IO ------------------------------------------------------------
  /// §IV-A: inserts/bumps the file-table entry, then opens on the backend.
  Result<FileHandle> open(const std::string& path, OpenFlags flags);

  /// §IV-B: copies `data` into the file's current chunk; full chunks go to
  /// the work queue. A non-contiguous offset flushes the current chunk and
  /// starts a new one at `offset` (checkpoint streams never hit this path,
  /// but correctness does not depend on sequential access).
  Status write(FileHandle handle, std::span<const std::byte> data, std::uint64_t offset);

  /// §IV-D1: passes through to the backend. With Config::flush_before_read
  /// (default), dirty buffered data for this file is flushed first.
  Result<std::size_t> read(FileHandle handle, std::span<std::byte> data, std::uint64_t offset);

  /// §IV-D2: enqueues the current chunk, waits for all outstanding chunk
  /// writes, then fsyncs the backend file.
  Status fsync(FileHandle handle);

  /// §IV-C: enqueues remaining buffered data, blocks until complete-chunk
  /// count equals write-chunk count, then drops the table reference.
  /// Returns any backend write error encountered for this file.
  Status close(FileHandle handle);

  // -- Metadata passthrough (§IV-D3) ---------------------------------------
  Result<BackendStat> getattr(const std::string& path);
  Status mkdir(const std::string& path);
  Status rmdir(const std::string& path);
  Status unlink(const std::string& path);
  Status rename(const std::string& from, const std::string& to);
  Result<std::vector<std::string>> list_dir(const std::string& path);
  /// Flushes buffered data for the path (if open) then truncates.
  Status truncate(const std::string& path, std::uint64_t size);

  // -- Introspection --------------------------------------------------------
  const Config& config() const { return cfg_; }
  BackendFs& backend() { return *backend_; }

  // -- Tiered staging (docs/PERFORMANCE.md "Tiered staging") ----------------
  /// The TieredBackend this mount runs over, or nullptr when the backend
  /// is not tiered. Found at mount through BackendFs::tiered(), so
  /// decorators around the tier keep it visible; when present the
  /// mount wires epoch finalize -> seal_epoch, drain completion ->
  /// EpochTracker::attach_drain, binds crfs.tier.* metrics, and registers
  /// the drain_mbps/drain_parallel knobs against it.
  TieredBackend* tiered_backend() { return tier_; }
  const TieredBackend* tiered_backend() const { return tier_; }

  /// The stats_json "tier" section ({"enabled":false} without a tier).
  std::string tier_json() const {
    return tier_ != nullptr ? tier_->tier_json() : "{\"enabled\":false}";
  }
  BufferPool& buffer_pool() { return *pool_; }
  std::uint64_t backend_chunks_written() const { return io_pool_->chunks_written(); }
  std::size_t open_files() const { return table_.open_count(); }
  std::size_t queue_depth() const { return queue_.depth(); }

  /// Per-restore attribution rows (docs/PERFORMANCE.md "Read path and
  /// restore"): finalized scans oldest-first, then live scans
  /// (active=true).
  std::vector<RestoreLedgerEntry> restore_ledger() const {
    return readahead_->ledger_snapshot();
  }

  // -- Observability (docs/OBSERVABILITY.md) -------------------------------
  /// The mount's metric registry: per-stage latency histograms
  /// (crfs.write.copy_ns, crfs.write.pool_wait_ns, crfs.queue.wait_ns,
  /// crfs.io.pwrite_ns, crfs.drain.wait_ns), occupancy gauges
  /// (crfs.pool.*, crfs.queue.depth, crfs.io.in_flight) and counters.
  obs::Registry& metrics() { return plane_.metrics(); }
  const obs::Registry& metrics() const { return plane_.metrics(); }

  /// Span sink; empty unless Config::enable_tracing.
  obs::TraceCollector& trace() { return trace_; }
  const obs::TraceCollector& trace() const { return trace_; }

  /// Live telemetry sampler; nullptr unless Config::sample_ms > 0 (the
  /// default keeps the mount thread-free and sampler-free).
  obs::Sampler* sampler() { return plane_.sampler(); }
  const obs::Sampler* sampler() const { return plane_.sampler(); }

  /// Structured health/error events fired so far (bounded log, oldest
  /// dropped past Config::event_capacity). Health rules need the sampler
  /// on; pwrite failure events are recorded unconditionally.
  std::vector<obs::Event> events() const { return plane_.events().snapshot(); }
  obs::EventBuffer& event_log() { return plane_.events(); }

  // -- Checkpoint epochs (docs/OBSERVABILITY.md "Epoch ledger") -------------
  /// Starts an explicit epoch (finalizing any active one). Explicit
  /// epochs are never auto-rotated; an empty label gets "epoch-<id>".
  /// Error when Config::epoch_tracking is off.
  Status epoch_begin(const std::string& label);

  /// Finalizes the active epoch (explicit or automatic); ok if none.
  Status epoch_end();

  /// Finished EpochRecords, oldest first (bounded by Config::epoch_ledger).
  std::vector<obs::EpochRecord> epochs() const;

  /// Snapshot of the still-running epoch, if any.
  std::optional<obs::EpochRecord> open_epoch() const;

  // -- Tail-latency forensics (docs/OBSERVABILITY.md "Slow exemplars") ------
  /// Bounded store of slow-chunk exemplars: full causal chain + pipeline
  /// state for every chunk whose durability lag or device time crossed
  /// Config::slow_capture_ms. Always present (capture disabled when the
  /// threshold is 0), so the stats_json "slow" key is schema-stable.
  obs::SlowStore& slow_store() { return plane_.slow(); }
  const obs::SlowStore& slow_store() const { return plane_.slow(); }

  /// The slow store as one JSON object (stats_json "slow" section).
  std::string slow_json() const { return plane_.slow().to_json(); }

  // -- Durable journal (docs/OBSERVABILITY.md "Durable journal") ------------
  /// nullptr unless Config::journal_dir is set.
  obs::Journal* journal() { return plane_.journal(); }
  const obs::Journal* journal() const { return plane_.journal(); }

  /// The stats_json "journal" section ({"enabled":false} without one).
  std::string journal_json() const { return plane_.journal_json(); }

  // -- Control plane (docs/OBSERVABILITY.md "Control plane") ----------------
  /// Runtime-tunes one knob ("pool_chunks", "io_batch", "sample_ms",
  /// "slow_pwrite_ms", "readahead", "readahead_window", "journal_fsync_ms",
  /// "drain_mbps", "drain_parallel", and the plane's "slow_capture_ms" and
  /// "epoch_gap_ms"). Out-of-bounds
  /// requests are clamped, impossible ones vetoed; every outcome is
  /// recorded in the decision log (and thus metrics/events/postmortem)
  /// before the returned CtlDecision is handed back. `source` tags the
  /// audit trail: "manual" (API/crfsctl) or "ctlfile" (.crfs_tune).
  obs::CtlDecision tune(std::string_view knob, double value,
                        std::string source = "manual") {
    return plane_.tune(knob, value, std::move(source));
  }

  /// The knob plane: declared bounds plus the lock-free current snapshot.
  KnobPlane& knob_plane() { return plane_.knobs(); }
  const KnobPlane& knob_plane() const { return plane_.knobs(); }

  /// Audit trail of every knob-change decision (bounded ring).
  obs::DecisionLog& decision_log() { return plane_.decisions(); }
  const obs::DecisionLog& decision_log() const { return plane_.decisions(); }

  /// {"generation":...,"knobs":[{name,value,min,max,unit},...]}.
  std::string knobs_json() const { return plane_.knobs().to_json(); }

  /// The stats_json "controller" section: knob generation, knob table,
  /// decision ring and decision total.
  std::string controller_json() const;

  // -- Postmortem (docs/OBSERVABILITY.md "Durable journal") -----------------
  /// Renders the postmortem now and journals it as a kPostmortem frame
  /// (no fatal signal needed), flushed with an fsync. EINVAL without a
  /// journal (Config::journal_dir).
  Status dump_postmortem();

  /// The postmortem document: stats_json()'s body plus the mount's
  /// config, the render time (`rendered_ns`) and the trace tail. A mount
  /// with a journal keeps it pre-framed for its fatal-signal handlers.
  std::string render_postmortem() const;

  /// Rendered ASCII report: mount counters + registry gauges + the
  /// per-stage latency table. Safe to call while the pipeline runs.
  std::string stats_report() const;

  /// Mount counters + registry snapshot as one JSON object.
  std::string stats_json() const;

  /// Writes the captured spans as Chrome trace_event JSON (loadable in
  /// chrome://tracing / Perfetto). Export after close()/fsync() for an
  /// exact trace; see obs/trace.h for the concurrent-export contract.
  Status export_trace(const std::string& path) const;

 private:
  Crfs(std::shared_ptr<BackendFs> backend, Config cfg);

  Result<std::shared_ptr<FileEntry>> entry_for(FileHandle handle);
  Result<HandleState> state_for(FileHandle handle);

  /// Enqueues `entry`'s current chunk (if any). Caller holds entry->agg_mu
  /// and passes the entry's shared_ptr so the WriteJob reuses it directly —
  /// no per-chunk file-table lookup on the flush path.
  /// Returns the write-chunk count snapshot after the enqueue.
  std::uint64_t flush_current_locked(const std::shared_ptr<FileEntry>& entry, bool partial);

  /// Gets a fresh chunk for `entry` (agg_mu held), stealing another
  /// file's parked partial chunk if the pool is exhausted — without this,
  /// opening more files than the pool has chunks can deadlock the mount.
  /// Nanoseconds spent blocked on the pool are accumulated into
  /// `*wait_ns` (the slow path only; the fast path reads no clock).
  std::unique_ptr<Chunk> acquire_chunk(FileEntry& entry, std::uint64_t offset,
                                       std::uint64_t* wait_ns);

  /// Flush + wait for all outstanding writes of `entry`.
  void drain(const std::shared_ptr<FileEntry>& entry);

  /// Epoch control-file write: parses "begin [label]" / "end".
  Status handle_epoch_marker(std::span<const std::byte> data);

  /// Tune control-file write: parses "knob=value" tokens (comma/whitespace
  /// separated), each routed through tune() with source "ctlfile". The
  /// first vetoed or malformed token fails the write, naming the token.
  Status handle_tune_marker(std::span<const std::byte> data);

  /// Registers the pipeline's runtime knobs (the plane defines its own).
  void define_knobs();

  /// The "mount" section of stats_json and the postmortem.
  std::string mount_json() const;

  /// stats_json()'s members, without the braces: the postmortem embeds
  /// them too.
  void append_stats_body(std::string& out) const;

  std::shared_ptr<BackendFs> backend_;
  /// backend_->tiered(): the tier backend_ is or wraps (nullptr otherwise);
  /// never owns — same lifetime as backend_.
  TieredBackend* tier_ = nullptr;
  Config cfg_;
  // Declared before the pipeline pieces: instrumented stages hold
  // references into the sinks (registry, events, epoch states, slow
  // store, trace ring), so they must outlive pool_/queue_/io_pool_.
  obs::Plane plane_;
  obs::TraceCollector trace_;
  std::unique_ptr<BufferPool> pool_;
  WorkQueue queue_;
  std::unique_ptr<IoThreadPool> io_pool_;
  // Restore-side read pipeline: borrows pool chunks for prefetch slots and
  // runs its fills on io_pool_, so it is torn down (explicitly, in ~Crfs)
  // before the IO pool joins and the pool shuts down.
  std::unique_ptr<Readahead> readahead_;
  // Lock-free mirrors of the readahead/readahead_window knobs, read per
  // serve on the read path.
  std::atomic<bool> readahead_on_{true};
  std::atomic<unsigned> readahead_window_{4};
  FileTable table_;

  // Hot-path metric handles, resolved once at mount (see obs::Registry).
  obs::LatencyHistogram* h_write_copy_ = nullptr;
  obs::LatencyHistogram* h_pool_wait_ = nullptr;
  obs::LatencyHistogram* h_drain_wait_ = nullptr;
  // Large-write bypass shares the IO pool's pwrite metrics (the bypass IS
  // a backend pwrite, just issued from the app thread).
  obs::LatencyHistogram* h_pwrite_ = nullptr;
  obs::Counter* c_pwrite_bytes_ = nullptr;
  obs::Counter* c_pwrite_errors_ = nullptr;
  obs::Counter* c_bypass_bytes_ = nullptr;
  // Mount counters (crfs.mount.*): the only copy, read back by
  // stats_json, the postmortem and stats_report through mount_counters_.
  obs::Counter* c_m_app_writes_ = nullptr;
  obs::Counter* c_m_app_bytes_ = nullptr;
  obs::Counter* c_m_reopens_ = nullptr;
  obs::Counter* c_m_partial_flushes_ = nullptr;
  obs::Counter* c_m_full_flushes_ = nullptr;
  obs::Counter* c_m_chunk_steals_ = nullptr;
  obs::Counter* c_m_bypass_writes_ = nullptr;
  // The "mount" section's counters in document order; reads/read_bytes
  // are crfs.read.ops/bytes, bumped by the read pipeline.
  std::vector<std::pair<const char*, const obs::Counter*>> mount_counters_;

  /// Causal chain ids (docs/OBSERVABILITY.md "Causal tracing"): one
  /// relaxed fetch_add per chunk acquired; id 0 is reserved for
  /// "unattributed".
  std::atomic<std::uint64_t> next_trace_id_{1};

  /// Open handles; the entry is resolved once at open().
  HandleMap handles_;
};

}  // namespace crfs
