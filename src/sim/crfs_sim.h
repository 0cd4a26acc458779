// CrfsSimNode: the CRFS pipeline in virtual time.
//
// One instance per simulated node, mirroring the real implementation in
// src/crfs: a FUSE request path (write splitting at max_write), a finite
// buffer pool (blocking acquire = backpressure), a work queue, and a pool
// of IO threads issuing chunk-sized writes to the backend. close_file()
// implements the paper's §IV-C contract: flush the partial chunk, then
// block until complete-chunk count equals write-chunk count.
//
// Costs come from Calibration: per-FUSE-request crossing cost, the extra
// buffer copy, per-chunk bookkeeping. Everything else (how long a chunk
// pwrite takes) is the backend model's business.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>

#include "crfs/config.h"
#include "obs/plane.h"
#include "sim/backend_sim.h"

namespace crfs::sim {

class CrfsSimNode {
 public:
  CrfsSimNode(Simulation& sim, const Calibration& cal, BackendSim& backend,
              unsigned node, crfs::Config config, crfs::FuseOptions fuse, unsigned ppn);

  /// Spawns the IO worker tasks, and with Config::sample_ms > 0 the
  /// virtual-time sampler loop — the deterministic twin of the real
  /// mount's sampler thread, ticking the plane's sampler every sample_ms
  /// until stop(). Call once before any app_write.
  void start();

  /// Application write of `len` bytes appended to `file` (checkpoint
  /// streams are sequential). Completes when the app's write() returns —
  /// i.e. after FUSE routing and the copy into the current chunk, having
  /// possibly blocked on buffer-pool backpressure.
  Task app_write(FileId file, std::uint64_t len);

  /// Application read of `len` bytes at `offset` of `file` — the restart
  /// scan in virtual time. Mirrors Crfs::read: flush-before-read barrier
  /// over this file's outstanding chunks, sequential-scan detection
  /// arming a prefetch window of chunk-sized backend reads (bounded by
  /// the readahead_window knob and free pool chunks), and a blocking
  /// backend read for whatever the window missed. Completes when the
  /// app's read() would return.
  Task app_read(FileId file, std::uint64_t offset, std::uint64_t len);

  /// §IV-C close: enqueue the partial chunk, wait for all outstanding
  /// chunk writes of this file, then close on the backend.
  Task close_file(FileId file);

  /// Lets IO workers exit once the queue drains (end of experiment).
  void stop();

  std::uint64_t chunks_flushed() const { return chunks_flushed_; }
  std::uint64_t pool_waits() const { return pool_waits_; }

  /// The node's metric registry, mirroring the real pipeline's schema
  /// (crfs.pool.free_chunks, crfs.queue.depth, crfs.io.pwrite_ns/_bytes
  /// — see docs/OBSERVABILITY.md) with virtual-time nanoseconds, so the
  /// plane's sampler and rule engine run unchanged over a simulated node.
  obs::Registry& metrics() { return plane_.metrics(); }
  const obs::Registry& metrics() const { return plane_.metrics(); }

  /// The plane's sampler on virtual time; nullptr unless
  /// Config::sample_ms > 0.
  obs::Sampler* sampler() { return plane_.sampler(); }

  /// Trace-lane ids when Simulation tracing is on: one lane for the
  /// node's app/FUSE side, one per IO worker — same span names as the
  /// real pipeline ("write"/"pwrite"/"drain"), so real and simulated
  /// Chrome traces are directly comparable.
  std::uint32_t app_lane() const { return node_ * 100; }
  std::uint32_t io_lane(unsigned worker) const { return node_ * 100 + 1 + worker; }

  // -- Checkpoint epochs (virtual-time twin of Crfs::epoch_*) ---------------
  /// Starts an explicit epoch at the current virtual time. No-op when
  /// Config::epoch_tracking is off.
  void epoch_begin(const std::string& label);
  /// Finalizes the active epoch at the current virtual time.
  void epoch_end();
  /// Finished EpochRecords on virtual nanoseconds. Deterministic: two
  /// runs of the same workload produce byte-identical epochs_to_json().
  std::vector<obs::EpochRecord> epochs() const;

  // -- Tail-latency forensics (virtual-time twin of Crfs::slow_store) -------
  /// Slow-chunk exemplars on virtual nanoseconds. Trace ids come from the
  /// node's own deterministic counter, so two runs of the same workload
  /// produce byte-identical slow_json().
  obs::SlowStore& slow_store() { return plane_.slow(); }
  const obs::SlowStore& slow_store() const { return plane_.slow(); }
  std::string slow_json() const { return plane_.slow().to_json(); }

  // -- Durable journal + rules (virtual-time twins) -------------------------
  /// Telemetry journal on virtual nanoseconds (nullptr unless
  /// Config::journal_dir is set). No flusher thread: the sampler loop
  /// drives appends and flushes, and every frame carries a virtual
  /// timestamp, so two replays of the same workload produce
  /// byte-identical segments.
  obs::Journal* journal() { return plane_.journal(); }
  /// SLO burn rates on virtual time ({"enabled":false} unless slo
  /// targets are configured). Deterministic: two runs of the same
  /// workload produce byte-identical slo_json().
  std::string slo_json() const { return plane_.slo_json(); }
  /// Structured events on virtual time: health rule firings and SLO
  /// breach/recovery land here (and in the journal).
  obs::EventBuffer& events() { return plane_.events(); }

  /// Current virtual time as integer nanoseconds (the clock the epoch
  /// ledger and the mirrored histograms run on).
  std::uint64_t now_ns() const { return static_cast<std::uint64_t>(sim_.now() * 1e9); }

  // -- Control plane (virtual-time twin of the mount's knob plane) ----------
  /// Same knob names and bounds semantics as Crfs::define_knobs, applied
  /// straight to the sim state the io_worker re-reads every iteration:
  /// pool_chunks mutates the free-chunk count (and pulses waiters on
  /// grow), io_batch mutates the config the worker consults.
  /// slow_capture_ms and epoch_gap_ms come from the shared plane.
  crfs::KnobPlane& knob_plane() { return plane_.knobs(); }

 private:
  /// One prefetched chunk-sized read in the window (mirror of
  /// Readahead::Slot, minus the bytes — virtual time carries no payload).
  struct ReadSlot {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    bool done = false;      ///< backend read completed
    bool consumed = false;  ///< at least one app read was served from it
    std::unique_ptr<Event> completion;
  };

  struct FileState {
    std::uint64_t append = 0;        ///< next file offset
    bool has_chunk = false;
    std::uint64_t chunk_offset = 0;  ///< file offset of current chunk
    std::uint64_t chunk_fill = 0;
    std::uint64_t chunk_born_ns = 0; ///< virtual ns of first copy-in
    std::uint64_t chunk_trace_id = 0;  ///< causal chain id of the current chunk
    std::uint64_t chunk_stall_ns = 0;  ///< pool wait paid acquiring it
    std::uint64_t write_chunks = 0;
    std::uint64_t complete_chunks = 0;
    std::unique_ptr<Event> completion;
    /// Epoch the file's bytes attribute to (mirror of FileEntry::epoch).
    std::shared_ptr<obs::EpochState> epoch;
    // -- Restart-scan mirror (Readahead::FileState) --
    std::uint64_t read_next = 0;  ///< offset a sequential scan would hit next
    unsigned read_streak = 0;     ///< consecutive sequential reads (>=2 arms)
    std::deque<std::shared_ptr<ReadSlot>> read_slots;  ///< window, front = oldest
  };

  struct Job {
    FileId file{};
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    /// Chunk-lifecycle ledger mirror: virtual-ns stamps and the epoch
    /// captured at enqueue (mirror of WriteJob + the chunk's causal id).
    std::uint64_t born_ns = 0;
    std::uint64_t enqueue_ns = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t stall_ns = 0;
    std::shared_ptr<obs::EpochState> epoch;
  };

  Task io_worker(unsigned worker);
  /// Ticks the plane's sampler every sample_ms of virtual time until
  /// stop().
  Task sample_loop();
  /// Registers the pipeline's runtime knobs against the sim state (ctor
  /// tail; the plane defines its own).
  void define_knobs();
  /// One coalesced run's backend write plus all per-chunk completion
  /// bookkeeping (pwrite histograms, epoch attribution, pool release).
  /// The worker awaits it inline, blocked for the duration like the real
  /// pool's pwrite.
  Task write_run(std::vector<Job> run, std::uint64_t dequeue_now, unsigned worker);
  FileState& state(FileId file);
  /// Enqueues the file's current chunk (if non-empty).
  void flush_chunk(FileState& st, FileId file);
  /// One in-flight window read: backend read, then mark done and pulse.
  Task prefetch_read(FileId file, std::shared_ptr<ReadSlot> slot);
  /// Evicts the whole window (seek/close), waiting out in-flight reads;
  /// unconsumed slots count as wasted prefetch.
  Task drop_read_window(FileState& st);
  /// Issues chunk reads until the window covers `readahead_window` chunks
  /// ahead of `next` (bounded by EOF and free pool chunks — opportunistic,
  /// never starves checkpoint writers).
  void top_up_read_window(FileState& st, FileId file, std::uint64_t next);

  Simulation& sim_;
  const Calibration& cal_;
  BackendSim& backend_;
  unsigned node_;
  crfs::Config config_;
  crfs::FuseOptions fuse_;
  unsigned ppn_;

  unsigned free_chunks_;
  Resource fuse_station_;   ///< the node's serialized FUSE request queue
  Event chunk_available_;
  std::deque<Job> queue_;
  Event job_ready_;
  bool stopping_ = false;
  std::uint64_t chunks_flushed_ = 0;
  std::uint64_t pool_waits_ = 0;
  std::unordered_map<FileId, FileState> files_;

  // Virtual-time telemetry: the same plane as the real mount, on the
  // simulation clock (same metric names, journal and SLO schema).
  obs::Plane plane_;
  obs::LatencyHistogram* h_pwrite_ = nullptr;
  obs::Counter* c_pwrite_bytes_ = nullptr;
  obs::LatencyHistogram* h_lag_ = nullptr;
  // Read-path mirror (same crfs.read.* schema as the real mount).
  obs::LatencyHistogram* h_read_ = nullptr;
  obs::LatencyHistogram* h_read_inflight_ = nullptr;
  obs::Counter* c_read_ops_ = nullptr;
  obs::Counter* c_read_bytes_ = nullptr;
  obs::Counter* c_prefetch_issued_ = nullptr;
  obs::Counter* c_prefetch_hits_ = nullptr;
  obs::Counter* c_prefetch_wasted_ = nullptr;
  obs::Counter* c_sync_preads_ = nullptr;

  /// Deterministic causal-id counter (mirror of Crfs::next_trace_id_; a
  /// plain integer — the sim is single-threaded).
  std::uint64_t next_trace_id_ = 1;
};

}  // namespace crfs::sim
