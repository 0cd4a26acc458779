// IoEngine: pluggable submission/completion strategy under the IO pool
// (docs/PERFORMANCE.md "IO engines").
//
// The paper's pipeline parks each IO thread in one blocking pwrite at a
// time, capping backend queue depth at io_threads. The engine abstraction
// decouples submission from completion so a worker can keep many coalesced
// runs in flight:
//   * SyncEngine  - the paper's behaviour: one blocking pwrite/pwritev per
//                   run through BackendFs, completion inline.
//   * UringEngine - raw io_uring (no liburing): SQEs for coalesced runs,
//                   submitted at uring_depth, reaped as CQEs. Built only on
//                   Linux; selected at runtime with feature detection and
//                   silent fallback to sync.
//
// Readahead window fills (ReadJob, the work queue's read lane) ride the
// same engines: the worker that pops a fill submits it to its own engine,
// so a mount has exactly one engine set for reads and writes.
//
// Engines are per-worker (one ring per IO thread, no cross-thread ring
// locking). All methods are called from the owning worker thread except
// forget_file(), which application threads call at close().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "backend/backend_fs.h"
#include "crfs/buffer_pool.h"
#include "crfs/config.h"
#include "crfs/work_queue.h"
#include "obs/metrics.h"

namespace crfs {

/// One coalesced backend write: same-file, offset-adjacent jobs whose
/// payloads land back to back starting at `offset`.
struct IoRun {
  std::vector<WriteJob> jobs;
  std::uint64_t offset = 0;  ///< file offset of the first chunk
  std::uint64_t total = 0;   ///< sum of the chunks' fills
};

/// Engine-level metric sinks (all optional; owned by the mount registry).
struct IoEngineObs {
  /// Runs in flight on the engine after each submission flush
  /// (crfs.io.inflight_depth) — the "backend queue depth > io_threads"
  /// evidence the async engine exists to produce.
  obs::LatencyHistogram* inflight_depth = nullptr;
  /// SQEs published per io_uring_enter (crfs.io.sqe_batch).
  obs::LatencyHistogram* sqe_batch = nullptr;
  /// Time a worker blocked waiting for a CQE (crfs.io.cqe_wait_ns).
  obs::LatencyHistogram* cqe_wait_ns = nullptr;
};

class IoEngine {
 public:
  /// Completion callback: invoked exactly once per submitted run — either
  /// inline from submit() (sync engine, uring non-fd fallback) or from
  /// reap(). `t_start`/`t_done` bracket the backend IO for the pwrite
  /// latency histogram and durability-lag attribution.
  using CompleteFn = std::function<void(IoRun run, Status status, std::uint64_t t_start,
                                        std::uint64_t t_done)>;

  virtual ~IoEngine() = default;

  /// Queues (or performs) one run. May invoke the completion inline. The
  /// caller must keep inflight() < capacity() before calling.
  virtual void submit(IoRun run) = 0;

  /// Queues (or performs) one readahead fill; `job.done` fires exactly
  /// once — inline (sync, uring non-fd fallback) or from reap(). Fills
  /// share the ring (and inflight/capacity accounting) with writes; same
  /// backpressure contract as submit(). SyncEngine preads inline,
  /// UringEngine submits IORING_OP_READ_FIXED (READV when the chunk is
  /// not registered).
  virtual void submit_read(ReadJob job) = 0;

  /// Publishes queued submissions to the kernel (no-op for sync).
  virtual void flush() {}

  /// Drives completions. `wait` blocks for at least one completion when
  /// anything is in flight; otherwise only already-finished runs complete.
  virtual void reap(bool wait) { (void)wait; }

  /// Runs submitted but not yet completed. Readable from other threads
  /// (monitoring gauges).
  virtual std::size_t inflight() const { return 0; }

  /// Max runs the engine keeps in flight (SQ depth for uring; effectively
  /// unbounded for sync, whose submit completes inline).
  virtual std::size_t capacity() const = 0;

  /// Runtime re-arm of the submission depth (knob plane). The ring itself
  /// is sized once at mount, so this moves a soft cap clamped to
  /// [1, ring size]; it takes effect on the worker's next submit window
  /// (capacity() is re-read per iteration). Returns the effective depth,
  /// or 0 when the engine has no ring to re-arm (sync). Thread-safe.
  virtual unsigned set_depth(unsigned depth) {
    (void)depth;
    return 0;
  }

  /// "sync" or "uring" — the engine actually running after fallback.
  virtual const char* name() const = 0;

  /// Drops any cached per-file state (registered-fd slots) before the
  /// backend closes `file`. Called from application threads; must be
  /// thread-safe against the worker using the engine.
  virtual void forget_file(BackendFile file) { (void)file; }
};

/// The paper's blocking engine: one pwrite/pwritev per run, inline
/// completion, zero in-flight state. batch_ == 1 with this engine is
/// byte-for-byte the pre-engine IoThreadPool behaviour.
class SyncEngine final : public IoEngine {
 public:
  SyncEngine(BackendFs& backend, CompleteFn complete)
      : backend_(backend), complete_(std::move(complete)) {}

  void submit(IoRun run) override;
  void submit_read(ReadJob job) override;
  std::size_t capacity() const override;
  const char* name() const override { return "sync"; }

 private:
  BackendFs& backend_;
  CompleteFn complete_;
};

struct IoEngineOptions {
  IoEngineKind requested = IoEngineKind::kSync;
  unsigned uring_depth = 64;
};

/// Issues `run` synchronously through the backend (pwrite for one chunk,
/// pwritev for a coalesced run). Shared by SyncEngine and the uring
/// engine's non-fd fallback path, so decorating backends keep their
/// per-write semantics under either engine.
Status backend_write_run(BackendFs& backend, const IoRun& run);

/// Runs `job` synchronously through the backend (one pread) and fires
/// its completion. Shared by SyncEngine and the uring engine's non-fd
/// fallback path, so decorating backends keep their per-read semantics
/// (fault injection, throttling) under either engine.
void backend_read_fill(BackendFs& backend, ReadJob job);

/// Builds the engine the options ask for, with runtime feature detection:
/// a uring request falls back silently to sync when the kernel lacks
/// io_uring or the CRFS_FORCE_SYNC environment variable is set (non-empty,
/// not "0"). `regions` is the buffer pool's chunk storage for fixed-buffer
/// registration (may be empty). Never returns nullptr.
std::unique_ptr<IoEngine> make_io_engine(const IoEngineOptions& opts, BackendFs& backend,
                                         std::vector<ChunkRegion> regions, IoEngineObs obs,
                                         IoEngine::CompleteFn complete);

/// The raw-io_uring engine, or nullptr when the platform/kernel cannot
/// provide one (non-Linux build, io_uring_setup refused). Exposed for
/// direct unit tests; production code goes through make_io_engine.
std::unique_ptr<IoEngine> make_uring_engine(unsigned depth, BackendFs& backend,
                                            std::vector<ChunkRegion> regions, IoEngineObs obs,
                                            IoEngine::CompleteFn complete);

}  // namespace crfs
