// IoThreadPool: the pool of worker IO threads draining the work queue
// (paper §IV-B). Each worker issues one blocking pwrite (pwritev for a
// coalesced run) at a time, so the thread count throttles the number of
// outstanding chunk writes hitting the backend at once. A worker's write
// batch is one file's queued chunks, and no other worker writes that file
// until the batch is done: a buffered write holds the backend file's
// inode lock, so a second writer to the same file adds CPU, not
// throughput. The same workers run the queue's readahead fills, ahead of
// write batches, as blocking preads.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "backend/backend_fs.h"
#include "crfs/buffer_pool.h"
#include "crfs/work_queue.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/slow_store.h"
#include "obs/trace.h"

namespace crfs {

struct IoRun;  // one coalesced backend write (io_pool.cpp)

/// Optional per-stage instrumentation for the IO workers. All pointers
/// may be null (uninstrumented pool, the default); when set they must
/// outlive the pool. The histogram/counter writes are relaxed atomics, so
/// sharing them across all workers is contention-free.
struct IoPoolObs {
  obs::LatencyHistogram* pwrite_ns = nullptr;  ///< backend pwrite latency
  obs::Counter* pwrite_bytes = nullptr;        ///< bytes successfully written
  obs::Counter* pwrite_errors = nullptr;       ///< failed backend writes
  obs::TraceCollector* trace = nullptr;        ///< span sink for "pwrite"
  /// Structured event sink: every failed pwrite is recorded here with the
  /// file path, chunk offset/length, and errno, so a dropped chunk is
  /// attributable post-hoc (the chunk's data is gone either way — the
  /// sticky FileEntry error surfaces at close/fsync, this log says what
  /// and where).
  obs::EventBuffer* events = nullptr;
  /// Batch-dequeue shape: chunks drained per pop_work (crfs.io.batch_chunks).
  obs::LatencyHistogram* batch_chunks = nullptr;
  /// Vectored writes issued for runs of >1 adjacent chunks
  /// (crfs.io.coalesced_pwrites).
  obs::Counter* coalesced_pwrites = nullptr;
  /// Chunk-lifecycle ledger (docs/OBSERVABILITY.md "Durability lag"):
  /// copy-in (Chunk::born_ns) -> pwrite-complete, per chunk
  /// (crfs.chunk.durability_lag_ns). Recorded from the run's single
  /// completion stamp; chunks whose producer never stamped born_ns are
  /// skipped.
  obs::LatencyHistogram* durability_lag_ns = nullptr;
  /// Tail-latency forensic store (docs/OBSERVABILITY.md "Slow exemplars"):
  /// a chunk whose durability lag or device time crosses the store's
  /// threshold gets its full causal chain captured here. The threshold
  /// check is one relaxed load plus two compares per chunk; the capture
  /// itself only fires when the IO was already slow.
  obs::SlowStore* slow = nullptr;
  obs::Counter* slow_captured = nullptr;  ///< crfs.slow.captured
  /// Knob-plane generation at capture time (0 when no knob plane); lets a
  /// slow exemplar say which tuning state it was captured under.
  std::function<std::uint64_t()> knob_generation;
};

class IoThreadPool {
 public:
  /// Starts `threads` workers. Each worker loops: pop one readahead fill
  /// if any is queued and pread it; otherwise pop up to `batch`
  /// already-queued chunks of one file that no other worker is writing
  /// (WorkQueue::pop_work), write each run of adjacent chunks with one
  /// blocking pwrite/pwritev in FIFO order, so overlapping writes land in
  /// program order, then bump the file's complete-chunk count and return
  /// the chunks to the pool. With `batch == 1` and no fills this is the
  /// paper's one-chunk-per-pop behaviour, with one writer per file.
  IoThreadPool(unsigned threads, WorkQueue& queue, BufferPool& pool, BackendFs& backend,
               IoPoolObs observe = {}, unsigned batch = 1);

  /// Drains the queue and joins all workers.
  ~IoThreadPool();

  IoThreadPool(const IoThreadPool&) = delete;
  IoThreadPool& operator=(const IoThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Monitoring accessors. Relaxed loads are sufficient: these counters are
  // only read for progress/occupancy reporting and for the pool-exhaustion
  // rescue in Crfs::acquire_chunk, which re-polls in a timeout loop — a
  // stale value is retried, never trusted as a synchronization point. The
  // default seq_cst load would put a fence in the rescue path's spin for
  // no correctness gain.

  /// Chunks written so far across all workers.
  std::uint64_t chunks_written() const {
    return chunks_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  /// Jobs currently being written by a worker (popped, not yet finished).
  unsigned in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

  /// Runtime io_batch re-arm (knob plane): workers pick the new value up
  /// on their next dequeue. The caller pre-clamps to the half-the-pool
  /// cap (Crfs re-derives it whenever the pool or the knob moves).
  void set_batch(unsigned batch) {
    batch_.store(batch == 0 ? 1 : batch, std::memory_order_relaxed);
  }
  unsigned batch() const { return batch_.load(std::memory_order_relaxed); }

 private:
  void worker_loop();
  /// Accounts one finished run (metrics, epoch attribution, sticky
  /// error), completes and releases every chunk. Runs on the worker that
  /// wrote it, right after the backend call returns.
  void complete_run(IoRun run, Status status, std::uint64_t t_start, std::uint64_t t_done);

  WorkQueue& queue_;
  BufferPool& pool_;
  BackendFs& backend_;
  IoPoolObs obs_;
  std::atomic<unsigned> batch_;
  std::atomic<std::uint64_t> chunks_written_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<unsigned> in_flight_{0};
  std::vector<std::thread> workers_;
};

}  // namespace crfs
