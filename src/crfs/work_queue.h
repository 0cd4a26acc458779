// WorkQueue: FIFO of filled chunks awaiting backend writing (paper §IV-B,
// "Work Queue and IO Throttling"), plus a read lane of readahead window
// fills.
//
// Producers are application threads (full chunks, and partial chunks at
// close/fsync; fills from a restoring reader); consumers are the IO thread
// pool. The queue is unbounded: backpressure is applied upstream by the
// finite BufferPool, never here — a chunk that exists always has a queue
// slot, so enqueue cannot block and close() cannot deadlock against a full
// queue. Both lanes hold pool chunks, so the read lane is bounded by the
// pool too; workers take fills first because a reader is blocked on them.
// A write batch holds one file's jobs and owns that file until it is
// dropped: one backend writer per file at a time.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "backend/backend_fs.h"
#include "common/result.h"
#include "crfs/chunk.h"
#include "obs/epoch.h"
#include "obs/metrics.h"

namespace crfs {

class FileEntry;  // defined in file_table.h

/// One unit of IO work: write `chunk`'s payload to `file`'s backend handle
/// at the chunk's recorded file offset.
struct WriteJob {
  std::shared_ptr<FileEntry> file;
  std::unique_ptr<Chunk> chunk;
  /// Epoch the chunk's bytes belong to (nullptr when epoch tracking is
  /// off). Captured at enqueue under the producer's agg_mu, so IO threads
  /// attribute durability without touching the file's lock or the
  /// tracker — and the state outlives any rotation that happens while
  /// the chunk is in flight.
  std::shared_ptr<obs::EpochState> epoch{};
  /// Chunk-lifecycle ledger stamps (obs::now_ns): push() stamps enqueue,
  /// pop_work() stamps dequeue. The delta is queue residency; the wait
  /// histogram (when installed) records the same quantity mount-wide.
  std::uint64_t enqueue_ns = 0;
  std::uint64_t dequeue_ns = 0;
};

/// One readahead window fill: read `len` bytes of `file` from `offset`
/// into `dst`, a pool chunk's storage. The IO worker that pops it issues
/// one blocking backend pread.
struct ReadJob {
  BackendFile file = 0;
  std::uint64_t offset = 0;
  std::byte* dst = nullptr;
  std::size_t len = 0;
  /// Invoked exactly once, on the IO thread, with the bytes filled (short
  /// only at EOF) or the error.
  std::function<void(Result<std::size_t>)> done;
};

class WorkQueue;

/// What one dequeue hands a worker: a single read fill, or a batch of
/// write jobs of ONE file, in FIFO order (never both). A write batch owns
/// its file until the batch is destroyed: meanwhile no other worker is
/// handed that file's queued jobs, so a file has at most one backend
/// writer at a time. Move-only; ownership goes with the object, so a
/// dropped batch can never leave its file owned.
struct WorkBatch {
  std::optional<ReadJob> read;
  std::vector<WriteJob> writes;

  WorkBatch() = default;
  WorkBatch(WorkBatch&& other) noexcept
      : read(std::move(other.read)), writes(std::move(other.writes)),
        queue_(std::exchange(other.queue_, nullptr)), file_(std::move(other.file_)) {}
  WorkBatch& operator=(WorkBatch&&) = delete;
  ~WorkBatch();

  bool empty() const { return !read && writes.empty(); }

 private:
  friend class WorkQueue;
  WorkQueue* queue_ = nullptr;        ///< set while the batch owns `file_`
  std::shared_ptr<FileEntry> file_;   ///< the owned file (kept alive until release)
};

class WorkQueue {
 public:
  /// Appends a job and wakes one IO thread.
  void push(WriteJob job);

  /// Appends a fill to the read lane and wakes one IO thread.
  void push_read(ReadJob job);

  /// The IO workers' dequeue. Blocks until a fill is queued, a write job
  /// of a file no batch owns is queued, or shutdown has come with the
  /// write lane empty (then returns empty). A fill goes first: one per
  /// pop, a reader waits on it. Otherwise the batch is the oldest queued
  /// job whose file no other batch owns plus that file's later queued
  /// jobs, FIFO, up to `max` — one lock acquisition, never waiting for
  /// stragglers. The batch owns the file until it is destroyed, so the
  /// file's jobs are written by one worker at a time, in program order:
  /// last-writer-wins holds without any wait on the producer side, and
  /// buffered writes stop contending for the backend file's inode lock
  /// (docs/PERFORMANCE.md).
  WorkBatch pop_work(std::size_t max);

  /// Lets a waiting pop_work() return empty once the write lane is empty.
  /// Already-queued jobs and fills are still handed out so teardown never
  /// loses buffered data.
  void shutdown();

  /// Installs the enqueue->pop wait histogram (crfs.queue.wait_ns). Call
  /// before any producer/consumer thread runs; the pointer is read
  /// without synchronization afterwards.
  void set_wait_histogram(obs::LatencyHistogram* hist) { wait_hist_ = hist; }

  /// Write jobs queued (the read lane is not counted).
  std::size_t depth() const;
  std::uint64_t total_pushed() const;

 private:
  friend struct WorkBatch;
  /// Ends a batch's ownership of `file` (WorkBatch's destructor).
  void release(const FileEntry* file);
  /// The oldest queued job whose file no batch owns, or jobs_.end().
  std::deque<WriteJob>::iterator first_unowned_locked();
  void stamp_dequeued(std::vector<WriteJob>& batch);

  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<WriteJob> jobs_;
  std::deque<ReadJob> reads_;
  /// Files owned by a live write batch: at most one per IO thread.
  std::vector<const FileEntry*> owned_;
  std::uint64_t pushed_ = 0;
  bool shutdown_ = false;
  obs::LatencyHistogram* wait_hist_ = nullptr;
};

}  // namespace crfs
