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
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
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

/// What one dequeue hands a worker: a single read fill, or a batch of
/// write jobs (never both).
struct WorkBatch {
  std::optional<ReadJob> read;
  std::vector<WriteJob> writes;
  bool empty() const { return !read && writes.empty(); }
};

class WorkQueue {
 public:
  /// Appends a job and wakes one IO thread.
  void push(WriteJob job);

  /// Appends a fill to the read lane and wakes one IO thread.
  void push_read(ReadJob job);

  /// The IO workers' dequeue: one read fill when the read lane has any,
  /// otherwise up to `max` write jobs that are already queued — one lock
  /// acquisition for the whole batch, never waiting for stragglers. With
  /// `wait`, blocks until either lane has work and returns empty only
  /// after shutdown once both lanes drained; without it returns at once,
  /// possibly empty. The IO
  /// pool groups a write batch by file and coalesces adjacent chunks into
  /// vectored backend writes (docs/PERFORMANCE.md).
  WorkBatch pop_work(std::size_t max, bool wait);

  /// Lets a waiting pop_work() return empty once both lanes are empty.
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
  void stamp_dequeued(std::vector<WriteJob>& batch);

  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<WriteJob> jobs_;
  std::deque<ReadJob> reads_;
  std::uint64_t pushed_ = 0;
  bool shutdown_ = false;
  obs::LatencyHistogram* wait_hist_ = nullptr;
};

}  // namespace crfs
