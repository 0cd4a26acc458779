// Readahead: the restart-side read pipeline (read mirror of the write
// aggregation machinery; ROADMAP item "read path").
//
// The paper leaves read() a synchronous passthrough; a BLCR-style restore
// is a strict forward scan, so every pread that misses the page cache
// stalls the restart for one full backend round trip. This prefetcher
// recognizes the sequential scan (a per-file expected-offset streak),
// then keeps a window of chunk-sized fills in flight on the mount's IO
// threads: each fill is a ReadJob on the work queue's read lane, run by
// whichever IoThreadPool worker pops it, as one blocking pread on that IO
// thread. The rank thread never issues a prefetch pread itself. Filled
// chunks are parked in pool-backed cache slots and consumed by later
// reads; anything unconsumed on a seek, a write, or close is counted as
// wasted and the chunks go back to the pool.
//
// Residency: a read the window does not cover, on a backend with a kernel
// fd (BackendFs::raw_fd), first takes the paper's pass-through: one
// non-blocking preadv2(RWF_NOWAIT) straight into the caller's buffer. If
// the page cache serves all of it the read is done and the window is not
// topped up, so a resident file costs one copy per byte, not two. Any
// shortfall takes the blocking pread and arms the window as usual.
// Backends without an fd (memory, the tier, decorators) always prefetch.
//
// Fair share: a file tops its window up to min(window, max(1, pool chunks
// / files with an open scan)) slots, recomputed at every top-up, so two
// ranks restoring at once split the pool instead of one taking it all. A
// file's scan is open from its read-only open (or first read) to its final
// close, so ranks that open together split the pool from their first
// fill on.
//
// Coherence: the cache is valid only for the FileEntry::write_gen it was
// filled under. Every serve snapshots the generation; if a write or
// truncate moved it, the whole cache for that file is dropped before
// serving (the caller has already barriered the file's queued chunks, so
// a fresh backend read observes them).
//
// Concurrency: all read state is per file. FileState::scan_mu serializes
// the reads of one file (it is held across their copies and blocking
// preads); FileState::mu guards the slot window, the slot states fill
// completions write, the in-flight count and the ledger row, and is only
// ever held for a few instructions, so an IO thread completing a fill
// never waits on a backend call. The mount-wide mu_ covers only the file map (one lookup
// per read) and the ledger ring; no backend call or copy runs under it.
// Lock order: scan_mu, then mu_, then FileState::mu.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/backend_fs.h"
#include "crfs/buffer_pool.h"
#include "crfs/work_queue.h"
#include "obs/metrics.h"

namespace crfs {

class FileEntry;

/// Metric sinks for the read pipeline (owned by the mount registry; all
/// optional so standalone tests can run unsinked).
struct ReadObs {
  obs::Counter* ops = nullptr;              ///< crfs.read.ops
  obs::Counter* bytes = nullptr;            ///< crfs.read.bytes
  obs::Counter* prefetch_issued = nullptr;  ///< crfs.read.prefetch_issued
  obs::Counter* prefetch_hits = nullptr;    ///< crfs.read.prefetch_hits
  obs::Counter* prefetch_wasted = nullptr;  ///< crfs.read.prefetch_wasted
  obs::Counter* sync_preads = nullptr;      ///< crfs.read.sync_preads
  obs::LatencyHistogram* pread_ns = nullptr;        ///< crfs.read.pread_ns
  obs::LatencyHistogram* inflight_depth = nullptr;  ///< crfs.read.inflight_depth
  /// Slow-read forensics hook (path, offset, len, t_start, t_done);
  /// thresholding happens in the sink (SlowStore). Runs with no lock held.
  std::function<void(const std::string& path, std::uint64_t offset, std::size_t len,
                     std::uint64_t t_start, std::uint64_t t_done)>
      on_slow;
};

/// Per-restore attribution row (crfsctl report "Restores" table): one
/// file's read scan, finalized when the file is evicted (closed).
struct RestoreLedgerEntry {
  std::string path;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_wasted = 0;
  std::uint64_t sync_preads = 0;
  std::uint64_t ttfb_ns = 0;        ///< latency of the scan's first read
  std::uint64_t first_read_ns = 0;  ///< monotonic stamp of first read
  std::uint64_t last_read_ns = 0;   ///< monotonic stamp of last read
  bool active = false;              ///< still open (snapshot of a live scan)
};

class Readahead {
 public:
  /// Fills go to `queue`'s read lane; the IO pool draining that queue
  /// must outlive this object.
  Readahead(BackendFs& backend, BufferPool& pool, WorkQueue& queue, ReadObs obs,
            std::size_t ledger_capacity);

  /// Waits out every in-flight fill and releases every slot; must run
  /// while the IO workers still drain the queue, and before the pool
  /// shuts down.
  ~Readahead();

  Readahead(const Readahead&) = delete;
  Readahead& operator=(const Readahead&) = delete;

  /// Opens `entry`'s scan ahead of its first read (read-only opens), so
  /// the fair share counts it before it reads.
  void open(const std::shared_ptr<FileEntry>& entry);

  /// Serves one application read at `offset`, from the prefetch cache
  /// where possible, then from the page cache without blocking (backends
  /// with a raw fd), then with a blocking backend pread for what is
  /// left. Unless the page cache served the whole uncovered tail, and
  /// when `enabled` and the file's sequential streak is established, tops
  /// the window back up (to at most `window` slots, and at most the
  /// file's fair share of the pool) before returning. Returns bytes read
  /// (short only at EOF).
  Result<std::size_t> read(const std::shared_ptr<FileEntry>& entry, std::span<std::byte> out,
                           std::uint64_t offset, bool enabled, unsigned window);

  /// Drops all cached and in-flight state for `entry` (final close),
  /// finalizing its restore-ledger row. Idempotent.
  void evict(const FileEntry* entry);

  /// Finalized restore rows (oldest first) plus live scans (active=true),
  /// ordered by first read time.
  std::vector<RestoreLedgerEntry> ledger_snapshot() const;

 private:
  /// One pool-backed cache slot: a chunk being (or already) filled from
  /// the backend. `state` and `valid` are written by the fill's
  /// completion under the owning FileState::mu; the rest belongs to the
  /// scan_mu holder.
  struct Slot {
    std::unique_ptr<Chunk> chunk;
    std::uint64_t offset = 0;  ///< file offset of the first byte
    std::size_t want = 0;      ///< bytes requested
    std::size_t valid = 0;     ///< bytes filled; < want means EOF inside
    enum class State { kInflight, kReady, kError } state = State::kInflight;
    bool consumed = false;  ///< any byte served to the application
  };

  struct FileState {
    std::mutex scan_mu;  ///< serializes this file's reads and its eviction
    std::mutex mu;       ///< slot fill states, inflight, eof_at, stats
    std::condition_variable filled;  ///< a fill of this file completed
    // Under scan_mu:
    std::uint64_t expected_next = 0;  ///< sequential-scan predictor
    std::uint64_t streak = 0;         ///< consecutive sequential reads
    std::uint64_t gen_seen = 0;       ///< FileEntry::write_gen of the cache
    bool evicted = false;   ///< final close ran; never prefetch again
    // Under mu (and only the scan_mu holder adds or retires slots):
    std::deque<std::unique_ptr<Slot>> slots;  ///< sorted, contiguous coverage
    std::uint64_t eof_at = ~std::uint64_t{0};  ///< lowest offset at/after EOF
    std::size_t inflight = 0;  ///< slots in State::kInflight
    RestoreLedgerEntry stats;
  };

  using Lock = std::unique_lock<std::mutex>;

  /// The file's read state, created (and counted in scans_) on first use.
  std::shared_ptr<FileState> state_for(const std::shared_ptr<FileEntry>& entry);
  void complete_fill(FileState& fs, Slot& slot, Result<std::size_t> nread);
  void drop_cache(FileState& fs, Lock& lock);
  void retire_front(FileState& fs, Lock& lock);
  /// Pool chunks per open scan: max(1, total chunks / open scans).
  std::size_t fair_share() const;
  /// Appends the fills that bring `fs`'s window back to min(window, fair
  /// share) slots to `fills` (pushed to the queue once fs.mu is released).
  void top_up(const FileEntry& entry, FileState& fs, std::uint64_t next, unsigned window,
              std::vector<ReadJob>& fills);

  BackendFs& backend_;
  BufferPool& pool_;
  WorkQueue& queue_;
  ReadObs obs_;
  const std::size_t ledger_capacity_;
  std::atomic<std::size_t> scans_{0};           ///< open scans (files_.size())
  std::atomic<std::size_t> fills_inflight_{0};  ///< mount-wide, for inflight_depth

  mutable std::mutex mu_;  ///< files_ and ledger_ only
  std::unordered_map<const FileEntry*, std::shared_ptr<FileState>> files_;
  std::deque<RestoreLedgerEntry> ledger_;  ///< bounded ring, oldest first
};

}  // namespace crfs
