// FileEntry + FileTable: CRFS's hash table of opened files (paper §IV-A),
// and HandleMap: the open handles that name them.
//
// Each opened path has exactly one FileEntry holding the aggregation
// state the paper enumerates: the current buffer chunk, the append point,
// the chunk's offset in the original file, ownership/refcount, and the
// "write chunk count" / "complete chunk count" pair that close() and
// fsync() reconcile.
//
// Locking protocol (deadlock-free by construction):
//   * entry->agg_mu  - guards the aggregation state (current chunk, append
//                      point). Held only by application threads. May be
//                      held while blocking on BufferPool::acquire.
//   * chunk counters - atomics; IO threads bump complete_chunks without
//                      taking agg_mu, so an application thread blocked on
//                      the pool can never stall the IO pool (no cycle).
//   * completion_mu  - tiny mutex used only to sleep/wake on the counter
//                      pair; IO threads take it only around notify.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/backend_fs.h"
#include "crfs/chunk.h"
#include "common/result.h"
#include "obs/epoch.h"

namespace crfs {

class FileEntry {
 public:
  FileEntry(std::string path, BackendFile backend_file)
      : path_(std::move(path)), backend_file_(backend_file) {}

  const std::string& path() const { return path_; }
  BackendFile backend_file() const { return backend_file_; }

  // -- Aggregation state (guard with agg_mu) ----------------------------
  std::mutex agg_mu;
  std::unique_ptr<Chunk> current;   ///< partially filled chunk, if any
  /// Checkpoint epoch this file's bytes attribute to (obs/epoch.h);
  /// nullptr when epoch tracking is off. Assigned by Crfs::open (cold) —
  /// the write path only does relaxed fetch_adds through it, and flush
  /// copies the shared_ptr into the WriteJob so IO threads never read
  /// this field (they must not take agg_mu).
  std::shared_ptr<obs::EpochState> epoch;

  /// Bytes the application has written past the backend's initial size;
  /// used to answer getattr for still-buffered files.
  std::atomic<std::uint64_t> size_seen{0};

  /// Monotone write-mutation counter: bumped on every write (aggregated
  /// or bypass) and truncate. The read-side prefetcher snapshots it per
  /// serve and drops its whole cache for this file when it moved — data
  /// prefetched before the mutation may be stale.
  std::atomic<std::uint64_t> write_gen{0};

  // -- Completion accounting ---------------------------------------------
  /// Chunks handed to the work queue ("write chunk count").
  std::atomic<std::uint64_t> write_chunks{0};
  /// Chunks the IO pool finished writing ("complete chunk count").
  std::atomic<std::uint64_t> complete_chunks{0};

  /// Sleeps until complete_chunks == write_chunks (all outstanding chunk
  /// writes finished). Safe against concurrent new enqueues: callers take
  /// a snapshot of write_chunks under agg_mu first and pass it here.
  void wait_for_completion(std::uint64_t target_write_chunks) {
    std::unique_lock lock(completion_mu_);
    completion_cv_.wait(lock, [&] {
      return complete_chunks.load(std::memory_order_acquire) >= target_write_chunks;
    });
  }

  /// Called by IO threads after finishing (or failing) a chunk write.
  void complete_one(const Status& status) {
    if (!status.ok()) record_error(status.error());
    complete_chunks.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard lock(completion_mu_);  // pairs with the cv wait
    }
    completion_cv_.notify_all();
  }

  // -- Sticky error -------------------------------------------------------
  /// First backend write error; surfaced at the next fsync/close like a
  /// kernel writeback error would be.
  void record_error(const Error& e) {
    std::lock_guard lock(error_mu_);
    if (!has_error_) {
      first_error_ = e;
      has_error_ = true;
    }
  }

  /// Returns and clears the sticky error (reported once, like errseq_t).
  std::optional<Error> take_error() {
    std::lock_guard lock(error_mu_);
    if (!has_error_) return std::nullopt;
    has_error_ = false;
    return first_error_;
  }

  bool has_error() const {
    std::lock_guard lock(error_mu_);
    return has_error_;
  }

  // -- Refcounting (guarded by the owning FileTable's mutex) --------------
  int refcount = 0;

 private:
  std::string path_;
  BackendFile backend_file_;

  std::mutex completion_mu_;
  std::condition_variable completion_cv_;

  mutable std::mutex error_mu_;
  Error first_error_{};
  bool has_error_ = false;
};

/// Path-keyed table of open files. A second open of the same path shares
/// the entry and bumps its reference count (paper §IV-A).
class FileTable {
 public:
  /// Finds the entry for `path`, or invokes `make` to create it. Bumps the
  /// refcount either way.
  template <typename MakeFn>
  Result<std::shared_ptr<FileEntry>> find_or_create(const std::string& path, MakeFn&& make) {
    std::lock_guard lock(mu_);
    auto it = entries_.find(path);
    if (it != entries_.end()) {
      it->second->refcount += 1;
      return it->second;
    }
    Result<std::shared_ptr<FileEntry>> made = make();
    if (!made.ok()) return made.error();
    made.value()->refcount = 1;
    entries_.emplace(path, made.value());
    return made;
  }

  std::shared_ptr<FileEntry> find(const std::string& path) {
    std::lock_guard lock(mu_);
    auto it = entries_.find(path);
    return it == entries_.end() ? nullptr : it->second;
  }

  /// Drops one reference; when it reaches zero the entry is removed and
  /// returned so the caller can close the backend handle outside the lock.
  std::shared_ptr<FileEntry> release(const std::string& path) {
    std::lock_guard lock(mu_);
    auto it = entries_.find(path);
    if (it == entries_.end()) return nullptr;
    it->second->refcount -= 1;
    if (it->second->refcount > 0) return nullptr;
    auto entry = std::move(it->second);
    entries_.erase(it);
    return entry;
  }

  std::size_t open_count() const {
    std::lock_guard lock(mu_);
    return entries_.size();
  }

  /// Snapshot of all open entries (used by the pool-exhaustion rescue).
  std::vector<std::shared_ptr<FileEntry>> snapshot() const {
    std::lock_guard lock(mu_);
    std::vector<std::shared_ptr<FileEntry>> out;
    out.reserve(entries_.size());
    for (const auto& [path, entry] : entries_) out.push_back(entry);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<FileEntry>> entries_;
};

/// Per-open-handle state, resolved once at open() and cached: the file's
/// table entry plus the writable bit from the open flags.
struct HandleState {
  std::shared_ptr<FileEntry> entry;
  bool writable = false;
  /// Epoch control-file handle (Config::epoch_marker_path): writes carry
  /// "begin [label]" / "end" commands for the EpochTracker and nothing
  /// reaches the backend. The entry is a detached dummy (not in the
  /// FileTable).
  bool epoch_marker = false;
  /// Tune control-file handle (Config::tune_marker_path): writes carry
  /// "knob=value" tokens for the KnobPlane; same detached-dummy scheme.
  bool tune_marker = false;
};

/// Open handles: one map under one mutex. Handles come from a 64-bit
/// counter and are never reused, so a closed handle misses (EBADF) even
/// after later opens, with no generation tag.
class HandleMap {
 public:
  using Handle = std::uint64_t;

  Handle insert(HandleState state) {
    std::lock_guard lock(mu_);
    const Handle h = next_++;
    handles_.emplace(h, std::move(state));
    return h;
  }

  /// Copies out the handle's state; nullopt for unknown or closed handles.
  std::optional<HandleState> get(Handle h) const {
    std::lock_guard lock(mu_);
    auto it = handles_.find(h);
    if (it == handles_.end()) return std::nullopt;
    return it->second;
  }

  /// Unregisters the handle, returning its state (nullopt if unknown).
  std::optional<HandleState> remove(Handle h) {
    std::lock_guard lock(mu_);
    auto it = handles_.find(h);
    if (it == handles_.end()) return std::nullopt;
    HandleState state = std::move(it->second);
    handles_.erase(it);
    return state;
  }

  /// All live handle states (unmount sweep for leaked handles).
  std::vector<HandleState> snapshot() const {
    std::lock_guard lock(mu_);
    std::vector<HandleState> out;
    out.reserve(handles_.size());
    for (const auto& [h, state] : handles_) out.push_back(state);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<Handle, HandleState> handles_;
  Handle next_ = 1;
};

}  // namespace crfs
