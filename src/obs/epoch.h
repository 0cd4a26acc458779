// crfs::obs epoch attribution: ties pipeline bytes back to the checkpoint
// they belonged to (docs/OBSERVABILITY.md "Epoch ledger").
//
// The paper evaluates CRFS by whole-checkpoint numbers — checkpoint time,
// aggregation ratio, effective backend bandwidth — but a mount-global
// registry cannot answer "how did checkpoint #12 do?". The EpochTracker
// groups files written in the same checkpoint session into an epoch and
// emits one EpochRecord per finished epoch into a bounded ledger.
//
// Grouping, in priority order:
//   1. explicit markers — Crfs::epoch_begin/epoch_end (also reachable via
//      the `.crfs_epoch` control file and `crfsctl report`); an explicit
//      epoch is never auto-rotated;
//   2. a `.ckpt`-style path heuristic: files whose name carries a
//      generation number right after a "ckpt" token ("rank0.ckpt.12",
//      "img_ckpt-12") share the epoch; a different generation starts a
//      new one;
//   3. an open/close correlation window: a writable open that arrives
//      after `gap_ns` of open/close quiet (with no file of the epoch
//      still open) starts a new epoch.
//
// Hot-path contract: the write path never touches the tracker. Crfs::open
// resolves the epoch once (cold) and caches a shared_ptr<EpochState> in
// the FileEntry; write() and the IO workers only do relaxed fetch_adds on
// that state. WriteJob carries the shared_ptr so attribution stays safe
// even if the epoch rotates (or the ledger drops the record) while chunks
// are still in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"

namespace crfs::obs {

/// Live accumulator of one (possibly still open) epoch. All counters are
/// relaxed atomics: app threads bump bytes/app_writes/chunks/pool_stall,
/// IO threads bump backend_writes/durable_bytes/lag/residency; nothing
/// here orders anything.
class EpochState {
 public:
  EpochState(std::uint64_t eid, std::string elabel, std::string ekey,
             std::uint64_t estart_ns, bool eexplicit)
      : id(eid),
        label(std::move(elabel)),
        ckpt_key(std::move(ekey)),
        start_ns(estart_ns),
        explicit_marker(eexplicit) {}

  const std::uint64_t id;
  const std::string label;
  const std::string ckpt_key;  ///< heuristic group key; "" when none
  const std::uint64_t start_ns;
  const bool explicit_marker;

  std::atomic<std::uint64_t> files{0};         ///< distinct paths opened
  std::atomic<std::uint64_t> bytes{0};         ///< app bytes acknowledged
  std::atomic<std::uint64_t> app_writes{0};    ///< write() calls
  std::atomic<std::uint64_t> chunks{0};        ///< chunks enqueued
  std::atomic<std::uint64_t> backend_writes{0};///< backend pwrite/pwritev calls
  std::atomic<std::uint64_t> durable_bytes{0}; ///< bytes landed on the backend
  std::atomic<std::uint64_t> pool_stall_ns{0}; ///< app time blocked on the pool
  std::atomic<std::uint64_t> queue_residency_ns{0};  ///< sum enqueue->dequeue
  std::atomic<std::uint64_t> durability_lag_sum_ns{0};
  std::atomic<std::uint64_t> durability_lag_max_ns{0};
  std::atomic<std::uint64_t> io_errors{0};
  // Critical-path stage times (docs/OBSERVABILITY.md "Critical-path
  // attribution"): together with pool_stall_ns and queue_residency_ns
  // these decompose where the epoch's chunks spent their lifetime.
  std::atomic<std::uint64_t> copy_ns{0};        ///< write() minus pool wait
  std::atomic<std::uint64_t> submit_wait_ns{0}; ///< dequeue -> backend write call
  std::atomic<std::uint64_t> device_ns{0};      ///< backend write call -> durable
  std::atomic<std::uint64_t> barrier_ns{0};     ///< close/fsync drain wait

  /// IO-thread hook: one chunk of this epoch became durable.
  void record_chunk_durable(std::uint64_t chunk_bytes, std::uint64_t lag_ns,
                            std::uint64_t residency_ns) {
    durable_bytes.fetch_add(chunk_bytes, std::memory_order_relaxed);
    durability_lag_sum_ns.fetch_add(lag_ns, std::memory_order_relaxed);
    queue_residency_ns.fetch_add(residency_ns, std::memory_order_relaxed);
    std::uint64_t prev = durability_lag_max_ns.load(std::memory_order_relaxed);
    while (lag_ns > prev && !durability_lag_max_ns.compare_exchange_weak(
                                prev, lag_ns, std::memory_order_relaxed)) {
    }
  }
};

/// Immutable summary of one epoch: the paper's per-checkpoint numbers.
struct EpochRecord {
  std::uint64_t id = 0;
  std::string label;
  bool explicit_marker = false;
  bool open = false;  ///< true for a snapshot of the still-running epoch
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  std::uint64_t app_writes = 0;
  std::uint64_t chunks = 0;
  std::uint64_t backend_writes = 0;
  std::uint64_t durable_bytes = 0;
  std::uint64_t pool_stall_ns = 0;
  std::uint64_t queue_residency_ns = 0;
  std::uint64_t durability_lag_sum_ns = 0;
  std::uint64_t durability_lag_max_ns = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t copy_ns = 0;
  std::uint64_t submit_wait_ns = 0;
  std::uint64_t device_ns = 0;
  std::uint64_t barrier_ns = 0;

  // Tiered staging (docs/PERFORMANCE.md "Tiered staging"): filled in
  // after finalize by attach_drain() when the epoch's drain unit becomes
  // remote-durable. All zero for non-tiered mounts or not-yet-drained
  // epochs.
  std::uint64_t drained_bytes = 0;  ///< staged bytes landed on the remote
  std::uint64_t drain_ns = 0;       ///< wall time the drain copy took
  std::uint64_t drain_end_ns = 0;   ///< when the epoch became remote-durable

  double wall_seconds() const {
    return end_ns > start_ns ? static_cast<double>(end_ns - start_ns) / 1e9 : 0.0;
  }
  /// App writes folded into one backend call (paper's aggregation ratio).
  double aggregation_ratio() const {
    return backend_writes > 0
               ? static_cast<double>(app_writes) / static_cast<double>(backend_writes)
               : 0.0;
  }
  /// Durable bytes over the epoch's wall time.
  double effective_bw() const {
    const double w = wall_seconds();
    return w > 0.0 ? static_cast<double>(durable_bytes) / w : 0.0;
  }
  double mean_durability_lag_ns() const {
    return chunks > 0 ? static_cast<double>(durability_lag_sum_ns) /
                            static_cast<double>(chunks)
                      : 0.0;
  }
  /// Drained bytes over the drain copy's wall time (remote-tier BW).
  double drain_bw() const {
    return drain_ns > 0
               ? static_cast<double>(drained_bytes) / (static_cast<double>(drain_ns) / 1e9)
               : 0.0;
  }
  /// Seal -> remote-durable lag of this epoch (0 until drained).
  std::uint64_t drain_lag_ns() const {
    return drain_end_ns > end_ns ? drain_end_ns - end_ns : 0;
  }

  /// One JSON object; keys are part of the stats_json schema contract
  /// (tests/test_crfsctl_cli.cpp golden key-set).
  std::string to_json() const;
};

/// JSON array of records (stats_json / postmortem embedding).
std::string epochs_to_json(const std::vector<EpochRecord>& records);

/// Prometheus text exposition of the finished epochs as labelled series
/// (crfs_epoch_bytes{epoch="3",label="ckpt:12"} ...). Labels go through
/// prometheus_label_value() escaping — epoch labels can carry arbitrary
/// user strings.
std::string epochs_to_prometheus(const std::vector<EpochRecord>& records);

class EpochTracker {
 public:
  struct Options {
    /// Open/close quiet gap after which the next writable open starts a
    /// new epoch (heuristic 3 above).
    std::uint64_t gap_ns = 500'000'000;
    /// Finished records kept (oldest evicted); total_finalized() keeps
    /// counting so evictions are detectable.
    std::size_t ledger_capacity = 64;
  };

  /// All registry metrics are optional: pass nullptr for a tracker that
  /// only keeps the ledger. With a registry, finalize bumps
  /// crfs.epoch.{completed,bytes,files,chunks} and maintains the
  /// crfs.epoch.open gauge (current epoch id, 0 when none).
  EpochTracker(Options opts, Registry* registry);

  /// Writable open of `path` at `now_ns`: rotates the epoch if the
  /// heuristics say so, then returns the (possibly fresh) epoch state the
  /// caller caches on the file. Single clock-free mutex; cold path only.
  std::shared_ptr<EpochState> on_open(const std::string& path, std::uint64_t now_ns);

  /// Close of a writable handle opened through on_open.
  void on_close(const std::string& path, std::uint64_t now_ns);

  /// Explicit epoch marker: finalizes any active epoch and opens a new
  /// one that only end()/begin() can close (no auto-rotation).
  void begin(std::string label, std::uint64_t now_ns);

  /// Finalizes the active epoch (explicit or automatic); no-op when idle.
  void end(std::uint64_t now_ns);

  /// Unmount: finalize whatever is still open.
  void finalize_open(std::uint64_t now_ns);

  /// Invoked with every finalized EpochRecord, OUTSIDE the tracker lock
  /// (safe to call back into the tracker or into a backend). The mount
  /// wires this to TieredBackend::seal_epoch so a finalized epoch seals
  /// its drain unit. Set before concurrent use.
  using FinalizeFn = std::function<void(const EpochRecord&)>;
  void set_finalize_listener(FinalizeFn fn);

  /// Amends the ledger row of epoch `id` with its drain outcome (called
  /// from the tier's drain thread once the epoch is remote-durable;
  /// accumulates, so a re-drained epoch adds up). No-op when the row was
  /// evicted or `id` is unknown.
  void attach_drain(std::uint64_t id, std::uint64_t drained_bytes,
                    std::uint64_t drain_ns, std::uint64_t drain_end_ns);

  /// Finished records, oldest first.
  std::vector<EpochRecord> records() const;

  /// Snapshot of the still-running epoch, if any (end_ns = now_ns,
  /// open = true).
  std::optional<EpochRecord> open_epoch(std::uint64_t now_ns) const;

  /// Epochs finalized ever (>= records().size()).
  std::uint64_t total_finalized() const;

  /// The `.ckpt` generation heuristic, exposed for tests: digits directly
  /// after a "ckpt" token (separators ._- allowed) -> "ckpt:<digits>";
  /// "" when the path carries no generation number.
  static std::string ckpt_key(const std::string& path);

  /// Runtime re-arm of the quiet-gap threshold (knob epoch_gap_ms);
  /// applies to the next rotation check. Thread-safe.
  void set_gap_ns(std::uint64_t gap_ns) {
    gap_ns_.store(gap_ns, std::memory_order_relaxed);
  }
  std::uint64_t gap_ns() const { return gap_ns_.load(std::memory_order_relaxed); }

 private:
  EpochRecord snapshot_locked(const EpochState& st, std::uint64_t end_ns,
                              bool open) const;
  /// Returns the finalized record (if there was an active epoch) so the
  /// caller can fire the finalize listener after dropping mu_.
  std::optional<EpochRecord> finalize_locked(std::uint64_t end_ns);
  /// Fires the listener for `rec` outside mu_ (no-op for nullopt).
  void notify_finalized(const std::optional<EpochRecord>& rec);
  void start_locked(std::string label, std::string key, std::uint64_t now_ns,
                    bool explicit_marker);

  const Options opts_;
  std::atomic<std::uint64_t> gap_ns_;  ///< runtime-tunable copy of opts_.gap_ns
  Counter* c_completed_ = nullptr;
  Counter* c_bytes_ = nullptr;
  Counter* c_files_ = nullptr;
  Counter* c_chunks_ = nullptr;
  Gauge* g_open_ = nullptr;

  mutable std::mutex mu_;
  std::shared_ptr<EpochState> active_;
  std::unordered_set<std::string> active_paths_;  ///< distinct files of active_
  unsigned open_handles_ = 0;   ///< writable handles of active_ still open
  std::uint64_t last_event_ns_ = 0;  ///< last open/close seen
  std::uint64_t next_id_ = 1;
  std::uint64_t finalized_total_ = 0;
  std::deque<EpochRecord> ledger_;
  FinalizeFn finalize_listener_;
};

}  // namespace crfs::obs
