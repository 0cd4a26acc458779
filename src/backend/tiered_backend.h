// TieredBackend: a composing burst-buffer BackendFs (docs/PERFORMANCE.md
// "Tiered staging").
//
// The paper's pipeline decouples write latency from backend bandwidth
// with the buffer pool, but every chunk still drains straight to one
// backend, so sustained checkpoint absorption is capped at backend speed.
// TieredBackend adds the burst-buffer bandwidth multiple: every write
// lands on a fast staging tier (MemBackend, or a PosixBackend on
// NVMe-class local storage) and background drain workers copy it to the
// slow remote tier asynchronously, so the application absorbs
// checkpoints at staging speed while the remote catches up.
//
// Drain is epoch-aware. Staged bytes are grouped into drain units; the
// mount seals the open unit whenever the epoch ledger finalizes an epoch
// (EpochTracker finalize listener -> seal_epoch), so a unit IS a
// checkpoint. Sealed units drain oldest-first — whole checkpoints at a
// time.
//
// Copy early, evict late. While no sealed unit waits, the drain copies
// the OPEN unit's extents to the remote as they land, so the remote
// streams during the burst instead of idling until its seal. The eager
// and the sealed drain pick what to copy from the extent map alone,
// through one stream path. Each extent carries the id of the write that
// staged it and a `copied` bit; a copy marks its extent copied only if
// offset, length, unit and write id all still match afterwards, so bytes
// overwritten mid-copy are copied again (last-writer-wins). After the
// seal each file's stream copies only what is still uncopied and fsyncs
// the file's remote copy as soon as none of its extents in the unit is
// left uncopied; the unit is evicted only once every file of it is
// fsynced: staged data is released only once its entire unit is durable
// (pwritten AND fsynced) at the remote, so a crash mid-drain never leaves
// the remote with a half-valid newest checkpoint while the stage already
// dropped the bytes. A failed eager copy stops eager copying until the
// seal; the sealed unit's retry loop then owns it.
//
// One drain stream per file, with no barrier. Up to `drain_parallel`
// drain workers each claim a file that no stream owns and that still has
// work in the oldest unit (the sealed front, or the open unit while
// nothing is sealed), copy one step of at most kStepBytes of it, mark the
// step copied, release the file and claim again, so a file's stream
// starts as soon as its bytes land and a finished file frees its worker
// at once. A file has at most one remote write in flight, as WorkQueue
// gives the IO pool one writer per file, while files drain side by side,
// so the tier reaches the remote with the concurrency the mount uses when
// it writes there directly. At drain_parallel=1 the remote sees a single
// write stream. `drain_mbps` is one budget that the steps of all streams
// book in turn. The drain thread is the coordinator: it only waits for
// every file of the sealed front, evicts it and retries it after a
// failure.
//
// Stage reads. When the stage exposes a kernel fd (PosixBackend), each
// drain step maps the staged range read-only (MAP_SHARED|MAP_POPULATE)
// and hands the mapping straight to the remote pwrite: no bounce copy.
// Fd-less stages (MemBackend, decorators) go through a per-thread bounce
// buffer. Stage files are private to the tier: nothing else may truncate
// them, since touching a mapped page past EOF raises SIGBUS; the tier
// itself cuts one back only at eviction, when no stream owns its file.
// Truncate, open(O_TRUNC), unlink and rename first wait for the file's
// in-flight drain IO, so no late copy resurrects truncated bytes on the
// remote, then call the remote under the tier lock. A rename onto a staged
// file retires the replaced file like an unlink. Bytes written through a
// handle still open on a retired file stay on the stage, read back through
// that handle only, and go at its last close: they never reach the remote.
//
// Stage pool. The stage is a pool of files that the tier names and
// recycles, as BufferPool recycles chunks: the stage holds no namespace.
// A file takes a stage file at its first staged write: a spare from the
// pool (the newest, whose pages are likeliest still resident), or a new
// flat file named "<pid>-<tier>-<n>.stage", so tiers sharing a stage
// directory never collide. When the file gives it up (closed and fully
// evicted, or retired at its last close) it goes back to the pool with
// its pages intact, and the next burst overwrites resident pages instead
// of faulting in fresh page cache. Reads follow the extent map, so a
// recycled file's old bytes never show: a gap reads from the remote, or as
// zeroes. That is why size ops (truncate, open(O_TRUNC)) and a handoff
// drop extents and leave the stage file alone; only an open file's fully
// drained stage file is cut back at eviction, so an ever-appending file
// cannot grow it without bound. Budget: spare bytes plus stage_used never
// exceed stage_cap or, with no cap, the highest stage_used seen so far;
// the oldest spares are unlinked when a release or a write would break
// that, always after the tier lock is dropped. Bytes of a handed-off spare
// that its new owner has not yet overwritten are not counted, just as
// drained bytes of a still-open file are not. mkdir, rmdir, unlink, rename
// and stat touch the remote only. Trade-off: a spare's pages stay dirty,
// so the kernel may write them back once per dirty_expire interval, where
// a stage file unlinked at eviction was usually gone before writeback
// reached the device.
//
// Coherence: the extent map tracks exactly which byte ranges are staged;
// an overwrite trims older extents (last-writer-wins), so a read serves
// staged ranges from the stage tier and evicted/never-staged ranges from
// the remote, and superseded bytes are never drained over newer ones.
//
// Backpressure: when staged bytes would exceed `stage_cap`, writers block
// until eviction frees space (counted in crfs.tier.stalls/stall_ns); a
// single write larger than the whole cap spills through directly to the
// remote instead (crfs.tier.spill_bytes). While a writer waits with no
// sealed unit pending, the open unit is auto-sealed so the drain can make
// progress — a cap smaller than one epoch degrades to write-through
// rather than deadlocking.
//
// Remote failures: a failed remote pwrite/fsync never loses data — the
// drain retries the whole unit with exponential backoff (stage retains
// every byte), bumps crfs.tier.retries, and raises a "tier_remote_down"
// health event on the first failure of an episode.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/backend_fs.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace crfs {

/// What fsync() promises: kStage = the bytes are on the stage device
/// (fast, the default), but a new mount does not recover them yet: a
/// restart sees only what had drained to the remote (ROADMAP item 14).
/// kRemote = seal the open unit and block until this file's staged bytes
/// are durable at the remote (the paper's backend-durability semantics).
enum class TierFsyncMode { kStage, kRemote };

struct TieredOptions {
  /// Max staged bytes before writers block (0 = unbounded).
  std::uint64_t stage_cap = 0;
  /// Drain bandwidth cap toward the remote, MB/s (0 = unthrottled).
  /// Runtime-tunable via the `drain_mbps` knob.
  double drain_mbps = 0.0;
  /// Max remote write streams, one per file (>= 1): how many files the
  /// drain copies at once. Runtime-tunable via the `drain_parallel` knob.
  unsigned drain_parallel = 4;
  TierFsyncMode fsync_mode = TierFsyncMode::kStage;
  /// Remote-failure retry backoff: initial, doubling to the max.
  std::chrono::milliseconds retry_backoff{10};
  std::chrono::milliseconds retry_backoff_max{1000};
};

/// Point-in-time tier state (tier_json / stats_json "tier" section).
struct TierStats {
  std::uint64_t stage_used = 0;        ///< staged (not yet evicted) bytes
  std::uint64_t stage_cap = 0;         ///< configured cap (0 = unbounded)
  std::uint64_t staged_bytes = 0;      ///< bytes ever landed on the stage
  std::uint64_t drained_bytes = 0;     ///< bytes ever copied to the remote
  std::uint64_t spill_bytes = 0;       ///< oversized writes sent direct
  std::uint64_t units_sealed = 0;      ///< drain units closed
  std::uint64_t units_evicted = 0;     ///< units fully drained + evicted
  std::uint64_t pending_units = 0;     ///< sealed, not yet evicted
  std::uint64_t stalls = 0;            ///< writer backpressure blocks
  std::uint64_t stall_ns = 0;          ///< total time writers spent blocked
  std::uint64_t retries = 0;           ///< remote-failure drain retries
  std::uint64_t drain_lag_ns = 0;      ///< age of the oldest undrained unit
  double drain_mbps = 0.0;             ///< current drain throttle
  unsigned drain_parallel = 1;         ///< max remote write streams, one per file
};

class TieredBackend final : public BackendFs {
 public:
  TieredBackend(std::shared_ptr<BackendFs> stage, std::shared_ptr<BackendFs> remote,
                TieredOptions opts);

  /// Seals the open unit, drains everything, then joins the drain thread.
  ~TieredBackend() override;

  // -- BackendFs ----------------------------------------------------------
  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override;
  Status close_file(BackendFile file) override;
  Status pwrite(BackendFile file, std::span<const std::byte> data,
                std::uint64_t offset) override;
  Result<std::size_t> pread(BackendFile file, std::span<std::byte> data,
                            std::uint64_t offset) override;
  Status fsync(BackendFile file) override;
  Status truncate(BackendFile file, std::uint64_t size) override;
  Result<BackendStat> stat(const std::string& path) override;
  Status mkdir(const std::string& path) override;
  Status rmdir(const std::string& path) override;
  Status unlink(const std::string& path) override;
  Status rename(const std::string& from, const std::string& to) override;
  Result<std::vector<std::string>> list_dir(const std::string& path) override;
  std::string name() const override;
  TieredBackend* tiered() override { return this; }
  // raw_fd stays -1 (base default): tier routing must see every IO, so
  // the read path never bypasses us — same decorator contract as
  // FaultyBackend/ThrottledBackend.

  // -- Epoch integration ---------------------------------------------------
  /// Closes the open drain unit and labels it with `epoch_id`, making it
  /// eligible for drain. Wired to EpochTracker's finalize listener by the
  /// mount; `epoch_id` 0 marks an unlabelled (auto-sealed) unit.
  void seal_epoch(std::uint64_t epoch_id);

  /// Invoked (off the drain thread, no tier lock held) when a unit's
  /// epoch becomes fully remote-durable; the mount forwards labelled
  /// units into EpochTracker::attach_drain.
  using DrainListener = std::function<void(
      std::uint64_t epoch_id, std::uint64_t drained_bytes, std::uint64_t drain_ns,
      std::uint64_t drain_end_ns)>;
  void set_drain_listener(DrainListener fn);

  /// Attaches the tier's crfs.tier.* metrics and health events. Call
  /// before concurrent IO (Crfs::mount does, via BackendFs::tiered()).
  void bind_obs(obs::Registry* registry, obs::EventBuffer* events);

  // -- Runtime knobs (drain_mbps / drain_parallel) -------------------------
  void set_drain_mbps(double mbps);
  double drain_mbps() const { return drain_mbps_cap_.load(std::memory_order_relaxed); }
  void set_drain_parallel(unsigned n);
  unsigned drain_parallel() const {
    return drain_parallel_.load(std::memory_order_relaxed);
  }

  /// Seals the open unit and blocks until every sealed unit is drained
  /// and evicted (remote-durable). Returns the first drain error seen
  /// this call, if any unit ultimately could not land (shutdown only —
  /// retries otherwise never give up).
  Status flush();

  TierStats tier_stats() const;
  /// {"enabled":true,"stage":...,"remote":...,"stage_used":...,...}.
  std::string tier_json() const;

  BackendFs& stage_tier() { return *stage_; }
  BackendFs& remote_tier() { return *remote_; }

 private:
  /// One staged byte range of a file; `unit` tags the drain unit that
  /// owns it (last writer wins — an overwrite re-tags to the open unit).
  /// `write_id` names the pwrite that staged it; `copied` says its bytes
  /// are on the remote (not yet fsynced). Split pieces keep all four.
  struct Extent {
    std::uint64_t len = 0;
    std::uint64_t unit = 0;
    std::uint64_t write_id = 0;
    bool copied = false;
  };
  /// The unit of bytes written through a retired file's handles. No drain
  /// unit has it, so they are never copied, and only the file's last
  /// close drops them.
  static constexpr std::uint64_t kRetiredUnit = 0;

  /// A file's bytes of one drain unit that are not yet durable on the
  /// remote: the staged bytes and, of those, the ones not yet copied. It
  /// goes when its bytes are trimmed, or when the file's remote fsync after
  /// the seal makes them durable.
  struct UnitShare {
    std::uint64_t staged = 0;
    std::uint64_t uncopied = 0;
  };

  /// A tier-named stage file, held by one FileState or spare in the pool.
  struct StageFile {
    std::string name;
    BackendFile handle = 0;
    std::uint64_t size = 0;  ///< high-water of its writes: its bytes on the stage
  };

  /// Per-path tier state. Extents are non-overlapping, keyed by offset.
  struct FileState {
    std::string path;
    /// Held from the first staged write until the file gives it up; every
    /// extent lives in it.
    std::optional<StageFile> stage;
    BackendFile remote_read = 0;
    bool remote_read_open = false;
    std::map<std::uint64_t, Extent> extents;
    /// Its shares of drain units, by unit seq (none for kRetiredUnit).
    std::map<std::uint64_t, UnitShare> units;
    std::uint64_t size = 0;  ///< logical high-water mark
    int open_count = 0;
    /// Stage pwrites in flight outside the lock: eviction must not close
    /// or truncate the stage file underneath one.
    int inflight = 0;
    /// A drain stream owns the file: its copy or remote fsync runs outside
    /// the lock. Size and namespace ops wait for false (copy_cv_).
    bool drain_io = false;
    /// Retired: unlinked, or replaced by a rename. Out of files_, so a
    /// later open of the path is a new file; kept alive by open handles.
    bool unlinked = false;
  };

  /// One staged extent of a claimed step; `write_id` is for the copied-bit
  /// check.
  struct DrainRun {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    std::uint64_t write_id = 0;
  };

  /// A drain stream's claim on one file, snapshotted under the lock:
  /// uncopied extents of `unit` totalling at most kStepBytes or, with no
  /// runs, the remote fsync of the file's fully copied share of the sealed
  /// `unit`. `opened` is the failure to open the remote writer, if any.
  struct StreamClaim {
    std::shared_ptr<FileState> file;
    std::uint64_t unit = 0;
    std::vector<DrainRun> runs;
    BackendFile stage_file = 0;
    BackendFile remote_file = 0;
    Status opened;
  };

  /// A sealed group of extents: the drain ordering + eviction unit.
  struct DrainUnit {
    std::uint64_t seq = 0;       ///< internal, monotonically increasing
    std::uint64_t epoch_id = 0;  ///< ledger epoch label; 0 = unlabelled
    std::uint64_t bytes = 0;     ///< staged bytes tagged to this unit
    std::uint64_t seal_ns = 0;   ///< when it became drain-eligible
    std::uint64_t first_copy_ns = 0;  ///< first byte copy (drain_ns start)
  };

  struct OpenHandle {
    std::shared_ptr<FileState> file;
    bool writable = false;
  };

  std::shared_ptr<FileState> file_for(const std::string& path, std::unique_lock<std::mutex>&);
  Result<OpenHandle> resolve(BackendFile file, const char* op) const;
  /// Gives `fs` a stage file, a spare if the pool has one.
  Status take_stage_locked(FileState& fs);
  /// Moves the oldest spares to `doomed` until the pool is within budget.
  void trim_spares_locked(std::vector<StageFile>& doomed);
  /// Closes and unlinks stage files; call with the tier lock dropped.
  void free_stage_files(const std::vector<StageFile>& doomed);
  Status ensure_remote_read_locked(FileState& fs);
  /// Removes staged extents overlapping [offset, offset+len), returning
  /// the staged bytes freed. Splits partially-overlapped extents.
  std::uint64_t trim_extents_locked(FileState& fs, std::uint64_t offset,
                                    std::uint64_t len);
  void seal_locked(std::uint64_t epoch_id, std::uint64_t now_ns);
  /// Drops a file nothing holds any more: closed, no write in flight and,
  /// unless retired, fully evicted. Its stage file goes back to the pool,
  /// or to `doomed` when over budget.
  void release_file_locked(const std::shared_ptr<FileState>& fs,
                           std::vector<StageFile>& doomed);
  /// The drain's remote write handle for `fs`, opened on first use.
  Result<BackendFile> remote_writer_locked(const FileState& fs);
  /// Blocks until `quiet` holds: no stream owns the files it names. No
  /// stream claims while a fence waits, so a file that keeps having drain
  /// work cannot starve a size or namespace op.
  void wait_drain_io_locked(std::unique_lock<std::mutex>& lock,
                            const std::function<bool()>& quiet);
  void drain_loop();
  void worker_loop();
  /// Wakes one idle worker, or all of them, to claim; starts a worker
  /// (up to drain_parallel) when none is idle.
  void wake_streams_locked(bool all);
  /// Claims a file with work in the oldest unit for the calling stream,
  /// `prefer` (the file it just released) first, and starts another worker
  /// while work is left that no idle worker can take.
  std::optional<StreamClaim> claim_locked(const std::shared_ptr<FileState>& prefer);
  /// Copies a claimed step; `bounce` is the calling thread's buffer for
  /// fd-less stages.
  Status copy_claim(const StreamClaim& claim, std::vector<std::byte>& bounce);
  /// Releases the file and marks copied every run that still matches its
  /// snapshot, or drops the share the fsync made durable, or records the
  /// failure.
  void finish_claim_locked(const StreamClaim& claim, const Status& result);
  /// True once no file holds bytes of `unit` that are not remote-durable.
  bool unit_durable_locked(std::uint64_t unit) const;
  /// Drops every extent of the durable `unit`; returns the bytes evicted.
  std::uint64_t evict_locked(std::uint64_t unit, std::vector<StageFile>& doomed);
  /// Raises tier_remote_down once per failure episode.
  void note_remote_failure(const Error& error, std::uint64_t unit, std::uint64_t bytes);
  /// Books the next `bytes` of the drain_mbps budget that all streams
  /// share and waits for the slot to open. Returns when it closes, which
  /// the caller waits for after its write.
  std::chrono::steady_clock::time_point book_budget(std::uint64_t bytes);
  std::uint64_t oldest_pending_seal_ns_locked() const;

  const std::shared_ptr<BackendFs> stage_;
  const std::shared_ptr<BackendFs> remote_;
  const TieredOptions opts_;

  std::atomic<double> drain_mbps_cap_;
  std::atomic<unsigned> drain_parallel_;

  mutable std::mutex mu_;
  std::condition_variable space_cv_;   ///< eviction freed stage bytes
  std::condition_variable drain_cv_;   ///< sealed unit, front progress, shutdown
  std::condition_variable idle_cv_;    ///< a unit finished (flush/fsync waiters)
  std::condition_variable copy_cv_;    ///< a file's drain IO finished (fence waiters)
  bool shutdown_ = false;

  std::unordered_map<std::string, std::shared_ptr<FileState>> files_;
  std::unordered_map<BackendFile, OpenHandle> handles_;
  BackendFile next_handle_ = 1;

  std::uint64_t stage_used_ = 0;
  std::uint64_t stage_peak_ = 0;  ///< highest stage_used_: the pool's budget with no cap
  /// The stage pool: spare stage files, oldest first, and their bytes.
  std::vector<StageFile> spares_;
  std::uint64_t spare_bytes_ = 0;
  const std::string stage_prefix_;  ///< "<pid>-<tier>-", unique per tier instance
  std::uint64_t next_stage_id_ = 1;
  std::uint64_t open_unit_seq_ = 1;  ///< unit collecting new writes
  std::uint64_t next_unit_seq_ = 2;
  std::uint64_t open_unit_bytes_ = 0;
  std::deque<DrainUnit> sealed_;  ///< oldest-first drain queue
  bool eager_stopped_ = false;  ///< an eager copy failed; wait for the seal
  /// A stream of the sealed front failed since the front last started: no
  /// stream claims it until the coordinator retries (a remote error is
  /// kept over ESTALE).
  std::optional<Error> front_error_;
  std::uint64_t next_write_id_ = 1;
  std::uint64_t open_unit_first_copy_ns_ = 0;

  // Remote writer handles, one per path, used by the drain side only. A
  // file's drain steps never overlap, so each has one writer at a time.
  std::unordered_map<std::string, BackendFile> remote_write_;

  std::condition_variable work_cv_;  ///< a stream may claim, or stop
  unsigned streams_ = 0;             ///< claims in flight
  unsigned idle_workers_ = 0;        ///< workers waiting on work_cv_
  unsigned fence_waiters_ = 0;       ///< ops in wait_drain_io_locked
  bool workers_stop_ = false;
  /// Drain workers, one per stream that ran at once so far (at most the
  /// widest drain_parallel), joined at teardown.
  std::vector<std::thread> workers_;
  /// The drain_mbps budget is booked up to here.
  std::chrono::steady_clock::time_point budget_end_{};

  // Lifetime totals mirrored into the (optional) registry.
  std::atomic<std::uint64_t> t_staged_bytes_{0};
  std::atomic<std::uint64_t> t_drained_bytes_{0};
  std::atomic<std::uint64_t> t_spill_bytes_{0};
  std::atomic<std::uint64_t> t_units_sealed_{0};
  std::atomic<std::uint64_t> t_units_evicted_{0};
  std::atomic<std::uint64_t> t_stalls_{0};
  std::atomic<std::uint64_t> t_stall_ns_{0};
  std::atomic<std::uint64_t> t_retries_{0};

  obs::Registry* registry_ = nullptr;
  obs::EventBuffer* events_ = nullptr;
  obs::Counter* c_staged_bytes_ = nullptr;
  obs::Counter* c_drained_bytes_ = nullptr;
  obs::Counter* c_spill_bytes_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_stalls_ = nullptr;
  obs::Counter* c_stall_ns_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::LatencyHistogram* h_drain_pwrite_ = nullptr;

  DrainListener drain_listener_;

  /// Tracks the failure episode so tier_remote_down fires once per
  /// outage, not once per retry or stream.
  std::atomic<bool> remote_down_{false};

  std::thread drain_thread_;
};

struct Config;  // crfs/config.h

/// Composes a TieredBackend from the mount Config's tier_* fields over
/// `remote_dir`: stage "mem" -> MemBackend, otherwise a PosixBackend on
/// that directory; remote = PosixBackend on remote_dir. Used by crfsctl /
/// benches so `stage=`/`remote=` mount options work end to end.
Result<std::shared_ptr<BackendFs>> make_tiered_backend(const Config& cfg,
                                                       const std::string& remote_dir);

}  // namespace crfs
