// crfs::obs durable telemetry journal: append-only, CRC32-framed, segment-
// rotated record of the mount's telemetry plane (docs/OBSERVABILITY.md
// "Durable journal").
//
// Everything PR 1-8 built (Sampler ring, events, epoch ledger, slow
// exemplars) is in-process and volatile — the Sampler keeps about a minute
// of frames and all of it dies with the process. The Journal persists those
// records as they happen, so `crfsctl timeline` and `crfsctl slo` can
// answer "was durability lag degrading for the last hour before the crash?"
// from the on-disk segments of a dead mount.
//
// Frame format (little-endian, 24-byte header + payload):
//
//   u32 magic   'CRFJ' (0x4A465243)
//   u16 version (1)
//   u16 type    FrameType
//   u64 ts_ns   record timestamp (monotonic or virtual ns)
//   u32 len     payload length in bytes
//   u32 crc     CRC32 (IEEE, reflected) of the payload bytes
//
// The payload is a self-describing JSON object (the same to_json renderings
// the live surfaces use), so segments stay debuggable with nothing but
// `strings`. The CRC is what makes a SIGKILL recoverable: the offline
// JournalReader accepts frames until the first short/corrupt one and
// reports the tail as torn — at most one partially-written frame is lost.
//
// Write-path contract: append() serializes into an in-memory pending buffer
// under a mutex and is only called from cold paths (the Sampler tick, the
// event listener). Disk IO happens in flush(), driven either by the
// background flusher thread (start(); the real mount) or by explicit
// tick(now_ns) calls (the simulator — no thread, so replays stay
// deterministic). Segments rotate at segment_bytes and the oldest are
// unlinked once the directory exceeds max_bytes; every segment begins with
// a fresh kMeta frame so retention never strips the mount config from what
// remains.
//
// Crash path (set_postmortem_renderer; the real mount only): the journal
// keeps the latest postmortem document pre-framed as a kPostmortem frame
// in a reserved double buffer, re-rendered by the flusher after every
// flush. A fatal signal writes that frame with open/write/close only to
// its own file, `<dir>/postmortem.crfsj` — never into a segment the
// flusher may be writing, where an interleaved write would tear a frame.
// Publication: the renderer copies into the buffer the handler is not
// reading, then release-stores its index; the handler acquire-loads it,
// so it writes the previous complete frame rather than a torn one.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace crfs::obs {

/// Journal frame types. Values are on-disk format; append only.
enum class FrameType : std::uint16_t {
  kMeta = 0,    ///< mount identity + config + SLO targets (head of every segment)
  kSample = 1,  ///< compact per-tick telemetry frame (journal_sample_json)
  kEvent = 2,   ///< health/SLO/knob-decision Event::to_json
  kEpoch = 3,   ///< finalized EpochRecord::to_json
  kSlow = 4,    ///< SlowExemplar::to_json
  kPostmortem = 5,  ///< Crfs::render_postmortem (crash file or dump_postmortem)
};

/// Fixed-size frame header constants (see format comment above).
inline constexpr std::uint32_t kJournalMagic = 0x4A465243;  // "CRFJ"
inline constexpr std::uint16_t kJournalVersion = 1;
inline constexpr std::size_t kJournalHeaderBytes = 24;

/// The crash file a fatal signal writes into the journal directory; the
/// reader decodes it after the segments, and the next Journal on that
/// directory renames it into its segment sequence.
inline constexpr char kPostmortemFile[] = "postmortem.crfsj";
/// Reserved bytes per crash-frame buffer (two are kept). A frame larger
/// than this is not published: the previous complete one stays.
inline constexpr std::size_t kPostmortemFrameBytes = 512 * 1024;

struct JournalOptions {
  /// Directory the segments live in (created if missing). By convention
  /// the mount wiring passes `<dir>/.crfs/journal`.
  std::string dir;
  /// Rotate to a new segment once the current one crosses this size.
  std::size_t segment_bytes = 1u << 20;  // 1 MiB
  /// Unlink oldest segments once the directory total crosses this bound.
  std::size_t max_bytes = 16u << 20;  // 16 MiB
  /// Background flusher cadence (start(); ignored for tick()-driven use).
  unsigned flush_ms = 200;
  /// fsync the current segment at most this often; 0 = never fsync
  /// (rotation still fsyncs the finished segment before closing it).
  /// Runtime-tunable via set_fsync_ms (knob `journal_fsync_ms`).
  unsigned fsync_ms = 1000;
};

/// Append-only segmented journal writer. Thread-safe; one instance per
/// mount. Registry metrics (optional): crfs.journal.appends / bytes /
/// frames dropped on IO error (errors) / segments / fsyncs.
class Journal {
 public:
  /// `registry` may be nullptr (no metrics). Construction creates the
  /// directory and opens the first segment; ok() reports whether that
  /// worked (a journal that failed to open swallows appends).
  Journal(JournalOptions opts, Registry* registry);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  bool ok() const { return ok_; }
  const std::string& dir() const { return opts_.dir; }
  /// errno-style description when !ok().
  const std::string& error() const { return error_; }

  /// Installs the meta payload written as the first frame of every
  /// segment (and immediately appends it to the current one). Call once
  /// right after construction, before any other append.
  void set_meta(std::string meta_json, std::uint64_t ts_ns);

  /// Queues one frame. Cold-path cost: mutex + buffer append.
  void append(FrameType type, std::uint64_t ts_ns, std::string_view payload);

  /// Flush pending frames to the current segment, rotating/retiring
  /// segments as needed; fsyncs when `force_fsync` or the fsync cadence
  /// expired at `now_ns`.
  void flush(std::uint64_t now_ns, bool force_fsync = false);

  /// Virtual-time driver (simulator) and the thread's loop body: flush,
  /// honoring the fsync cadence against `now_ns`.
  void tick(std::uint64_t now_ns) { flush(now_ns, false); }

  /// Starts the background flusher thread (real mounts only).
  void start();
  /// Final flush + fsync, then joins the thread. Idempotent.
  void stop();

  /// Arms the crash path: `render` returns the postmortem document. It is
  /// rendered now and again after every flusher flush, outside the
  /// journal lock, and published pre-framed for the fatal-signal handlers
  /// (SIGABRT/SIGSEGV/SIGBUS/SIGFPE/SIGILL). Each handler writes the frame
  /// to `<dir>/postmortem.crfsj`, then restores the disposition it
  /// replaced and re-raises, so an application's or a sanitizer's own
  /// handler still runs. One journal per process arms the handlers; they
  /// stay armed until stop(). nullptr detaches the renderer, waiting out a
  /// render in progress; the last published frame stays.
  void set_postmortem_renderer(std::function<std::string()> render);

  /// Renders the postmortem now and publishes it for the crash path; with
  /// `append`, also journals it as a kPostmortem frame and flushes with an
  /// fsync. False without a renderer.
  bool refresh_postmortem(bool append);

  /// Async-signal-safe: writes the last published postmortem frame to
  /// `<dir>/postmortem.crfsj`. False when none is published or the write
  /// failed.
  bool write_crash_frame() const noexcept;

  /// Runtime re-arm of the fsync cadence (knob plane). 0 disables.
  void set_fsync_ms(unsigned ms) { fsync_ms_.store(ms, std::memory_order_relaxed); }
  unsigned fsync_ms() const { return fsync_ms_.load(std::memory_order_relaxed); }

  std::uint64_t appends() const { return appends_.load(std::memory_order_relaxed); }
  std::uint64_t bytes_written() const { return bytes_.load(std::memory_order_relaxed); }
  std::uint64_t segments_created() const { return segments_.load(std::memory_order_relaxed); }
  std::uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  std::uint64_t io_errors() const { return errors_.load(std::memory_order_relaxed); }

  /// {"enabled":true,"dir":...,"segment_bytes":...,"max_bytes":...,
  ///  "fsync_ms":...,"appends":...,"bytes":...,"segments":...,
  ///  "fsyncs":...,"errors":...} — the stats_json/postmortem "journal" row.
  std::string to_json() const;

 private:
  void thread_main();
  bool open_segment_locked();   // opens seg-<next index>, writes meta frame
  void rotate_locked();         // fsync+close current, open next, retire old
  void enforce_retention_locked();
  bool write_all_locked(const void* data, std::size_t size);
  void disarm_crash_path();

  const JournalOptions opts_;
  const std::string crash_path_;  ///< <dir>/postmortem.crfsj
  std::atomic<unsigned> fsync_ms_;

  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> segments_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> errors_{0};
  Counter* c_appends_ = nullptr;
  Counter* c_bytes_ = nullptr;
  Counter* c_segments_ = nullptr;
  Counter* c_fsyncs_ = nullptr;
  Counter* c_errors_ = nullptr;

  mutable std::mutex mu_;
  bool ok_ = false;
  std::string error_;
  std::string meta_json_;
  std::uint64_t meta_ts_ns_ = 0;
  std::string pending_;              ///< serialized frames awaiting flush
  int fd_ = -1;                      ///< current segment
  std::uint64_t seg_index_ = 0;      ///< index of the current segment
  std::size_t seg_size_ = 0;         ///< bytes written to the current segment
  std::deque<std::pair<std::uint64_t, std::size_t>> live_;  ///< (index, size) incl. current
  std::uint64_t last_fsync_ns_ = 0;

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;

  // Crash path. render_mu_ serializes renders and guards renderer_; the
  // buffers are reserved when the path is armed, so a refresh never
  // allocates beyond the render itself.
  std::mutex render_mu_;
  std::function<std::string()> renderer_;
  std::array<std::vector<char>, 2> crash_buf_;
  std::array<std::atomic<std::size_t>, 2> crash_len_{};
  std::atomic<int> crash_published_{-1};
  bool handlers_armed_ = false;  ///< this journal owns the signal handlers
};

/// One decoded journal frame.
struct JournalRecord {
  FrameType type = FrameType::kMeta;
  std::uint64_t ts_ns = 0;
  std::uint64_t seq = 0;  ///< 0-based decode order across all segments
  std::string payload;
};

/// Offline reader: decodes every segment in index order, verifying magic +
/// CRC per frame. Needs no cooperation from (and never blocks) a live
/// writer; works on the directory a SIGKILLed mount left behind.
class JournalReader {
 public:
  struct Result {
    bool ok = false;           ///< directory existed and held >= 1 segment
    std::string error;         ///< why !ok
    std::string meta_json;     ///< payload of the newest kMeta frame seen
    std::vector<JournalRecord> records;  ///< decode order, kMeta excluded
    std::size_t segments = 0;  ///< segments decoded
    bool torn_tail = false;    ///< a segment ended in a short/corrupt frame
    std::uint64_t torn_bytes = 0;  ///< bytes abandoned at torn tails
  };

  /// Reads `<dir>/seg-*.crfsj`, then `<dir>/postmortem.crfsj` when a
  /// fatal signal left one. A torn tail is normal after SIGKILL and does
  /// not clear `ok`; every frame before it is returned.
  static Result read_dir(const std::string& dir);
};

/// Serializes one frame (header + payload) onto `out`. Exposed for the
/// reader/writer round-trip tests.
void append_frame(std::string& out, FrameType type, std::uint64_t ts_ns,
                  std::string_view payload);

/// Compact per-tick telemetry payload for kSample frames: cumulative
/// write/read totals (timeline rates come from deltas between frames) plus
/// the per-window SLO inputs (`crfsctl slo` replays burn rates offline
/// from exactly these). Keys: seq, ts_ns, dt_ns, pwrite_bytes, pwrites,
/// queue_depth, free_chunks, lag_p99_ns, lag_n, stall_ratio_ppm, stall_n,
/// ttfb_p99_ns, ttfb_n.
struct Sample;    // sampler.h
struct RuleInput;  // rules.h
std::string journal_sample_json(const Sample& s, const RuleInput& in);

}  // namespace crfs::obs
