// Measurement plumbing for the CRFS benchmark: clocks, sample sets, the
// span recorder behind the traced run, the timing backend decorator, the
// hang watchdog, and process resource probes. Everything here sits outside
// the library and only observes it through public entry points.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend_fs.h"

namespace perfbench {

using Ns = std::uint64_t;

/// steady_clock nanoseconds: the same clock as crfs::obs::now_ns, so
/// timestamps the library stamps into its epoch ledger compare directly.
inline Ns now_ns() {
  return static_cast<Ns>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count());
}

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;

/// A set of measurements; percentiles interpolate between order statistics.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  double sum() const;
  /// p in [0, 1]; 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }
  /// The highest of p90/p75/p50 that leaves at least ten samples above it.
  double tail(double* p_out) const;

 private:
  std::vector<double> v_;
};

/// Layers the self-time table attributes to, named after the repository's
/// modules. `kBench` is the harness's own loop and its waits on the slower
/// rank. FuseShim request splitting runs inside the spans timed as `kCrfs`.
enum class Layer : std::uint8_t { kBench, kCrfs, kBlcr, kBackend, kTier, kCount };
const char* layer_name(Layer layer);
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// In-memory span recorder. Application threads bind a track; spans they
/// close feed a per-track self-time table (span time minus the time its
/// same-thread children cover). Spans from unbound threads (CRFS IO
/// threads, the tier drain) are kept for the Chrome trace only. A
/// disabled recorder costs one branch per span.
class Tracer {
 public:
  static constexpr int kMaxTracks = 4;

  explicit Tracer(std::size_t keep_cap) : keep_cap_(keep_cap) {}

  /// Toggle only while no span is open (between phases).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Makes the calling thread application track `track` (< kMaxTracks).
  static void bind_track(int track);

  /// Opens the measured window: resets the self-time table. Spans must not
  /// straddle the window edges.
  void begin_window(int tracks);
  void end_window();

  struct SelfTable {
    std::array<double, kLayers> seconds{};  ///< self time per track, averaged
    double uncovered_s = 0;                 ///< window time outside any span
    double wall_s = 0;                      ///< window length
  };
  SelfTable self_table() const;

  /// Writes every kept span as Chrome trace_event JSON.
  bool write_chrome(const std::string& path) const;
  std::uint64_t dropped() const { return dropped_.load(); }

 private:
  friend class Span;
  struct Record {
    const char* name;
    Layer layer;
    std::uint32_t tid;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint64_t trace_id;
    Ns start;
    Ns end;
  };
  void keep(const Record& r);

  std::atomic<bool> enabled_{false};
  const std::size_t keep_cap_;
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<Record> kept_;  // guarded by mu_
  // Written only by the owning track's thread inside the window; read after
  // the window's threads have been joined or have synchronised with the
  // reader.
  std::array<std::array<Ns, kLayers>, kMaxTracks> self_ns_{};
  std::array<Ns, kMaxTracks> covered_ns_{};
  std::atomic<bool> counting_{false};
  int tracks_ = 1;
  Ns window_start_ = 0;
  Ns window_end_ = 0;
};

/// RAII span. `trace_id` 0 inherits the enclosing span's id on this thread;
/// `parent` 0 means the enclosing span on this thread (cross-thread parents
/// are passed explicitly).
class Span {
 public:
  Span(Tracer& tracer, Layer layer, const char* name, std::uint64_t trace_id = 0,
       std::uint32_t parent = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; returns its duration (0 when tracing is off).
  Ns end();
  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_ = nullptr;  // null when tracing is off or already ended
  const char* name_ = nullptr;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  Ns start_ = 0;
};

/// Counters a TimedBackend keeps for one wrapped backend.
struct IoCounts {
  std::atomic<std::uint64_t> write_calls{0};
  std::atomic<std::uint64_t> write_bytes{0};
  std::atomic<Ns> write_ns{0};
  std::atomic<std::uint64_t> read_calls{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<Ns> read_ns{0};
  std::atomic<std::uint64_t> fsync_calls{0};
  std::atomic<Ns> fsync_ns{0};

  void reset();
};

/// Benchmark-owned decorator that counts and times data calls, forwarding
/// pwritev/preadv as vectored calls so the sync engine's call shape is what
/// the inner backend sees. raw_fd stays -1 (the base default), as for the
/// library's own decorators. Used only in traced phases: the times are the
/// spans' durations.
class TimedBackend final : public crfs::BackendFs {
 public:
  TimedBackend(std::shared_ptr<crfs::BackendFs> inner, Tracer& tracer, const char* tag);

  const IoCounts& counts() const { return counts_; }
  void reset_counts() { counts_.reset(); }

  crfs::Result<crfs::BackendFile> open_file(const std::string& path,
                                            crfs::OpenFlags flags) override {
    return inner_->open_file(path, flags);
  }
  crfs::Status close_file(crfs::BackendFile f) override { return inner_->close_file(f); }
  crfs::Status pwrite(crfs::BackendFile f, std::span<const std::byte> d,
                      std::uint64_t off) override;
  crfs::Status pwritev(crfs::BackendFile f, std::span<const crfs::BackendIoVec> iov,
                       std::uint64_t off) override;
  crfs::Result<std::size_t> pread(crfs::BackendFile f, std::span<std::byte> d,
                                  std::uint64_t off) override;
  crfs::Result<std::size_t> preadv(crfs::BackendFile f,
                                   std::span<const crfs::BackendMutIoVec> iov,
                                   std::uint64_t off) override;
  crfs::Status fsync(crfs::BackendFile f) override;
  crfs::Status truncate(crfs::BackendFile f, std::uint64_t s) override {
    return inner_->truncate(f, s);
  }
  crfs::Result<crfs::BackendStat> stat(const std::string& p) override { return inner_->stat(p); }
  crfs::Status mkdir(const std::string& p) override { return inner_->mkdir(p); }
  crfs::Status rmdir(const std::string& p) override { return inner_->rmdir(p); }
  crfs::Status unlink(const std::string& p) override { return inner_->unlink(p); }
  crfs::Status rename(const std::string& a, const std::string& b) override {
    return inner_->rename(a, b);
  }
  crfs::Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_->list_dir(p);
  }
  std::string name() const override { return "timed(" + inner_->name() + ")"; }

 private:
  std::shared_ptr<crfs::BackendFs> inner_;
  Tracer& tracer_;
  const char* write_name_;
  const char* read_name_;
  const char* fsync_name_;
  IoCounts counts_;
};

/// Fails the run instead of hanging: a blocking call arms a deadline naming
/// the layer it waits in; a checker thread that sees a deadline pass prints
/// the layer to stderr and ends the process with exit code 3.
class Watchdog {
 public:
  Watchdog();
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  class Guard {
   public:
    Guard(Watchdog& wd, const char* what, double seconds);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Watchdog& wd_;
    int slot_;
  };

 private:
  static constexpr int kSlots = 32;
  struct Slot {
    std::atomic<Ns> deadline{0};
    std::atomic<const char*> what{nullptr};
  };
  void loop();

  std::array<Slot, kSlots> slots_;
  std::atomic<int> next_slot_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

/// Runs one callable per rank each round: rank 0 on the calling thread,
/// the others on persistent worker threads bound to tracer tracks 1..n-1.
class RankCrew {
 public:
  explicit RankCrew(unsigned ranks);
  ~RankCrew();
  RankCrew(const RankCrew&) = delete;
  RankCrew& operator=(const RankCrew&) = delete;

  /// Blocks until fn(r) has returned for every rank.
  void run(const std::function<void(unsigned)>& fn);

 private:
  void worker(unsigned rank);

  const unsigned ranks_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* fn_ = nullptr;  // guarded by mu_
  std::uint64_t generation_ = 0;                       // guarded by mu_
  unsigned pending_ = 0;                               // guarded by mu_
  bool stop_ = false;                                  // guarded by mu_
  std::vector<std::thread> threads_;
};

/// User+system CPU seconds of the whole process (getrusage).
double cpu_seconds();

/// Peak RSS over a window: begin() resets the kernel's high-water mark
/// through /proc/self/clear_refs, end() reads VmHWM.
class RssWindow {
 public:
  void begin();
  /// Peak resident MiB since begin(); `base_mib` gets the RSS at begin().
  double end(double* base_mib) const;

 private:
  double base_mib_ = 0;
};

/// One line naming the host: nproc, kernel, build type, io_uring, and the
/// filesystem type under `data_dir`.
std::string host_fingerprint(const std::string& data_dir);

/// Single-thread memcpy and Crc64 rates over a 64 MiB buffer (MiB/s,
/// median of a few passes): the ceilings a write or verify path can reach.
double memcpy_mib_s();
double crc64_mib_s();

}  // namespace perfbench
