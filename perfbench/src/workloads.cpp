#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>

#include "backend/mem_backend.h"
#include "backend/posix_backend.h"
#include "backend/tiered_backend.h"
#include "backend/wrappers.h"
#include "blcr/checkpoint_set.h"
#include "blcr/checkpoint_writer.h"
#include "blcr/process_image.h"
#include "blcr/restart_reader.h"
#include "blcr/sinks.h"
#include "common/rng.h"
#include "crfs/crfs.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"
#include "harness.h"

namespace perfbench {
namespace {

using crfs::Status;
using crfs::blcr::CheckpointSet;

// Two ranks leave two of a 4-core host's cores to CRFS's IO threads.
constexpr unsigned kRanks = 2;
constexpr std::uint64_t kImageBytes = 64ull << 20;  // per rank, every workload
constexpr int kSetupRepeats = 5;                    // setup_s is their median
constexpr double kWaitLimitS = 30;                  // deadline on blocking waits
constexpr std::uint64_t kLayoutSeed = 2011;         // fixed BLCR image layout
constexpr std::size_t kKeepSpans = 100000;          // Chrome trace cap (~9 MB)

// Warm-up rounds run before the measured window and are not reported.
constexpr int kCkptWarmup = 3;
constexpr int kRestoreWarmup = 1;
constexpr int kTierWarmup = 2;  // one per slot, so every remote file exists

// tier_burst: the throttled remote drains an epoch's 2 x 64 MiB in about
// 0.56 s; a ~60 ms burst plus this think time keeps it busy ~60% of the time
// and lets each drain finish before the next burst starts.
constexpr std::size_t kRecordBytes = 256u << 10;
constexpr double kRemoteBytesPerS = 256.0 * kMiB;
constexpr std::chrono::microseconds kRemoteOpLatency{50};
constexpr double kTierGapS = 0.9;
// Each rank rewrites one of this many rotating checkpoint files, as a job
// that keeps its last two checkpoints does. Rewriting lets the remote
// MemBackend reuse the file's memory (truncate keeps its capacity). With a
// fresh file per epoch every drain faulted in 128 MiB of new pages: epochs
// took 716-772 ms to become durable and CPU per GiB swung 2.06-2.60 s over
// five runs on a 4-core VM, against 624-632 ms and 1.37-1.47 s rewriting.
constexpr unsigned kTierSlots = 2;

constexpr std::size_t kTiny = 4u << 10;
constexpr std::size_t kMedium = 128u << 10;

double mib_s(double bytes, double seconds) { return seconds > 0 ? bytes / kMiB / seconds : 0; }
double ms(double ns) { return ns / 1e6; }
double us(double ns) { return ns / 1e3; }
double ratio(double a, double b) { return b > 0 ? a / b : 0; }

// ---------------------------------------------------------------- tallies

/// Attempted and failed calls and verifications; safe from rank threads.
class Tally {
 public:
  bool check(const Status& st, const char* what) {
    attempted_ += 1;
    if (st.ok()) return true;
    fail(std::string(what) + ": " + st.error().to_string());
    return false;
  }
  template <typename T>
  bool check(const crfs::Result<T>& r, const char* what) {
    attempted_ += 1;
    if (r.ok()) return true;
    fail(std::string(what) + ": " + r.error().to_string());
    return false;
  }
  bool verify(bool ok, const std::string& what) {
    attempted_ += 1;
    if (!ok) fail("verification failed: " + what);
    return ok;
  }
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void fail(const std::string& why) {
    failed_ += 1;
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.empty()) first_error_ = why;
  }
  bool clean() const { return failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::string first_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::string first_error_;
};

/// Application call latencies, kept in traced phases only.
struct CallDetail {
  Samples call, tiny, medium, large, close;

  void add_call(std::size_t bytes, Ns d) {
    const auto v = static_cast<double>(d);
    call.add(v);
    (bytes < kTiny ? tiny : bytes <= kMedium ? medium : large).add(v);
  }
  void merge(const CallDetail& o) {
    call.merge(o.call);
    tiny.merge(o.tiny);
    medium.merge(o.medium);
    large.merge(o.large);
    close.merge(o.close);
  }
};

/// Plain copy of a TimedBackend's counters.
struct IoSnap {
  double write_calls = 0, write_bytes = 0, write_s = 0;
  double read_calls = 0, read_bytes = 0, read_s = 0;
  double fsync_calls = 0, fsync_s = 0;

  static IoSnap of(const TimedBackend* b) {
    IoSnap s;
    if (b == nullptr) return s;
    const IoCounts& c = b->counts();
    s.write_calls = static_cast<double>(c.write_calls);
    s.write_bytes = static_cast<double>(c.write_bytes);
    s.write_s = static_cast<double>(c.write_ns) / 1e9;
    s.read_calls = static_cast<double>(c.read_calls);
    s.read_bytes = static_cast<double>(c.read_bytes);
    s.read_s = static_cast<double>(c.read_ns) / 1e9;
    s.fsync_calls = static_cast<double>(c.fsync_calls);
    s.fsync_s = static_cast<double>(c.fsync_ns) / 1e9;
    return s;
  }
  double data_calls() const { return write_calls + read_calls; }
  double busy_s() const { return write_s + read_s + fsync_s; }
};

/// What one measured window saw.
struct Phase {
  Samples op_ns;                // per epoch or restart round
  std::uint64_t op_bytes = 0;   // bytes those ops moved
  std::uint64_t app_calls = 0;  // application write/read calls
  std::uint64_t fuse_requests = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_peak_mib = 0;
  double rss_base_mib = 0;
  // Traced phases only.
  CallDetail calls;
  Samples commit_ns, prune_ns;
  IoSnap io;      // the backend CRFS calls into (the stage under a tier)
  IoSnap remote;  // the tier's remote
  Tracer::SelfTable self;
};

/// Turns span recording on for a traced phase, off again when it ends.
class TraceScope {
 public:
  TraceScope(Tracer& tracer, bool on) : tracer_(tracer) { tracer_.set_enabled(on); }
  ~TraceScope() { tracer_.set_enabled(false); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer& tracer_;
};

/// Brackets a measured window: CPU, peak RSS, self-time table and wall.
class Window {
 public:
  Window(Tracer& tracer, Phase& phase) : tracer_(tracer), phase_(phase) {
    // Hand set-up's freed heap back first, so the peak reflects the window.
    malloc_trim(0);
    rss_.begin();
    cpu0_ = cpu_seconds();
    tracer_.begin_window(static_cast<int>(kRanks));
    t0_ = now_ns();
  }
  Ns start() const { return t0_; }
  void close() {
    phase_.wall_s = static_cast<double>(now_ns() - t0_) / 1e9;
    tracer_.end_window();
    phase_.cpu_s = cpu_seconds() - cpu0_;
    phase_.rss_peak_mib = rss_.end(&phase_.rss_base_mib);
    phase_.self = tracer_.self_table();
  }

 private:
  Tracer& tracer_;
  Phase& phase_;
  RssWindow rss_;
  double cpu0_ = 0;
  Ns t0_ = 0;
};

struct Ctx {
  const Options& opt;
  Tracer& tracer;
  Watchdog& wd;
  Tally& tally;
  Outcome& out;

  void note(const std::string& s) { out.notes.push_back(s); }
  void detail(std::string name, double v, std::string unit) {
    out.details.push_back({std::move(name), v, std::move(unit)});
  }
  void metric(std::string name, double v, std::string unit) {
    out.metrics.push_back({std::move(name), v, std::move(unit)});
  }
  /// The untraced window of a traced run gets half the time.
  double phase_seconds() const { return opt.trace ? opt.seconds / 2 : opt.seconds; }
};

/// The end-to-end metrics every workload reports (untraced runs).
void end_to_end(Ctx& cx, const Phase& p, const Samples& setup_s) {
  cx.metric("op_mib_s", mib_s(static_cast<double>(p.op_bytes), p.op_ns.sum() / 1e9), "MiB/s");
  cx.metric("op_ms_p50", ms(p.op_ns.median()), "ms");
  cx.metric("cpu_s_per_gib", ratio(p.cpu_s, static_cast<double>(p.op_bytes) / kGiB), "s/GiB");
  cx.metric("rss_peak_mib", p.rss_peak_mib, "MiB");
  cx.metric("setup_s", setup_s.median(), "s");
  double pct = 0;
  const double tail = p.op_ns.tail(&pct);
  char name[32];
  std::snprintf(name, sizeof(name), "op_ms_p%.0f", pct * 100);
  cx.detail(name, ms(tail), "ms");
  cx.detail("op_samples", static_cast<double>(p.op_ns.size()), "count");
  cx.detail("rss_above_setup_mib", p.rss_peak_mib - p.rss_base_mib, "MiB");
}

/// The per-layer metrics every workload reports (traced runs): `plain` is
/// the untraced window of the same run, for the tracing overhead.
void per_layer(Ctx& cx, const Phase& plain, const Phase& p, double native_mib_s,
               double verify_mib_s, double remote_busy_frac, double drain_mib_s) {
  const double app_bytes = static_cast<double>(p.op_bytes);
  cx.metric("fuse.requests_per_app_op",
            ratio(static_cast<double>(p.fuse_requests), static_cast<double>(p.app_calls)), "count");
  cx.metric("crfs.call.us_p50", us(p.calls.call.median()), "us");
  cx.metric("crfs.call.s", p.calls.call.sum() / 1e9, "s");
  cx.metric("crfs.call.large_us_p50", us(p.calls.large.median()), "us");
  cx.metric("crfs.close.ms_p50", ms(p.calls.close.median()), "ms");
  cx.metric("crfs.close.s", p.calls.close.sum() / 1e9, "s");
  cx.metric("backend.calls", p.io.data_calls() + p.io.fsync_calls, "count");
  cx.metric("backend.busy_s", p.io.busy_s(), "s");
  cx.metric("backend.app_ops_per_call", ratio(static_cast<double>(p.app_calls), p.io.data_calls()),
            "count");
  cx.metric("backend.bytes_per_app_byte", ratio(p.io.write_bytes + p.io.read_bytes, app_bytes),
            "ratio");
  cx.metric("backend.fsync_calls", p.io.fsync_calls, "count");
  cx.metric("backend.native_mib_s", native_mib_s, "MiB/s");
  cx.metric("blcr.verify.mib_s", verify_mib_s, "MiB/s");
  cx.metric("tier.remote.busy_frac", remote_busy_frac, "ratio");
  cx.metric("tier.drain_mib_s", drain_mib_s, "MiB/s");
  cx.metric("common.memcpy_mib_s", memcpy_mib_s(), "MiB/s");
  cx.metric("common.crc64_mib_s", crc64_mib_s(), "MiB/s");
  const double wall = p.self.wall_s;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const char* layer = layer_name(static_cast<Layer>(l));
    cx.metric(std::string("self_pct.") + layer, 100 * ratio(p.self.seconds[l], wall), "%");
    cx.detail(std::string("self_s.") + layer, p.self.seconds[l], "s");
  }
  cx.metric("self_pct.uncovered", 100 * ratio(p.self.uncovered_s, wall), "%");
  cx.detail("self_s.uncovered", p.self.uncovered_s, "s");
  cx.detail("self_s.wall", wall, "s");
  cx.metric("trace.overhead_pct", 100 * (ratio(p.op_ns.median(), plain.op_ns.median()) - 1), "%");
  cx.detail("trace.dropped_spans", static_cast<double>(cx.tracer.dropped()), "count");
}

// ------------------------------------------------------------------ mounts

struct Mount {
  std::shared_ptr<TimedBackend> timed;  // traced mounts over one backend
  std::unique_ptr<crfs::Crfs> fs;
  std::unique_ptr<crfs::FuseShim> shim;
};

/// Mounts CRFS with Config{} defaults over `backend`.
bool mount(Ctx& cx, std::shared_ptr<crfs::BackendFs> backend, Mount* m) {
  auto fs = crfs::Crfs::mount(std::move(backend), crfs::Config{});
  if (!cx.tally.check(fs, "mount")) return false;
  m->fs = std::move(fs).value();
  m->shim = std::make_unique<crfs::FuseShim>(*m->fs, crfs::FuseOptions{});
  return true;
}

bool mount_posix(Ctx& cx, const std::string& dir, bool traced, Mount* m) {
  auto posix = crfs::PosixBackend::create(dir);
  if (!cx.tally.check(posix, "posix backend")) return false;
  std::shared_ptr<crfs::BackendFs> backend = std::move(posix).value();
  if (traced) {
    m->timed = std::make_shared<TimedBackend>(backend, cx.tracer, "backend");
    backend = m->timed;
  }
  return mount(cx, backend, m);
}

void unmount(Ctx& cx, Mount& m) {
  Watchdog::Guard g(cx.wd, "crfs.unmount", kWaitLimitS);
  m.shim.reset();
  m.fs.reset();
}

std::string fresh_dir(const Ctx& cx, const std::string& name) {
  const std::string dir = cx.opt.workdir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------ BLCR streams

/// A rank's checkpoint as BLCR wrote it: the byte stream and write sizes.
struct Capture {
  std::vector<std::byte> bytes;
  std::vector<std::uint32_t> sizes;
  std::uint64_t payload_bytes = 0;
  std::uint64_t crc = 0;
};

class CaptureSink final : public crfs::blcr::ByteSink {
 public:
  explicit CaptureSink(Capture& c) : c_(c) {}
  Status write(std::span<const std::byte> d) override {
    c_.bytes.insert(c_.bytes.end(), d.begin(), d.end());
    c_.sizes.push_back(static_cast<std::uint32_t>(d.size()));
    return {};
  }

 private:
  Capture& c_;
};

/// Synthesizes each rank's image and captures its BLCR write stream. The
/// VMA layout, and so the write-size sequence, is one fixed image per rank;
/// the seed picks the memory contents. Layouts drawn from the seed moved
/// restore time by ~10% and peak RSS by ~50 MiB from seed to seed, which
/// would hide the changes the benchmark exists to see.
bool capture_ranks(Ctx& cx, RankCrew& crew, std::vector<Capture>* caps) {
  caps->assign(kRanks, Capture{});
  std::vector<Status> st(kRanks);
  crew.run([&](unsigned r) {
    auto image = crfs::blcr::ProcessImage::synthesize(1000 + r, kImageBytes, kLayoutSeed + r);
    crfs::Rng contents = crfs::Rng(cx.opt.seed).child(r);
    for (auto& vma : image.vmas) vma.content_seed = contents.next_u64();
    Capture& c = (*caps)[r];
    c.bytes.reserve(image.content_bytes() + (1u << 20));
    c.payload_bytes = image.content_bytes();
    CaptureSink sink(c);
    auto crc = crfs::blcr::CheckpointWriter::write_image(image, sink);
    if (crc.ok()) {
      c.crc = crc.value();
    } else {
      st[r] = crc.error();
    }
  });
  for (const Status& s : st) {
    if (!cx.tally.check(s, "capture")) return false;
  }
  return true;
}

std::uint64_t stream_bytes(const std::vector<Capture>& caps) {
  std::uint64_t n = 0;
  for (const auto& c : caps) n += c.bytes.size();
  return n;
}

std::string rank_path(const std::string& base, unsigned epoch, unsigned rank) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/epoch_%06u/rank_%u.ckpt", epoch, rank);
  return base + buf;
}

/// One coordinated checkpoint: begin_epoch, then per rank open, replay and
/// close, then record and commit. Returns the blocked time, 0 on failure.
Ns ckpt_epoch(Ctx& cx, CheckpointSet& set, RankCrew& crew, const std::vector<Capture>& caps,
              std::uint64_t trace_id, Phase* traced) {
  Tracer& tr = cx.tracer;
  const Ns t0 = now_ns();
  Span epoch_span(tr, Layer::kBench, "epoch", trace_id);
  std::optional<crfs::blcr::EpochWriter> ew;
  {
    Span s(tr, Layer::kBlcr, "begin_epoch");
    auto w = set.begin_epoch(kRanks);
    if (!cx.tally.check(w, "begin_epoch")) return 0;
    ew.emplace(std::move(w).value());
  }
  std::vector<CallDetail> per_rank(kRanks);
  std::atomic<bool> ranks_ok{true};
  crew.run([&](unsigned r) {
    Span rank_span(tr, Layer::kBench, "rank", trace_id, epoch_span.id());
    crfs::Result<crfs::File> f = crfs::Error{};
    {
      Span s(tr, Layer::kCrfs, "open");
      f = ew->open_rank(r);
    }
    if (!cx.tally.check(f, "open_rank")) {
      ranks_ok = false;
      return;
    }
    const Capture& c = caps[r];
    std::size_t off = 0;
    for (const std::uint32_t size : c.sizes) {
      Span s(tr, Layer::kCrfs, "write");
      const Status st = f.value().write({c.bytes.data() + off, size});
      const Ns d = s.end();
      if (traced != nullptr) per_rank[r].add_call(size, d);
      if (!st.ok()) {
        cx.tally.check(st, "write");
        ranks_ok = false;
        return;
      }
      off += size;
    }
    cx.tally.add_attempted(c.sizes.size());
    Status st;
    {
      Span s(tr, Layer::kCrfs, "close");
      Watchdog::Guard g(cx.wd, "crfs.close", kWaitLimitS);
      st = f.value().close();
      if (traced != nullptr) per_rank[r].close.add(static_cast<double>(s.end()));
    }
    if (!cx.tally.check(st, "close")) ranks_ok = false;
  });
  if (!ranks_ok) return 0;
  for (unsigned r = 0; r < kRanks; ++r) ew->record(r, caps[r].payload_bytes, caps[r].crc);
  {
    Span s(tr, Layer::kBlcr, "commit");
    Watchdog::Guard g(cx.wd, "blcr.commit", kWaitLimitS);
    const Status st = ew->commit();
    if (traced != nullptr) traced->commit_ns.add(static_cast<double>(s.end()));
    if (!cx.tally.check(st, "commit")) return 0;
  }
  epoch_span.end();
  if (traced != nullptr) {
    for (const auto& d : per_rank) traced->calls.merge(d);
  }
  return now_ns() - t0;
}

/// Replays each rank's capture straight into backend files, no CRFS: the
/// native-checkpoint ceiling, MiB/s (median of three).
double native_ckpt_mib_s(Ctx& cx, const std::string& dir, const std::vector<Capture>& caps,
                         RankCrew& crew) {
  auto posix = crfs::PosixBackend::create(dir);
  if (!cx.tally.check(posix, "posix backend")) return 0;
  crfs::BackendFs& be = *posix.value();
  Samples rates;
  for (int rep = 0; rep < 3; ++rep) {
    const Ns t0 = now_ns();
    crew.run([&](unsigned r) {
      auto f = be.open_file("native_rank_" + std::to_string(r),
                            {.create = true, .truncate = true, .write = true});
      if (!cx.tally.check(f, "native open")) return;
      crfs::blcr::BackendSink sink(be, f.value());
      std::size_t off = 0;
      for (const std::uint32_t size : caps[r].sizes) {
        if (!cx.tally.check(sink.write({caps[r].bytes.data() + off, size}), "native write")) break;
        off += size;
      }
      cx.tally.check(be.close_file(f.value()), "native close");
    });
    rates.add(mib_s(static_cast<double>(stream_bytes(caps)),
                    static_cast<double>(now_ns() - t0) / 1e9));
  }
  for (unsigned r = 0; r < kRanks; ++r) (void)be.unlink("native_rank_" + std::to_string(r));
  return rates.median();
}

/// Restarts every rank of `epoch` straight from the backend (paper §V-F,
/// no CRFS mounted), checks each CRC against set-up and compares each file
/// with the captured stream byte for byte. Returns the restart MiB/s.
double verify_from_backend(Ctx& cx, const std::string& dir, unsigned epoch,
                           const std::vector<Capture>& caps, RankCrew& crew) {
  auto posix = crfs::PosixBackend::create(dir);
  if (!cx.tally.check(posix, "posix backend")) return 0;
  crfs::BackendFs& be = *posix.value();
  std::vector<Ns> restart_end(kRanks, 0);
  const Ns t0 = now_ns();
  crew.run([&](unsigned r) {
    const std::string path = rank_path("ckpt", epoch, r);
    auto f = be.open_file(path, {});
    if (!cx.tally.check(f, "backend open")) return;
    crfs::blcr::BackendSource src(be, f.value());
    auto sum = crfs::blcr::RestartReader::read_image(src);
    restart_end[r] = now_ns();
    if (cx.tally.check(sum, "restart from backend")) {
      cx.tally.verify(sum.value().payload_crc == caps[r].crc,
                      path + ": CRC differs from set-up (restart from backend)");
    }
    std::vector<std::byte> got(caps[r].bytes.size() + 1);
    auto n = be.pread(f.value(), got, 0);
    cx.tally.verify(n.ok() && n.value() == caps[r].bytes.size() &&
                        std::memcmp(got.data(), caps[r].bytes.data(), n.value()) == 0,
                    path + ": bytes differ from the captured stream");
    (void)be.close_file(f.value());
  });
  const Ns end = *std::max_element(restart_end.begin(), restart_end.end());
  return end > t0 ? mib_s(static_cast<double>(stream_bytes(caps)),
                          static_cast<double>(end - t0) / 1e9)
                  : 0;
}

struct BlcrSetup {
  std::vector<Capture> caps;
  std::string dir;
  Samples setup_s;
};

/// Set-up shared by the BLCR workloads, repeated for a stable setup_s:
/// image synthesis, stream capture, a mount, and (for restore) the first
/// committed epoch. Keeps the last repetition's state.
bool blcr_setup(Ctx& cx, bool first_epoch, RankCrew& crew, BlcrSetup* s) {
  const int repeats = cx.opt.trace ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats; ++rep) {
    const Ns t0 = now_ns();
    if (!capture_ranks(cx, crew, &s->caps)) return false;
    s->dir = fresh_dir(cx, "blcr");
    Mount m;
    if (!mount_posix(cx, s->dir, false, &m)) return false;
    if (first_epoch) {
      auto set = CheckpointSet::open(*m.shim, "ckpt");
      if (!cx.tally.check(set, "checkpoint set")) return false;
      if (ckpt_epoch(cx, set.value(), crew, s->caps, 1, nullptr) == 0) return false;
    }
    unmount(cx, m);
    s->setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return true;
}

// -------------------------------------------------------------- ckpt_blcr

/// Closed loop of checkpoints for `seconds` after warm-up. Returns the
/// newest committed epoch, nothing on failure.
std::optional<unsigned> ckpt_phase(Ctx& cx, BlcrSetup& s, RankCrew& crew, bool traced,
                                   double seconds, Phase* p) {
  TraceScope scope(cx.tracer, traced);
  Mount m;
  if (!mount_posix(cx, s.dir, traced, &m)) return {};
  auto set = CheckpointSet::open(*m.shim, "ckpt");
  if (!cx.tally.check(set, "checkpoint set")) return {};
  std::uint64_t trace_id = 0;
  auto epoch = [&](bool measured) -> Ns {
    const Ns d = ckpt_epoch(cx, set.value(), crew, s.caps, ++trace_id,
                            measured && traced ? p : nullptr);
    if (d == 0) return 0;
    // Between epochs: keep storage bounded, as a job's checkpoint policy would.
    Span sp(cx.tracer, Layer::kBlcr, "prune", trace_id);
    auto pruned = set.value().prune(2);
    const Ns pd = sp.end();
    if (measured && traced) p->prune_ns.add(static_cast<double>(pd));
    return cx.tally.check(pruned, "prune") ? d : 0;
  };
  for (int i = 0; i < kCkptWarmup; ++i) {
    if (epoch(false) == 0) return {};
  }
  std::uint64_t writes = 0;
  for (const auto& c : s.caps) writes += c.sizes.size();
  if (m.timed) m.timed->reset_counts();
  const std::uint64_t req0 = m.shim->requests_routed();
  Window w(cx.tracer, *p);
  const Ns stop = w.start() + static_cast<Ns>(seconds * 1e9);
  while (now_ns() < stop) {
    const Ns d = epoch(true);
    if (d == 0) break;
    p->op_ns.add(static_cast<double>(d));
    p->op_bytes += stream_bytes(s.caps);
    p->app_calls += writes;
  }
  w.close();
  p->fuse_requests = m.shim->requests_routed() - req0;
  p->io = IoSnap::of(m.timed.get());
  auto latest = set.value().latest();
  unmount(cx, m);
  if (!cx.tally.clean() || !cx.tally.check(latest, "latest")) return {};
  return latest.value();
}

bool run_ckpt(Ctx& cx) {
  RankCrew crew(kRanks);
  BlcrSetup s;
  if (!blcr_setup(cx, false, crew, &s)) return false;
  Phase plain;
  std::optional<unsigned> last = ckpt_phase(cx, s, crew, false, cx.phase_seconds(), &plain);
  Phase traced;
  if (last && cx.opt.trace) last = ckpt_phase(cx, s, crew, true, cx.opt.seconds / 2, &traced);
  if (!last) return false;

  // Correctness, outside the timed region.
  const double native_restore = verify_from_backend(cx, s.dir, *last, s.caps, crew);
  const Phase& p = cx.opt.trace ? traced : plain;
  cx.detail("ckpt_mib_s", mib_s(static_cast<double>(p.op_bytes), p.op_ns.sum() / 1e9), "MiB/s");
  cx.detail("ckpt_epoch_ms_p50", ms(p.op_ns.median()), "ms");
  if (!cx.opt.trace) {
    end_to_end(cx, plain, s.setup_s);
  } else {
    const double native = native_ckpt_mib_s(cx, s.dir, s.caps, crew);
    per_layer(cx, plain, traced, native, 0, 0, 0);
    cx.detail("fuse.requests_per_app_write",
              ratio(static_cast<double>(p.fuse_requests), static_cast<double>(p.app_calls)), "count");
    cx.detail("crfs.write.tiny_us_p50", us(p.calls.tiny.median()), "us");
    cx.detail("crfs.write.medium_us_p50", us(p.calls.medium.median()), "us");
    cx.detail("crfs.write.large_us_p50", us(p.calls.large.median()), "us");
    cx.detail("crfs.write.tiny_share", ratio(static_cast<double>(p.calls.tiny.size()),
                                             static_cast<double>(p.calls.call.size())),
              "ratio");
    cx.detail("crfs.write.s", p.calls.call.sum() / 1e9, "s");
    cx.detail("blcr.commit.ms_p50", ms(p.commit_ns.median()), "ms");
    cx.detail("blcr.prune.ms_p50", ms(p.prune_ns.median()), "ms");
    cx.detail("backend.write_calls", p.io.write_calls, "count");
    cx.detail("backend.app_writes_per_write_call",
              ratio(static_cast<double>(p.app_calls), p.io.write_calls), "count");
    cx.detail("backend.write_busy_s", p.io.write_s, "s");
    cx.detail("backend.write_bytes_per_app_byte",
              ratio(p.io.write_bytes, static_cast<double>(p.op_bytes)), "ratio");
    cx.detail("backend.native_ckpt_mib_s", native, "MiB/s");
    cx.detail("backend.native_restore_mib_s", native_restore, "MiB/s");
  }
  std::filesystem::remove_all(s.dir);
  return true;
}

// ----------------------------------------------------------- restore_blcr

/// Times the reads RestartReader makes through CRFS and notes when the
/// first byte came back.
class TimedSource final : public crfs::blcr::ByteSource {
 public:
  TimedSource(crfs::blcr::ByteSource& inner, Tracer& tracer, CallDetail* detail)
      : inner_(inner), tracer_(tracer), detail_(detail) {}

  crfs::Result<std::size_t> read(std::span<std::byte> data) override {
    Span s(tracer_, Layer::kCrfs, "read");
    auto r = inner_.read(data);
    const Ns d = s.end();
    if (first_end_ == 0) first_end_ = now_ns();
    if (detail_ != nullptr) detail_->add_call(data.size(), d);
    calls_ += 1;
    if (r.ok()) bytes_ += r.value();
    return r;
  }
  Ns first_end() const { return first_end_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  crfs::blcr::ByteSource& inner_;
  Tracer& tracer_;
  CallDetail* detail_;
  Ns first_end_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Closed loop of verified restarts of the newest epoch, one thread per rank.
bool restore_phase(Ctx& cx, BlcrSetup& s, RankCrew& crew, bool traced, double seconds,
                   Phase* p, Samples* ttfb_ns, unsigned* epoch_out) {
  TraceScope scope(cx.tracer, traced);
  Mount m;
  if (!mount_posix(cx, s.dir, traced, &m)) return false;
  auto set = CheckpointSet::open(*m.shim, "ckpt");
  if (!cx.tally.check(set, "checkpoint set")) return false;
  auto latest = set.value().latest();
  if (!cx.tally.check(latest, "latest") || !latest.value()) return false;
  const unsigned epoch = *latest.value();
  *epoch_out = epoch;
  Tracer& tr = cx.tracer;
  std::uint64_t trace_id = 0;

  auto round = [&](bool measured) -> Ns {
    const Ns t0 = now_ns();
    Span round_span(tr, Layer::kBench, "round", ++trace_id);
    std::vector<CallDetail> per_rank(kRanks);
    std::vector<Ns> ttfb(kRanks, 0);
    std::vector<std::uint64_t> calls(kRanks, 0), bytes(kRanks, 0);
    std::atomic<bool> ok{true};
    crew.run([&](unsigned r) {
      Span rank_span(tr, Layer::kBench, "restore", trace_id, round_span.id());
      const Ns t_open = now_ns();
      crfs::Result<crfs::File> f = crfs::Error{};
      {
        Span sp(tr, Layer::kCrfs, "open");
        f = set.value().open_rank_for_restart(epoch, r);
      }
      if (!cx.tally.check(f, "open_rank_for_restart")) {
        ok = false;
        return;
      }
      crfs::blcr::CrfsFileSource inner(f.value());
      TimedSource src(inner, tr, measured && traced ? &per_rank[r] : nullptr);
      crfs::Result<crfs::blcr::RestartSummary> sum = crfs::Error{};
      {
        Span sp(tr, Layer::kBlcr, "read_image");
        sum = crfs::blcr::RestartReader::read_image(src);
      }
      ttfb[r] = src.first_end() - t_open;
      calls[r] = src.calls();
      bytes[r] = src.bytes();
      cx.tally.add_attempted(src.calls());
      if (!cx.tally.check(sum, "read_image") ||
          !cx.tally.verify(sum.value().payload_crc == s.caps[r].crc,
                           "rank " + std::to_string(r) + ": restart CRC differs from set-up")) {
        ok = false;
      }
      Span sp(tr, Layer::kCrfs, "close");
      Watchdog::Guard g(cx.wd, "crfs.close", kWaitLimitS);
      if (!cx.tally.check(f.value().close(), "close")) ok = false;
      if (measured && traced) per_rank[r].close.add(static_cast<double>(sp.end()));
    });
    round_span.end();
    if (!ok) return 0;
    if (measured) {
      for (unsigned r = 0; r < kRanks; ++r) {
        ttfb_ns->add(static_cast<double>(ttfb[r]));
        p->app_calls += calls[r];
        p->op_bytes += bytes[r];
        p->calls.merge(per_rank[r]);
      }
    }
    return now_ns() - t0;
  };

  for (int i = 0; i < kRestoreWarmup; ++i) {
    if (round(false) == 0) return false;
  }
  if (m.timed) m.timed->reset_counts();
  const std::uint64_t req0 = m.shim->requests_routed();
  Window w(tr, *p);
  const Ns stop = w.start() + static_cast<Ns>(seconds * 1e9);
  while (now_ns() < stop) {
    const Ns d = round(true);
    if (d == 0) break;
    p->op_ns.add(static_cast<double>(d));
  }
  w.close();
  p->fuse_requests = m.shim->requests_routed() - req0;
  p->io = IoSnap::of(m.timed.get());
  unmount(cx, m);
  return cx.tally.clean();
}

bool run_restore(Ctx& cx) {
  RankCrew crew(kRanks);
  BlcrSetup s;
  if (!blcr_setup(cx, true, crew, &s)) return false;
  Phase plain, traced;
  Samples ttfb_plain, ttfb_traced;
  unsigned epoch = 0;
  bool ok = restore_phase(cx, s, crew, false, cx.phase_seconds(), &plain, &ttfb_plain, &epoch);
  if (ok && cx.opt.trace) {
    ok = restore_phase(cx, s, crew, true, cx.opt.seconds / 2, &traced, &ttfb_traced, &epoch);
  }
  if (!ok) return false;

  const double native_restore = verify_from_backend(cx, s.dir, epoch, s.caps, crew);
  const Phase& p = cx.opt.trace ? traced : plain;
  const Samples& ttfb = cx.opt.trace ? ttfb_traced : ttfb_plain;
  cx.detail("restore_mib_s", mib_s(static_cast<double>(p.op_bytes), p.op_ns.sum() / 1e9), "MiB/s");
  cx.detail("restore_ttfb_us_p50", us(ttfb.median()), "us");
  if (!cx.opt.trace) {
    end_to_end(cx, plain, s.setup_s);
  } else {
    const double blcr_s = p.self.seconds[static_cast<std::size_t>(Layer::kBlcr)];
    // Self time is per track; both ranks verify their own image.
    const double verify_mib = mib_s(static_cast<double>(p.op_bytes) / kRanks, blcr_s);
    per_layer(cx, plain, traced, native_restore, verify_mib, 0, 0);
    cx.detail("crfs.read.calls", static_cast<double>(p.app_calls), "count");
    cx.detail("crfs.read.us_p50", us(p.calls.call.median()), "us");
    cx.detail("crfs.read.s", p.calls.call.sum() / 1e9, "s");
    cx.detail("backend.read_calls", p.io.read_calls, "count");
    cx.detail("backend.read_busy_s", p.io.read_s, "s");
    cx.detail("backend.read_bytes_per_app_byte",
              ratio(p.io.read_bytes, static_cast<double>(p.op_bytes)), "ratio");
    cx.detail("blcr.verify.s", blcr_s, "s");
    cx.detail("backend.native_restore_mib_s", native_restore, "MiB/s");
  }
  std::filesystem::remove_all(s.dir);
  return true;
}

// -------------------------------------------------------------- tier_burst

/// TieredBackend(stage = PosixBackend, remote = Throttled(MemBackend))
/// under a CRFS mount: a node-local page-cache stage in front of a slow
/// remote. A MemBackend stage was tried first; its per-file vector growth
/// and first-touch page faults made burst times swing 140-210 ms from run to
/// run on a 4-core VM, against 53-61 ms for the page-cache stage. Traced
/// rigs time the stage and the remote inside the tier; the tier itself
/// stays the mount's backend, because Crfs::mount finds it by dynamic_cast
/// to wire epoch sealing.
struct TierRig {
  std::shared_ptr<crfs::MemBackend> remote_mem;
  std::shared_ptr<TimedBackend> stage_timed;
  std::shared_ptr<TimedBackend> remote_timed;
  Mount m;

  crfs::TieredBackend& tier() { return *m.fs->tiered_backend(); }
};

bool tier_mount(Ctx& cx, bool traced, TierRig* rig) {
  auto posix = crfs::PosixBackend::create(fresh_dir(cx, "stage"));
  if (!cx.tally.check(posix, "posix backend")) return false;
  std::shared_ptr<crfs::BackendFs> stage = std::move(posix).value();
  rig->remote_mem = std::make_shared<crfs::MemBackend>();
  std::shared_ptr<crfs::BackendFs> remote = std::make_shared<crfs::ThrottledBackend>(
      rig->remote_mem, kRemoteBytesPerS, kRemoteOpLatency);
  if (traced) {
    rig->stage_timed = std::make_shared<TimedBackend>(stage, cx.tracer, "stage");
    rig->remote_timed = std::make_shared<TimedBackend>(remote, cx.tracer, "remote");
    stage = rig->stage_timed;
    remote = rig->remote_timed;
  }
  crfs::TieredOptions topt;
  topt.stage_cap = 2 * kRanks * kImageBytes;  // two epochs of data
  auto tier = std::make_shared<crfs::TieredBackend>(stage, remote, topt);
  if (!mount(cx, tier, &rig->m)) return false;
  return cx.tally.verify(rig->m.fs->tiered_backend() != nullptr, "mount did not detect the tier");
}

std::string burst_path(std::uint64_t epoch, unsigned rank) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "slot%u_r%u.dat", static_cast<unsigned>(epoch % kTierSlots), rank);
  return buf;
}

std::string burst_label(std::uint64_t epoch) { return "burst-" + std::to_string(epoch); }

/// Each 256 KiB record starts with (epoch, rank, record) so a file from the
/// wrong epoch or offset cannot verify.
void stamp(std::byte* record, std::uint64_t epoch, unsigned rank, std::uint64_t index) {
  const std::uint64_t words[2] = {epoch, (static_cast<std::uint64_t>(rank) << 32) | index};
  std::memcpy(record, words, sizeof(words));
}

struct TierState {
  std::vector<std::vector<std::byte>> bufs;  // per rank, stamped in place
  std::vector<std::byte> check;              // read-back buffer
  Samples setup_s;
};

/// Compares a remote file with what the rank wrote in `epoch`.
bool remote_matches(TierRig& rig, TierState& ts, std::uint64_t epoch, unsigned rank) {
  auto f = rig.remote_mem->open_file(burst_path(epoch, rank), {});
  if (!f.ok()) return false;
  auto n = rig.remote_mem->pread(f.value(), ts.check, 0);
  (void)rig.remote_mem->close_file(f.value());
  if (!n.ok() || n.value() != kImageBytes) return false;
  const std::vector<std::byte>& want = ts.bufs[rank];
  std::byte head[16];
  for (std::uint64_t i = 0; i < kImageBytes / kRecordBytes; ++i) {
    const std::byte* got = ts.check.data() + i * kRecordBytes;
    stamp(head, epoch, rank, i);
    if (std::memcmp(got, head, sizeof(head)) != 0 ||
        std::memcmp(got + sizeof(head), want.data() + i * kRecordBytes + sizeof(head),
                    kRecordBytes - sizeof(head)) != 0) {
      return false;
    }
  }
  return true;
}

/// Verifies epochs that are remote-durable (all of them when `all`), oldest
/// first, noting when each became durable. Their files stay for the next
/// epoch in the same slot to rewrite.
void retire_durable(Ctx& cx, TierRig& rig, TierState& ts, std::deque<std::uint64_t>& pending,
                    std::map<std::uint64_t, Ns>* durable_at, bool all) {
  std::map<std::string, Ns> drain_end;
  for (const auto& rec : rig.m.fs->epochs()) drain_end[rec.label] = rec.drain_end_ns;
  while (!pending.empty()) {
    const std::uint64_t e = pending.front();
    const auto it = drain_end.find(burst_label(e));
    const bool durable = it != drain_end.end() && it->second != 0;
    if (!durable) {
      if (all) cx.tally.verify(false, burst_label(e) + " never became remote-durable");
      if (!all || it == drain_end.end()) return;
    }
    if (durable) (*durable_at)[e] = it->second;
    for (unsigned r = 0; r < kRanks; ++r) {
      cx.tally.verify(remote_matches(rig, ts, e, r),
                      burst_path(e, r) + ": remote bytes differ from what was written");
    }
    pending.pop_front();
  }
}

/// Waits until the epoch that last wrote `epoch`'s slot is verified, so a
/// rewrite never overtakes its drain. False when it never became durable.
bool slot_free(Ctx& cx, TierRig& rig, TierState& ts, std::deque<std::uint64_t>& pending,
               std::map<std::uint64_t, Ns>* durable_at, std::uint64_t epoch) {
  const Ns deadline = now_ns() + static_cast<Ns>(kWaitLimitS * 1e9);
  while (!pending.empty() && pending.front() + kTierSlots <= epoch) {
    retire_durable(cx, rig, ts, pending, durable_at, false);
    if (pending.empty() || pending.front() + kTierSlots > epoch) break;
    if (now_ns() > deadline) {
      return cx.tally.verify(false, burst_label(pending.front()) + " never became remote-durable");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// One burst: epoch_begin, each rank streams its 64 MiB in 256 KiB records
/// to its slot's file (truncated) and closes it, epoch_end. Returns the
/// blocked time.
Ns tier_epoch(Ctx& cx, TierRig& rig, TierState& ts, RankCrew& crew, std::uint64_t epoch,
              CallDetail* detail, Ns* last_close) {
  Tracer& tr = cx.tracer;
  const Ns t0 = now_ns();
  Span epoch_span(tr, Layer::kBench, "epoch", epoch);
  {
    Span s(tr, Layer::kCrfs, "epoch_begin");
    if (!cx.tally.check(rig.m.fs->epoch_begin(burst_label(epoch)), "epoch_begin")) return 0;
  }
  std::vector<CallDetail> per_rank(kRanks);
  std::vector<Ns> close_end(kRanks, 0);
  std::atomic<bool> ok{true};
  crew.run([&](unsigned r) {
    Span rank_span(tr, Layer::kBench, "rank", epoch, epoch_span.id());
    crfs::Result<crfs::File> f = crfs::Error{};
    {
      Span s(tr, Layer::kCrfs, "open");
      f = crfs::File::open(*rig.m.shim, burst_path(epoch, r),
                           {.create = true, .truncate = true, .write = true});
    }
    if (!cx.tally.check(f, "open")) {
      ok = false;
      return;
    }
    std::byte* buf = ts.bufs[r].data();
    const std::uint64_t records = kImageBytes / kRecordBytes;
    for (std::uint64_t i = 0; i < records; ++i) {
      std::byte* rec = buf + i * kRecordBytes;
      stamp(rec, epoch, r, i);
      Span s(tr, Layer::kCrfs, "write");
      const Status st = f.value().write({rec, kRecordBytes});
      const Ns d = s.end();
      if (detail != nullptr) per_rank[r].add_call(kRecordBytes, d);
      if (!st.ok()) {
        cx.tally.check(st, "write");
        ok = false;
        return;
      }
    }
    cx.tally.add_attempted(records);
    Span s(tr, Layer::kCrfs, "close");
    Watchdog::Guard g(cx.wd, "crfs.close", kWaitLimitS);
    if (!cx.tally.check(f.value().close(), "close")) ok = false;
    close_end[r] = now_ns();
    if (detail != nullptr) per_rank[r].close.add(static_cast<double>(s.end()));
  });
  if (!ok) return 0;
  {
    Span s(tr, Layer::kCrfs, "epoch_end");
    if (!cx.tally.check(rig.m.fs->epoch_end(), "epoch_end")) return 0;
  }
  epoch_span.end();
  *last_close = *std::max_element(close_end.begin(), close_end.end());
  if (detail != nullptr) {
    for (const auto& d : per_rank) detail->merge(d);
  }
  return now_ns() - t0;
}

bool tier_flush(Ctx& cx, TierRig& rig) {
  Span s(cx.tracer, Layer::kTier, "flush");
  Watchdog::Guard g(cx.wd, "tier.flush", kWaitLimitS);
  return cx.tally.check(rig.tier().flush(), "tier flush");
}

struct TierResult {
  Samples burst_ns;  // blocked time per epoch: epoch_begin to epoch_end
  Samples durable_lag_ns;
  double durable_mib_s = 0;
  double drain_mib_s = 0;
  double stall_s = 0;
  double remote_busy_frac = 0;
};

/// Periodic bursts with a fixed think time for `seconds`, then flush(). The
/// op is an epoch until it is remote-durable (epoch_begin to the ledger's
/// drain end). The blocked burst alone is not the op: its 128 MiB of fresh
/// stage page cache, allocated after the think time, took 23-55 ms from run
/// to run on a VM that hands free guest pages back to its host.
bool tier_phase(Ctx& cx, TierState& ts, RankCrew& crew, bool traced, double seconds, Phase* p,
                TierResult* res) {
  TraceScope scope(cx.tracer, traced);
  TierRig rig;
  if (!tier_mount(cx, traced, &rig)) return false;
  std::deque<std::uint64_t> pending;
  std::map<std::uint64_t, Ns> durable_at;
  std::map<std::uint64_t, Ns> last_close;
  std::map<std::uint64_t, Ns> began;
  std::uint64_t epoch = 0;
  Ns lc = 0;
  for (int i = 0; i < kTierWarmup; ++i) {
    if (!slot_free(cx, rig, ts, pending, &durable_at, epoch + 1)) return false;
    if (tier_epoch(cx, rig, ts, crew, ++epoch, nullptr, &lc) == 0) return false;
    pending.push_back(epoch);
  }
  if (!tier_flush(cx, rig)) return false;
  retire_durable(cx, rig, ts, pending, &durable_at, true);

  if (rig.stage_timed) rig.stage_timed->reset_counts();
  if (rig.remote_timed) rig.remote_timed->reset_counts();
  const crfs::TierStats before = rig.tier().tier_stats();
  const std::uint64_t req0 = rig.m.shim->requests_routed();
  const std::uint64_t first_measured = epoch + 1;
  Window w(cx.tracer, *p);
  const Ns stop = w.start() + static_cast<Ns>(seconds * 1e9);
  while (now_ns() < stop) {
    if (!slot_free(cx, rig, ts, pending, &durable_at, epoch + 1)) break;
    const Ns t0 = now_ns();
    const Ns d = tier_epoch(cx, rig, ts, crew, ++epoch, traced ? &p->calls : nullptr, &lc);
    if (d == 0) break;
    const Ns ended = now_ns();
    began[epoch] = t0;
    res->burst_ns.add(static_cast<double>(d));
    p->op_bytes += kRanks * kImageBytes;
    p->app_calls += kRanks * (kImageBytes / kRecordBytes);
    pending.push_back(epoch);
    last_close[epoch] = lc;
    // Think time; retiring durable epochs keeps the remote's memory bounded.
    retire_durable(cx, rig, ts, pending, &durable_at, false);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ended + static_cast<Ns>(kTierGapS * 1e9))));
  }
  const bool flushed = tier_flush(cx, rig);
  w.close();
  p->fuse_requests = rig.m.shim->requests_routed() - req0;
  if (!flushed) return false;
  res->durable_mib_s = mib_s(static_cast<double>(p->op_bytes), p->wall_s);

  // Correctness after flush(): every staged byte is on the remote and
  // every remote file matches what was written.
  const crfs::TierStats after = rig.tier().tier_stats();
  cx.tally.verify(after.stage_used == 0 && after.drained_bytes == after.staged_bytes,
                  "staged bytes remain after flush()");
  retire_durable(cx, rig, ts, pending, &durable_at, true);

  double drained = 0, drain_s = 0;
  for (const auto& rec : rig.m.fs->epochs()) {
    if (rec.label.rfind("burst-", 0) != 0) continue;
    const std::uint64_t e = std::stoull(rec.label.substr(6));
    if (e < first_measured) continue;
    drained += static_cast<double>(rec.drained_bytes);
    drain_s += static_cast<double>(rec.drain_ns) / 1e9;
  }
  for (const auto& [e, close_ns] : last_close) {
    const auto it = durable_at.find(e);
    if (it != durable_at.end() && it->second > close_ns) {
      res->durable_lag_ns.add(static_cast<double>(it->second - close_ns));
      p->op_ns.add(static_cast<double>(it->second - began[e]));
    }
  }
  cx.tally.verify(p->op_ns.size() == last_close.size(), "an epoch has no remote-durable time");
  res->drain_mib_s = mib_s(drained, drain_s);
  res->stall_s = static_cast<double>(after.stall_ns - before.stall_ns) / 1e9;
  p->io = IoSnap::of(rig.stage_timed.get());
  p->remote = IoSnap::of(rig.remote_timed.get());
  res->remote_busy_frac = ratio(p->remote.busy_s(), p->wall_s);
  unmount(cx, rig.m);
  return cx.tally.clean();
}

/// Remote-only ceiling: each rank streams its records straight into a
/// throttled remote and fsyncs, no CRFS and no stage.
double native_tier_mib_s(Ctx& cx, TierState& ts, RankCrew& crew) {
  auto mem = std::make_shared<crfs::MemBackend>();
  crfs::ThrottledBackend remote(mem, kRemoteBytesPerS, kRemoteOpLatency);
  const Ns t0 = now_ns();
  crew.run([&](unsigned r) {
    auto f = remote.open_file(burst_path(0, r), {.create = true, .truncate = true, .write = true});
    if (!cx.tally.check(f, "native open")) return;
    for (std::uint64_t i = 0; i < kImageBytes / kRecordBytes; ++i) {
      const std::byte* rec = ts.bufs[r].data() + i * kRecordBytes;
      if (!cx.tally.check(remote.pwrite(f.value(), {rec, kRecordBytes}, i * kRecordBytes),
                          "native write")) {
        break;
      }
    }
    cx.tally.check(remote.fsync(f.value()), "native fsync");
    (void)remote.close_file(f.value());
  });
  return mib_s(static_cast<double>(kRanks * kImageBytes), static_cast<double>(now_ns() - t0) / 1e9);
}

bool run_tier(Ctx& cx) {
  RankCrew crew(kRanks);
  TierState ts;
  const int repeats = cx.opt.trace ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats; ++rep) {
    const Ns t0 = now_ns();
    ts.bufs.assign(kRanks, std::vector<std::byte>(kImageBytes));
    crew.run([&](unsigned r) {
      crfs::Rng rng = crfs::Rng(cx.opt.seed).child(r);
      std::byte* b = ts.bufs[r].data();
      for (std::uint64_t i = 0; i < kImageBytes; i += 8) {
        const std::uint64_t v = rng.next_u64();
        std::memcpy(b + i, &v, 8);
      }
    });
    ts.check.assign(kImageBytes + 1, std::byte{0});
    TierRig rig;
    if (!tier_mount(cx, false, &rig)) return false;
    unmount(cx, rig.m);
    ts.setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Phase plain, traced;
  TierResult rplain, rtraced;
  bool ok = tier_phase(cx, ts, crew, false, cx.phase_seconds(), &plain, &rplain);
  if (ok && cx.opt.trace) ok = tier_phase(cx, ts, crew, true, cx.opt.seconds / 2, &traced, &rtraced);
  if (!ok) return false;

  const Phase& p = cx.opt.trace ? traced : plain;
  const TierResult& r = cx.opt.trace ? rtraced : rplain;
  cx.detail("ckpt_mib_s", mib_s(static_cast<double>(p.op_bytes), r.burst_ns.sum() / 1e9), "MiB/s");
  cx.detail("ckpt_epoch_ms_p50", ms(r.burst_ns.median()), "ms");
  cx.detail("durable_lag_ms_p50", ms(r.durable_lag_ns.median()), "ms");
  cx.detail("durable_mib_s", r.durable_mib_s, "MiB/s");
  cx.detail("tier.drain_mib_s", r.drain_mib_s, "MiB/s");
  cx.detail("tier.stall_s", r.stall_s, "s");
  if (!cx.opt.trace) {
    end_to_end(cx, plain, ts.setup_s);
  } else {
    const double native = native_tier_mib_s(cx, ts, crew);
    per_layer(cx, plain, traced, native, 0, r.remote_busy_frac, r.drain_mib_s);
    cx.detail("crfs.write.large_us_p50", us(p.calls.large.median()), "us");
    cx.detail("crfs.write.s", p.calls.call.sum() / 1e9, "s");
    cx.detail("tier.stage.write_busy_s", p.io.write_s, "s");
    cx.detail("tier.remote.write_busy_s", p.remote.write_s, "s");
    cx.detail("tier.remote.busy_frac", r.remote_busy_frac, "ratio");
    cx.detail("tier.remote.fsync_calls", p.remote.fsync_calls, "count");
    cx.detail("backend.native_remote_mib_s", native, "MiB/s");
  }
  std::filesystem::remove_all(cx.opt.workdir + "/stage");
  return true;
}

}  // namespace

bool run_workload(const Options& opt, Outcome* out, std::string* error) {
  using Runner = bool (*)(Ctx&);
  const std::map<std::string, Runner> runners = {
      {"ckpt_blcr", run_ckpt}, {"restore_blcr", run_restore}, {"tier_burst", run_tier}};
  const auto it = runners.find(opt.workload);
  if (it == runners.end()) {
    *error = "unknown workload '" + opt.workload + "' (ckpt_blcr, restore_blcr, tier_burst)";
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) {
    *error = "cannot create " + opt.workdir + ": " + ec.message();
    return false;
  }
  Tracer tracer(kKeepSpans);
  Watchdog wd;
  Tally tally;
  Ctx cx{opt, tracer, wd, tally, *out};
  cx.note("host " + host_fingerprint(opt.workdir));
  const bool ran = it->second(cx);
  if (opt.trace && !opt.trace_out.empty()) {
    if (tracer.write_chrome(opt.trace_out)) {
      cx.note("chrome trace written to " + opt.trace_out);
    } else {
      cx.note("could not write " + opt.trace_out);
    }
  }
  out->attempted = std::max<std::uint64_t>(tally.attempted(), 1);
  out->failed = tally.failed();
  out->correct = ran && tally.clean();
  cx.detail("fail_frac", ratio(static_cast<double>(out->failed), static_cast<double>(out->attempted)),
            "ratio");
  if (!tally.first_error().empty()) cx.note("first failure: " + tally.first_error());
  return true;
}

}  // namespace perfbench
