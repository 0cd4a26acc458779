#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/checksum.h"

namespace perfbench {

// ------------------------------------------------------------------ Samples

double Samples::sum() const {
  double s = 0;
  for (double v : v_) s += v;
  return s;
}

double Samples::percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = p * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::tail(double* p_out) const {
  for (double p : {0.90, 0.75}) {
    if (static_cast<double>(v_.size()) * (1.0 - p) >= 10.0) {
      *p_out = p;
      return percentile(p);
    }
  }
  *p_out = 0.5;
  return median();
}

// ------------------------------------------------------------------- Tracer

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kCrfs: return "crfs";
    case Layer::kBlcr: return "blcr";
    case Layer::kBackend: return "backend";
    case Layer::kTier: return "tier";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

struct Frame {
  std::uint32_t id;
  std::uint64_t trace_id;
  Layer layer;
  Ns start;
  Ns child_ns;
};

struct ThreadState {
  int track = -1;
  std::uint32_t tid = 0;
  int depth = 0;
  std::array<Frame, 32> frames{};
};

thread_local ThreadState t_state;
std::atomic<std::uint32_t> g_next_tid{100};

std::uint32_t thread_tid() {
  if (t_state.tid == 0) t_state.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_state.tid;
}

}  // namespace

void Tracer::bind_track(int track) {
  t_state.track = track;
  t_state.tid = static_cast<std::uint32_t>(track + 1);
}

void Tracer::begin_window(int tracks) {
  tracks_ = std::clamp(tracks, 1, kMaxTracks);
  for (auto& row : self_ns_) row.fill(0);
  covered_ns_.fill(0);
  window_start_ = now_ns();
  window_end_ = window_start_;
  counting_.store(true);
}

void Tracer::end_window() {
  counting_.store(false);
  window_end_ = now_ns();
}

Tracer::SelfTable Tracer::self_table() const {
  SelfTable t;
  t.wall_s = static_cast<double>(window_end_ - window_start_) / 1e9;
  for (int k = 0; k < tracks_; ++k) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      t.seconds[l] += static_cast<double>(self_ns_[k][l]) / 1e9 / tracks_;
    }
    const Ns covered = std::min(covered_ns_[k], window_end_ - window_start_);
    t.uncovered_s += static_cast<double>(window_end_ - window_start_ - covered) / 1e9 / tracks_;
  }
  return t;
}

void Tracer::keep(const Record& r) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kept_.size() < keep_cap_) {
    kept_.push_back(r);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  Ns t0 = ~Ns{0};
  for (const Record& r : kept_) t0 = std::min(t0, r.start);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Record& r = kept_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,\"trace_id\":%llu}}%s\n",
                 r.name, layer_name(r.layer), r.tid, static_cast<double>(r.start - t0) / 1e3,
                 static_cast<double>(r.end - r.start) / 1e3, r.id, r.parent,
                 static_cast<unsigned long long>(r.trace_id), i + 1 < kept_.size() ? "," : "");
  }
  std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped_.load()));
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------------- Span

Span::Span(Tracer& tracer, Layer layer, const char* name, std::uint64_t trace_id,
           std::uint32_t parent) {
  if (!tracer.enabled()) return;
  ThreadState& ts = t_state;
  if (ts.depth >= static_cast<int>(ts.frames.size())) return;
  tracer_ = &tracer;
  id_ = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  const Frame* up = ts.depth > 0 ? &ts.frames[ts.depth - 1] : nullptr;
  if (trace_id == 0 && up != nullptr) trace_id = up->trace_id;
  if (parent == 0 && up != nullptr) parent = up->id;
  start_ = now_ns();
  ts.frames[ts.depth++] = Frame{id_, trace_id, layer, start_, 0};
  // The record is completed in end(); stash what only the ctor knows.
  name_ = name;
  parent_ = parent;
}

Ns Span::end() {
  if (tracer_ == nullptr) return 0;
  Tracer& tr = *tracer_;
  tracer_ = nullptr;
  const Ns stop = now_ns();
  ThreadState& ts = t_state;
  const Frame frame = ts.frames[--ts.depth];
  const Ns dur = stop - frame.start;
  if (ts.depth > 0) {
    ts.frames[ts.depth - 1].child_ns += dur;
  }
  if (ts.track >= 0 && tr.counting_.load(std::memory_order_relaxed)) {
    const Ns self = dur > frame.child_ns ? dur - frame.child_ns : 0;
    tr.self_ns_[ts.track][static_cast<std::size_t>(frame.layer)] += self;
    if (ts.depth == 0) tr.covered_ns_[ts.track] += dur;
  }
  tr.keep(Tracer::Record{name_, frame.layer, thread_tid(), frame.id, parent_, frame.trace_id,
                         frame.start, stop});
  return dur;
}

// ------------------------------------------------------------- TimedBackend

void IoCounts::reset() {
  write_calls = 0;
  write_bytes = 0;
  write_ns = 0;
  read_calls = 0;
  read_bytes = 0;
  read_ns = 0;
  fsync_calls = 0;
  fsync_ns = 0;
}

namespace {
const char* intern(const std::string& s) {
  // Span names must outlive the recorder; the handful of tags are leaked.
  return (new std::string(s))->c_str();
}
}  // namespace

TimedBackend::TimedBackend(std::shared_ptr<crfs::BackendFs> inner, Tracer& tracer,
                           const char* tag)
    : inner_(std::move(inner)),
      tracer_(tracer),
      write_name_(intern(std::string(tag) + ".pwrite")),
      read_name_(intern(std::string(tag) + ".pread")),
      fsync_name_(intern(std::string(tag) + ".fsync")) {}

crfs::Status TimedBackend::pwrite(crfs::BackendFile f, std::span<const std::byte> d,
                                  std::uint64_t off) {
  Span s(tracer_, Layer::kBackend, write_name_);
  crfs::Status st = inner_->pwrite(f, d, off);
  counts_.write_ns += s.end();
  counts_.write_calls += 1;
  counts_.write_bytes += d.size();
  return st;
}

crfs::Status TimedBackend::pwritev(crfs::BackendFile f, std::span<const crfs::BackendIoVec> iov,
                                   std::uint64_t off) {
  Span s(tracer_, Layer::kBackend, write_name_);
  std::uint64_t bytes = 0;
  for (const auto& seg : iov) bytes += seg.len;
  crfs::Status st = inner_->pwritev(f, iov, off);
  counts_.write_ns += s.end();
  counts_.write_calls += 1;
  counts_.write_bytes += bytes;
  return st;
}

crfs::Result<std::size_t> TimedBackend::pread(crfs::BackendFile f, std::span<std::byte> d,
                                              std::uint64_t off) {
  Span s(tracer_, Layer::kBackend, read_name_);
  auto r = inner_->pread(f, d, off);
  counts_.read_ns += s.end();
  counts_.read_calls += 1;
  if (r.ok()) counts_.read_bytes += r.value();
  return r;
}

crfs::Result<std::size_t> TimedBackend::preadv(crfs::BackendFile f,
                                               std::span<const crfs::BackendMutIoVec> iov,
                                               std::uint64_t off) {
  Span s(tracer_, Layer::kBackend, read_name_);
  auto r = inner_->preadv(f, iov, off);
  counts_.read_ns += s.end();
  counts_.read_calls += 1;
  if (r.ok()) counts_.read_bytes += r.value();
  return r;
}

crfs::Status TimedBackend::fsync(crfs::BackendFile f) {
  Span s(tracer_, Layer::kBackend, fsync_name_);
  crfs::Status st = inner_->fsync(f);
  counts_.fsync_ns += s.end();
  counts_.fsync_calls += 1;
  return st;
}

// ----------------------------------------------------------------- Watchdog

Watchdog::Watchdog() : thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; })) {
    const Ns now = now_ns();
    for (const Slot& s : slots_) {
      const Ns deadline = s.deadline.load();
      if (deadline != 0 && now > deadline) {
        std::fprintf(stderr, "perfbench: deadline exceeded while blocked in %s\n",
                     s.what.load());
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  }
}

Watchdog::Guard::Guard(Watchdog& wd, const char* what, double seconds) : wd_(wd) {
  thread_local int t_slot = -1;
  if (t_slot < 0) t_slot = wd.next_slot_.fetch_add(1) % kSlots;
  slot_ = t_slot;
  wd_.slots_[slot_].what.store(what);
  wd_.slots_[slot_].deadline.store(now_ns() + static_cast<Ns>(seconds * 1e9));
}

Watchdog::Guard::~Guard() { wd_.slots_[slot_].deadline.store(0); }

// ----------------------------------------------------------------- RankCrew

RankCrew::RankCrew(unsigned ranks) : ranks_(ranks) {
  Tracer::bind_track(0);
  for (unsigned r = 1; r < ranks_; ++r) threads_.emplace_back([this, r] { worker(r); });
}

RankCrew::~RankCrew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void RankCrew::run(const std::function<void(unsigned)>& fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    generation_ += 1;
    pending_ = ranks_ - 1;
  }
  start_cv_.notify_all();
  fn(0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  fn_ = nullptr;
}

void RankCrew::worker(unsigned rank) {
  Tracer::bind_track(static_cast<int>(rank));
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
    }
    (*fn)(rank);
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

// -------------------------------------------------------- resource probes

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {
double status_mib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtod(line.c_str() + klen, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}
}  // namespace

void RssWindow::begin() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  base_mib_ = status_mib("VmRSS:");
}

double RssWindow::end(double* base_mib) const {
  *base_mib = base_mib_;
  return status_mib("VmHWM:");
}

std::string host_fingerprint(const std::string& data_dir) {
  utsname u{};
  uname(&u);
  // io_uring present: the kernel accepts io_uring_setup for a tiny ring.
  bool uring = false;
#ifdef __NR_io_uring_setup
  {
    unsigned char params[120] = {};
    const long fd = ::syscall(__NR_io_uring_setup, 2, params);
    if (fd >= 0) {
      uring = true;
      ::close(static_cast<int>(fd));
    }
  }
#endif
  const char* fs = "other";
  struct statfs sfs{};
  if (::statfs(data_dir.c_str(), &sfs) == 0) {
    switch (static_cast<unsigned long>(sfs.f_type)) {
      case 0x01021994UL: fs = "tmpfs"; break;
      case 0xEF53UL: fs = "ext4"; break;
      case 0x794c7630UL: fs = "overlayfs"; break;
      case 0x58465342UL: fs = "xfs"; break;
      case 0x9123683EUL: fs = "btrfs"; break;
      default: break;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "nproc=%u kernel=%s build=%s io_uring=%s data_dir=%s data_fs=%s",
                std::thread::hardware_concurrency(), u.release, PERFBENCH_BUILD_TYPE,
                uring ? "yes" : "no", data_dir.c_str(), fs);
  return buf;
}

namespace {
template <typename Fn>
double median_rate(std::size_t bytes, int passes, Fn&& fn) {
  Samples rates;
  for (int i = 0; i < passes; ++i) {
    const Ns t0 = now_ns();
    fn();
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    rates.add(static_cast<double>(bytes) / kMiB / s);
  }
  return rates.median();
}
constexpr std::size_t kCeilingBytes = 64u << 20;
}  // namespace

double memcpy_mib_s() {
  std::vector<std::byte> src(kCeilingBytes, std::byte{0x5a});
  std::vector<std::byte> dst(kCeilingBytes);
  std::memcpy(dst.data(), src.data(), kCeilingBytes);  // fault the pages in
  return median_rate(kCeilingBytes, 5, [&] {
    std::memcpy(dst.data(), src.data(), kCeilingBytes);
    asm volatile("" : : "r"(dst.data()) : "memory");
  });
}

double crc64_mib_s() {
  std::vector<std::byte> buf(kCeilingBytes);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i * 131u);
  volatile std::uint64_t sink = 0;
  return median_rate(kCeilingBytes, 3, [&] { sink = sink + crfs::Crc64::of(buf.data(), buf.size()); });
}

}  // namespace perfbench
