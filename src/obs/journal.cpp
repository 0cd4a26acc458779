#include "obs/journal.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>

#include "common/checksum.h"
#include "obs/json_out.h"
#include "obs/sampler.h"
#include "obs/rules.h"

namespace crfs::obs {
namespace {

std::string segment_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%08llu.crfsj",
                static_cast<unsigned long long>(index));
  return buf;
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// mkdir -p for the journal directory (usually `<mount>/.crfs/journal`, two
// levels below an existing root).
bool make_dirs(const std::string& path) {
  std::string partial;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    partial = path.substr(0, slash);
    pos = slash + 1;
    if (partial.empty()) continue;
    if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) return false;
    if (slash == path.size()) break;
  }
  return true;
}

// The crash path's process-global handler state: the armed journal, and
// the dispositions its handlers replaced.
constexpr int kFatalSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};
constexpr std::size_t kFatalCount = sizeof(kFatalSignals) / sizeof(kFatalSignals[0]);
std::atomic<const Journal*> g_crash_journal{nullptr};
struct sigaction g_previous[kFatalCount];

extern "C" void crfs_journal_signal_handler(int sig) {
  // Async-signal-safe only: open/write/close of a frame rendered before
  // the signal. Then hand the signal on to the disposition this handler
  // replaced (an application's or a sanitizer's handler, or SIG_DFL): the
  // re-raised signal stays blocked until this handler returns, and the
  // previous disposition takes it from there.
  if (const Journal* j = g_crash_journal.load(std::memory_order_acquire)) {
    (void)j->write_crash_frame();
  }
  for (std::size_t i = 0; i < kFatalCount; ++i) {
    if (kFatalSignals[i] == sig) ::sigaction(sig, &g_previous[i], nullptr);
  }
  ::raise(sig);
}

}  // namespace

void append_frame(std::string& out, FrameType type, std::uint64_t ts_ns,
                  std::string_view payload) {
  put_u32(out, kJournalMagic);
  put_u16(out, kJournalVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, ts_ns);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, Crc32::of(payload.data(), payload.size()));
  out.append(payload.data(), payload.size());
}

Journal::Journal(JournalOptions opts, Registry* registry)
    : opts_(std::move(opts)),
      crash_path_(opts_.dir + "/" + kPostmortemFile),
      fsync_ms_(opts_.fsync_ms) {
  if (registry != nullptr) {
    c_appends_ = &registry->counter("crfs.journal.appends");
    c_bytes_ = &registry->counter("crfs.journal.bytes");
    c_segments_ = &registry->counter("crfs.journal.segments");
    c_fsyncs_ = &registry->counter("crfs.journal.fsyncs");
    c_errors_ = &registry->counter("crfs.journal.errors");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!make_dirs(opts_.dir)) {
    error_ = "mkdir failed: " + std::string(std::strerror(errno));
    return;
  }
  // Resume past a previous incarnation's segments: new segments get fresh
  // indices, and the survivors count against the retention bound.
  std::uint64_t max_index = 0;
  if (DIR* d = ::opendir(opts_.dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      unsigned long long idx = 0;
      if (std::sscanf(e->d_name, "seg-%08llu.crfsj", &idx) == 1) {
        struct stat st {};
        const std::string path = opts_.dir + "/" + e->d_name;
        if (::stat(path.c_str(), &st) == 0) {
          live_.emplace_back(idx, static_cast<std::size_t>(st.st_size));
          max_index = std::max<std::uint64_t>(max_index, idx + 1);
        }
      }
    }
    ::closedir(d);
    std::sort(live_.begin(), live_.end());
  }
  // A crash file a previous incarnation left joins the segment sequence,
  // so the reader keeps it in time order ahead of this mount's frames.
  struct stat crash {};
  if (::stat(crash_path_.c_str(), &crash) == 0 &&
      ::rename(crash_path_.c_str(), (opts_.dir + "/" + segment_name(max_index)).c_str()) == 0) {
    live_.emplace_back(max_index++, static_cast<std::size_t>(crash.st_size));
  }
  seg_index_ = max_index;
  ok_ = open_segment_locked();
}

Journal::~Journal() { stop(); }

void Journal::set_postmortem_renderer(std::function<std::string()> render) {
  const bool arm = render != nullptr;
  {
    std::lock_guard<std::mutex> lock(render_mu_);
    renderer_ = std::move(render);
    if (arm && crash_buf_[0].empty()) {
      for (auto& b : crash_buf_) b.resize(kPostmortemFrameBytes);
    }
  }
  if (!arm) return;
  (void)refresh_postmortem(/*append=*/false);
  const Journal* expected = nullptr;
  if (handlers_armed_ ||
      !g_crash_journal.compare_exchange_strong(expected, this, std::memory_order_acq_rel)) {
    return;  // already armed, or another journal owns the handlers
  }
  handlers_armed_ = true;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crfs_journal_signal_handler;
  sigemptyset(&sa.sa_mask);
  for (std::size_t i = 0; i < kFatalCount; ++i) {
    ::sigaction(kFatalSignals[i], &sa, &g_previous[i]);
  }
}

void Journal::disarm_crash_path() {
  if (!handlers_armed_) return;
  handlers_armed_ = false;
  for (std::size_t i = 0; i < kFatalCount; ++i) {
    ::sigaction(kFatalSignals[i], &g_previous[i], nullptr);
  }
  g_crash_journal.store(nullptr, std::memory_order_release);
}

bool Journal::refresh_postmortem(bool append) {
  std::string doc;
  std::uint64_t ts = 0;
  {
    std::lock_guard<std::mutex> lock(render_mu_);
    if (!renderer_) return false;
    ts = now_ns();
    doc = renderer_();
    std::string frame;
    append_frame(frame, FrameType::kPostmortem, ts, doc);
    if (frame.size() <= kPostmortemFrameBytes) {
      // Fill the buffer the handler is not reading (0 when none is yet).
      const int idx = crash_published_.load(std::memory_order_relaxed) == 0 ? 1 : 0;
      std::memcpy(crash_buf_[idx].data(), frame.data(), frame.size());
      crash_len_[idx].store(frame.size(), std::memory_order_relaxed);
      crash_published_.store(idx, std::memory_order_release);
    }
  }
  if (append) {
    this->append(FrameType::kPostmortem, ts, doc);
    flush(ts, /*force_fsync=*/true);
  }
  return true;
}

bool Journal::write_crash_frame() const noexcept {
  const int idx = crash_published_.load(std::memory_order_acquire);
  if (idx < 0) return false;
  const int fd = ::open(crash_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const char* p = crash_buf_[idx].data();
  std::size_t left = crash_len_[idx].load(std::memory_order_relaxed);
  bool ok = true;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ::close(fd);
  return ok;
}

bool Journal::open_segment_locked() {
  const std::string path = opts_.dir + "/" + segment_name(seg_index_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    error_ = "open " + path + ": " + std::string(std::strerror(errno));
    return false;
  }
  seg_size_ = 0;
  live_.emplace_back(seg_index_, 0);
  segments_.fetch_add(1, std::memory_order_relaxed);
  if (c_segments_ != nullptr) c_segments_->add(1);
  // Every segment opens with the meta frame so retention (which deletes
  // whole old segments) can never strip the mount identity from the rest.
  if (!meta_json_.empty()) {
    std::string frame;
    append_frame(frame, FrameType::kMeta, meta_ts_ns_, meta_json_);
    if (!write_all_locked(frame.data(), frame.size())) return false;
  }
  return true;
}

bool Journal::write_all_locked(const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      errors_.fetch_add(1, std::memory_order_relaxed);
      if (c_errors_ != nullptr) c_errors_->add(1);
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  seg_size_ += size;
  if (!live_.empty()) live_.back().second = seg_size_;
  bytes_.fetch_add(size, std::memory_order_relaxed);
  if (c_bytes_ != nullptr) c_bytes_->add(size);
  return true;
}

void Journal::set_meta(std::string meta_json, std::uint64_t ts_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_json_ = std::move(meta_json);
  meta_ts_ns_ = ts_ns;
  if (!ok_) return;
  std::string frame;
  append_frame(frame, FrameType::kMeta, ts_ns, meta_json_);
  pending_ += frame;
}

void Journal::append(FrameType type, std::uint64_t ts_ns, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  append_frame(pending_, type, ts_ns, payload);
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (c_appends_ != nullptr) c_appends_->add(1);
}

void Journal::rotate_locked() {
  // A finished segment is sealed durable regardless of the cadence knob —
  // retention may be about to delete the only other copy of its range.
  ::fsync(fd_);
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  if (c_fsyncs_ != nullptr) c_fsyncs_->add(1);
  ::close(fd_);
  fd_ = -1;
  ++seg_index_;
  if (!open_segment_locked()) ok_ = false;
  enforce_retention_locked();
}

void Journal::enforce_retention_locked() {
  std::size_t total = 0;
  for (const auto& [idx, size] : live_) total += size;
  // Never unlink the current segment (live_.back()).
  while (live_.size() > 1 && total > opts_.max_bytes) {
    const auto [idx, size] = live_.front();
    const std::string path = opts_.dir + "/" + segment_name(idx);
    ::unlink(path.c_str());
    total -= size;
    live_.pop_front();
  }
}

void Journal::flush(std::uint64_t now_ns, bool force_fsync) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_ || fd_ < 0) return;
  if (!pending_.empty()) {
    std::string out;
    out.swap(pending_);
    if (seg_size_ >= opts_.segment_bytes) rotate_locked();
    if (!ok_ || fd_ < 0) return;
    if (!write_all_locked(out.data(), out.size())) return;
  }
  const unsigned cadence = fsync_ms();
  const bool cadence_due =
      cadence != 0 && now_ns - last_fsync_ns_ >= static_cast<std::uint64_t>(cadence) * 1'000'000;
  if (force_fsync || cadence_due) {
    ::fsync(fd_);
    last_fsync_ns_ = now_ns;
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    if (c_fsyncs_ != nullptr) c_fsyncs_->add(1);
  }
}

void Journal::start() {
  if (thread_.joinable() || !ok_) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { thread_main(); });
}

void Journal::thread_main() {
  const auto period = std::chrono::milliseconds(opts_.flush_ms == 0 ? 1 : opts_.flush_ms);
  std::unique_lock<std::mutex> lock(wake_mu_);
  while (!stop_requested_) {
    wake_cv_.wait_for(lock, period, [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    tick(now_ns());
    (void)refresh_postmortem(/*append=*/false);
    lock.lock();
  }
}

void Journal::stop() {
  disarm_crash_path();
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_requested_ = true;
    }
    wake_cv_.notify_all();
    thread_.join();
  }
  flush(now_ns(), /*force_fsync=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ok_ = false;
}

std::string Journal::to_json() const {
  std::string s = "{\"enabled\":true,\"dir\":\"";
  append_json_escaped(s, opts_.dir);  // opts_ is const: no lock needed
  s += "\"";
  s += ",\"segment_bytes\":" + std::to_string(opts_.segment_bytes);
  s += ",\"max_bytes\":" + std::to_string(opts_.max_bytes);
  s += ",\"fsync_ms\":" + std::to_string(fsync_ms());
  s += ",\"appends\":" + std::to_string(appends());
  s += ",\"bytes\":" + std::to_string(bytes_written());
  s += ",\"segments\":" + std::to_string(segments_created());
  s += ",\"fsyncs\":" + std::to_string(fsyncs());
  s += ",\"errors\":" + std::to_string(io_errors());
  s += "}";
  return s;
}

JournalReader::Result JournalReader::read_dir(const std::string& dir) {
  Result out;
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    out.error = "opendir " + dir + ": " + std::string(std::strerror(errno));
    return out;
  }
  while (const dirent* e = ::readdir(d)) {
    unsigned long long idx = 0;
    if (std::sscanf(e->d_name, "seg-%08llu.crfsj", &idx) == 1) {
      segments.emplace_back(idx, dir + "/" + e->d_name);
    }
  }
  ::closedir(d);
  if (segments.empty()) {
    out.error = "no journal segments under " + dir;
    return out;
  }
  std::sort(segments.begin(), segments.end());

  out.ok = true;
  std::uint64_t seq = 0;
  const auto decode = [&](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) return false;
    std::string data((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    const auto* p = reinterpret_cast<const unsigned char*>(data.data());
    std::size_t pos = 0;
    while (pos + kJournalHeaderBytes <= data.size()) {
      const std::uint32_t magic = get_u32(p + pos);
      const std::uint16_t version = get_u16(p + pos + 4);
      const std::uint16_t type = get_u16(p + pos + 6);
      const std::uint64_t ts_ns = get_u64(p + pos + 8);
      const std::uint32_t len = get_u32(p + pos + 16);
      const std::uint32_t crc = get_u32(p + pos + 20);
      if (magic != kJournalMagic || version != kJournalVersion ||
          pos + kJournalHeaderBytes + len > data.size()) {
        break;  // torn/corrupt: abandon the rest of this file
      }
      const char* payload = data.data() + pos + kJournalHeaderBytes;
      if (Crc32::of(payload, len) != crc) break;
      if (static_cast<FrameType>(type) == FrameType::kMeta) {
        out.meta_json.assign(payload, len);
      } else {
        JournalRecord rec;
        rec.type = static_cast<FrameType>(type);
        rec.ts_ns = ts_ns;
        rec.seq = seq++;
        rec.payload.assign(payload, len);
        out.records.push_back(std::move(rec));
      }
      pos += kJournalHeaderBytes + len;
    }
    if (pos < data.size()) {
      out.torn_tail = true;
      out.torn_bytes += data.size() - pos;
    }
    return true;
  };
  for (const auto& [idx, path] : segments) {
    if (decode(path)) ++out.segments;
  }
  // The crash file comes last: a fatal signal wrote it after every
  // segment frame this incarnation flushed.
  (void)decode(dir + "/" + kPostmortemFile);
  return out;
}

namespace {

std::uint64_t find_counter(const Registry::Snapshot& snap, std::string_view name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

std::string journal_sample_json(const Sample& s, const RuleInput& in) {
  std::string j = "{\"seq\":" + std::to_string(s.seq);
  j += ",\"ts_ns\":" + std::to_string(s.ts_ns);
  j += ",\"dt_ns\":" + std::to_string(s.dt_ns);
  j += ",\"pwrite_bytes\":" + std::to_string(find_counter(s.snap, "crfs.io.pwrite_bytes"));
  const HistogramSnapshot* pw = s.histogram("crfs.io.pwrite_ns");
  j += ",\"pwrites\":" + std::to_string(pw != nullptr ? pw->count : 0);
  const auto depth = s.gauge("crfs.queue.depth");
  j += ",\"queue_depth\":" + std::to_string(depth.value_or(0));
  const auto free_chunks = s.gauge("crfs.pool.free_chunks");
  j += ",\"free_chunks\":" + std::to_string(free_chunks.value_or(0));
  // Windowed SLO inputs (see rule_input): _n = observations in this tick
  // window; 0 means "no signal", and the offline replay skips it exactly
  // like the live monitor did.
  j += ",\"lag_p99_ns\":" + std::to_string(static_cast<std::uint64_t>(in.lag_p99_ns));
  j += ",\"lag_n\":" + std::to_string(in.lag_n);
  j += ",\"stall_ratio_ppm\":" + std::to_string(static_cast<std::uint64_t>(in.stall_ratio * 1e6));
  j += ",\"stall_n\":" + std::to_string(in.stall_n);
  j += ",\"ttfb_p99_ns\":" + std::to_string(static_cast<std::uint64_t>(in.ttfb_p99_ns));
  j += ",\"ttfb_n\":" + std::to_string(in.ttfb_n);
  j += "}";
  return j;
}

}  // namespace crfs::obs
