#include "backend/tiered_backend.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <optional>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/posix_backend.h"
#include "crfs/config.h"

namespace crfs {

namespace {

/// Bytes per drain step: one stage read (or mapping) and one remote pwrite.
constexpr std::size_t kStepBytes = 4 * 1024 * 1024;

/// A read-only mapping of staged bytes, straight from the stage's page
/// cache. Empty when mmap fails; the caller then falls back to pread.
class StageMap {
 public:
  StageMap(int fd, std::uint64_t offset, std::size_t len) {
    static const std::uint64_t page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t base = offset - offset % page;
    map_len_ = static_cast<std::size_t>(offset - base) + len;
    void* p = ::mmap(nullptr, map_len_, PROT_READ, MAP_SHARED | MAP_POPULATE, fd,
                     static_cast<off_t>(base));
    if (p == MAP_FAILED) return;
    map_ = p;
    view_ = {static_cast<const std::byte*>(p) + (offset - base), len};
  }
  ~StageMap() {
    if (map_ != nullptr) ::munmap(map_, map_len_);
  }
  StageMap(const StageMap&) = delete;
  StageMap& operator=(const StageMap&) = delete;

  std::span<const std::byte> view() const { return view_; }

 private:
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::span<const std::byte> view_;
};

/// "a/b/c" with no leading slash; "" for the root. Matches MemBackend's
/// normalization closely enough for the staged-name union in list_dir.
std::string normalize(const std::string& path) {
  std::string out;
  out.reserve(path.size());
  for (char c : path) {
    if (c == '/' && (out.empty() || out.back() == '/')) continue;
    out += c;
  }
  while (!out.empty() && out.back() == '/') out.pop_back();
  return out;
}

/// The directory of `path`, normalized; "" for a file in the root.
std::string parent_of(const std::string& path) {
  const std::string norm = normalize(path);
  const std::size_t slash = norm.rfind('/');
  return slash == std::string::npos ? std::string() : norm.substr(0, slash);
}

/// "<pid>-<n>-" for the n-th tier of this process: stage file names never
/// collide between tiers that share a stage directory.
std::string make_stage_prefix() {
  static std::atomic<unsigned> tiers{0};
  return std::to_string(::getpid()) + "-" + std::to_string(tiers.fetch_add(1)) + "-";
}

}  // namespace

TieredBackend::TieredBackend(std::shared_ptr<BackendFs> stage,
                             std::shared_ptr<BackendFs> remote, TieredOptions opts)
    : stage_(std::move(stage)),
      remote_(std::move(remote)),
      opts_(opts),
      drain_mbps_cap_(opts.drain_mbps),
      drain_parallel_(opts.drain_parallel == 0 ? 1 : opts.drain_parallel),
      stage_prefix_(make_stage_prefix()) {
  drain_thread_ = std::thread([this] { drain_loop(); });
}

TieredBackend::~TieredBackend() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (open_unit_bytes_ > 0) seal_locked(0, obs::now_ns());
    shutdown_ = true;
  }
  drain_cv_.notify_all();
  space_cv_.notify_all();
  idle_cv_.notify_all();
  if (drain_thread_.joinable()) drain_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();

  std::unique_lock<std::mutex> lock(mu_);
  std::vector<StageFile> doomed = std::move(spares_);
  const auto drop_stage = [&](FileState& fs) {
    if (!fs.stage) return;
    // Bytes the drain abandoned (a dead remote) stay on the stage.
    if (fs.extents.empty() || fs.unlinked) {
      doomed.push_back(std::move(*fs.stage));
    } else {
      (void)stage_->close_file(fs.stage->handle);
    }
    fs.stage.reset();
  };
  for (auto& [path, fs] : files_) {
    drop_stage(*fs);
    if (fs->remote_read_open) (void)remote_->close_file(fs->remote_read);
  }
  for (auto& [handle, open] : handles_) drop_stage(*open.file);  // retired, still open
  files_.clear();
  for (auto& [path, handle] : remote_write_) (void)remote_->close_file(handle);
  remote_write_.clear();
  lock.unlock();
  free_stage_files(doomed);
}

void TieredBackend::bind_obs(obs::Registry* registry, obs::EventBuffer* events) {
  registry_ = registry;
  events_ = events;
  if (registry_ == nullptr) return;
  c_staged_bytes_ = &registry_->counter("crfs.tier.staged_bytes");
  c_drained_bytes_ = &registry_->counter("crfs.tier.drained_bytes");
  c_spill_bytes_ = &registry_->counter("crfs.tier.spill_bytes");
  c_evictions_ = &registry_->counter("crfs.tier.evictions");
  c_stalls_ = &registry_->counter("crfs.tier.stalls");
  c_stall_ns_ = &registry_->counter("crfs.tier.stall_ns");
  c_retries_ = &registry_->counter("crfs.tier.retries");
  h_drain_pwrite_ = &registry_->histogram("crfs.tier.drain_pwrite_ns");
  registry_->gauge_fn("crfs.tier.stage_used", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(stage_used_);
  });
  registry_->gauge_fn("crfs.tier.stage_cap",
                      [this] { return static_cast<std::int64_t>(opts_.stage_cap); });
  registry_->gauge_fn("crfs.tier.pending_units", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(sealed_.size());
  });
  registry_->gauge_fn("crfs.tier.drain_lag_ns", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t oldest = oldest_pending_seal_ns_locked();
    if (oldest == 0) return std::int64_t{0};
    const std::uint64_t now = obs::now_ns();
    return static_cast<std::int64_t>(now > oldest ? now - oldest : 0);
  });
}

void TieredBackend::set_drain_listener(DrainListener fn) {
  std::lock_guard<std::mutex> lock(mu_);
  drain_listener_ = std::move(fn);
}

void TieredBackend::set_drain_mbps(double mbps) {
  drain_mbps_cap_.store(mbps < 0.0 ? 0.0 : mbps, std::memory_order_relaxed);
}

void TieredBackend::set_drain_parallel(unsigned n) {
  std::lock_guard<std::mutex> lock(mu_);
  drain_parallel_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  // A wider drain starts its new streams on work already waiting.
  if (!workers_.empty()) wake_streams_locked(true);
}

std::uint64_t TieredBackend::oldest_pending_seal_ns_locked() const {
  return sealed_.empty() ? 0 : sealed_.front().seal_ns;
}

std::shared_ptr<TieredBackend::FileState> TieredBackend::file_for(
    const std::string& path, std::unique_lock<std::mutex>&) {
  auto it = files_.find(path);
  if (it != files_.end()) return it->second;
  auto fs = std::make_shared<FileState>();
  fs->path = path;
  files_.emplace(path, fs);
  return fs;
}

Result<TieredBackend::OpenHandle> TieredBackend::resolve(BackendFile file,
                                                         const char* op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(file);
  if (it == handles_.end()) {
    return Error{EBADF, std::string(op) + " on unknown tiered handle"};
  }
  return it->second;
}

Status TieredBackend::take_stage_locked(FileState& fs) {
  if (fs.stage) return {};
  if (!spares_.empty()) {
    // The newest spare: its pages are the likeliest to be resident. Its
    // old bytes stay; no extent of `fs` covers them yet.
    fs.stage = std::move(spares_.back());
    spares_.pop_back();
    spare_bytes_ -= fs.stage->size;
    return {};
  }
  StageFile sf{stage_prefix_ + std::to_string(next_stage_id_++) + ".stage", 0, 0};
  // Truncate a leftover of an earlier process that had the same pid.
  auto opened = stage_->open_file(sf.name, {.create = true, .truncate = true, .write = true});
  if (!opened.ok()) return opened.error();
  sf.handle = opened.value();
  fs.stage = std::move(sf);
  return {};
}

void TieredBackend::trim_spares_locked(std::vector<StageFile>& doomed) {
  const std::uint64_t budget = opts_.stage_cap > 0 ? opts_.stage_cap : stage_peak_;
  auto keep = spares_.begin();
  while (keep != spares_.end() && spare_bytes_ + stage_used_ > budget) {
    spare_bytes_ -= keep->size;
    doomed.push_back(std::move(*keep++));
  }
  spares_.erase(spares_.begin(), keep);
}

void TieredBackend::free_stage_files(const std::vector<StageFile>& doomed) {
  for (const StageFile& sf : doomed) {
    (void)stage_->close_file(sf.handle);
    (void)stage_->unlink(sf.name);
  }
}

Status TieredBackend::ensure_remote_read_locked(FileState& fs) {
  if (fs.remote_read_open) return {};
  auto opened = remote_->open_file(fs.path, {.write = false});
  if (!opened.ok()) return opened.error();
  fs.remote_read = opened.value();
  fs.remote_read_open = true;
  return {};
}

std::uint64_t TieredBackend::trim_extents_locked(FileState& fs, std::uint64_t offset,
                                                 std::uint64_t len) {
  if (len == 0) return 0;
  const std::uint64_t end =
      offset > ~std::uint64_t{0} - len ? ~std::uint64_t{0} : offset + len;
  std::uint64_t freed = 0;
  auto it = fs.extents.lower_bound(offset);
  if (it != fs.extents.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > offset) it = prev;
  }
  while (it != fs.extents.end() && it->first < end) {
    const std::uint64_t e_off = it->first;
    const Extent e = it->second;
    const std::uint64_t e_end = e_off + e.len;
    it = fs.extents.erase(it);
    // Keep the non-overlapped head/tail pieces (same unit, write id and
    // copied bit: their bytes did not change).
    if (e_off < offset) {
      Extent head = e;
      head.len = offset - e_off;
      fs.extents.emplace(e_off, head);
    }
    if (e_end > end) {
      Extent tail = e;
      tail.len = e_end - end;
      it = fs.extents.emplace(end, tail).first;
      ++it;
    }
    const std::uint64_t cut =
        std::min(e_end, end) - std::max(e_off, offset);
    freed += cut;
    if (e.unit == open_unit_seq_ && open_unit_bytes_ >= cut) open_unit_bytes_ -= cut;
    auto share = fs.units.find(e.unit);
    if (share != fs.units.end()) {
      share->second.staged -= cut;
      if (!e.copied) share->second.uncopied -= cut;
      if (share->second.staged == 0) {
        fs.units.erase(share);
        // The sealed front may be durable now, with no stream turn left.
        if (e.unit != open_unit_seq_) drain_cv_.notify_all();
      }
    }
  }
  stage_used_ -= std::min(stage_used_, freed);
  return freed;
}

void TieredBackend::seal_locked(std::uint64_t epoch_id, std::uint64_t now_ns) {
  if (open_unit_bytes_ == 0) return;
  sealed_.push_back(DrainUnit{open_unit_seq_, epoch_id, open_unit_bytes_, now_ns,
                              open_unit_first_copy_ns_});
  open_unit_seq_ = next_unit_seq_++;
  open_unit_bytes_ = 0;
  open_unit_first_copy_ns_ = 0;
  // The sealed unit's streams copy whatever the eager pass did not; the
  // new open unit holds nothing yet.
  eager_stopped_ = false;
  t_units_sealed_.fetch_add(1, std::memory_order_relaxed);
  drain_cv_.notify_all();
}

void TieredBackend::seal_epoch(std::uint64_t epoch_id) {
  std::unique_lock<std::mutex> lock(mu_);
  seal_locked(epoch_id, obs::now_ns());
}

void TieredBackend::release_file_locked(const std::shared_ptr<FileState>& fs,
                                        std::vector<StageFile>& doomed) {
  // A write still in flight would land in the next owner's stage file.
  if (fs->open_count > 0 || fs->inflight > 0) return;
  // What was written through a retired file's handles goes with the last.
  if (fs->unlinked && trim_extents_locked(*fs, 0, ~std::uint64_t{0}) > 0) {
    space_cv_.notify_all();
  }
  if (!fs->extents.empty()) return;
  if (fs->stage) {  // back to the pool, pages intact
    spare_bytes_ += fs->stage->size;
    spares_.push_back(std::move(*fs->stage));
    fs->stage.reset();
    trim_spares_locked(doomed);
  }
  if (fs->remote_read_open) {
    (void)remote_->close_file(fs->remote_read);
    fs->remote_read_open = false;
  }
  // A retired file left files_ when it retired; its path may be another's.
  if (!fs->unlinked) files_.erase(fs->path);
}

Result<BackendFile> TieredBackend::remote_writer_locked(const FileState& fs) {
  auto wit = remote_write_.find(fs.path);
  if (wit != remote_write_.end()) return wit->second;
  auto opened =
      remote_->open_file(fs.path, {.create = true, .truncate = false, .write = true});
  if (!opened.ok()) return opened.error();
  remote_write_.emplace(fs.path, opened.value());
  return opened.value();
}

void TieredBackend::wait_drain_io_locked(std::unique_lock<std::mutex>& lock,
                                         const std::function<bool()>& quiet) {
  fence_waiters_ += 1;
  copy_cv_.wait(lock, quiet);
  if (--fence_waiters_ == 0) work_cv_.notify_all();
}

Result<BackendFile> TieredBackend::open_file(const std::string& path, OpenFlags flags) {
  std::unique_lock<std::mutex> lock(mu_);
  auto existing = files_.find(path);
  bool exists = existing != files_.end();
  std::uint64_t remote_size = 0;
  bool remote_exists = false;
  // O_TRUNC must see the remote copy even of a path still staged here,
  // or the remote keeps its old tail.
  if (!exists || !flags.write || flags.truncate) {
    lock.unlock();
    auto st = remote_->stat(path);
    lock.lock();
    if (st.ok() && !st.value().is_dir) {
      remote_exists = true;
      remote_size = st.value().size;
    }
    existing = files_.find(path);
    exists = existing != files_.end() || remote_exists;
  }
  if (!exists && !(flags.write && flags.create)) {
    return Error{ENOENT, "tiered open: no such file: " + path};
  }
  const std::string dir = exists ? std::string() : parent_of(path);
  if (!dir.empty()) {
    // A new file drains into its directory on the remote: it must exist.
    lock.unlock();
    auto st = remote_->stat(dir);
    lock.lock();
    if (!st.ok() || !st.value().is_dir) {
      return Error{ENOENT, "tiered open: no such directory: " + dir};
    }
  }

  auto fs = file_for(path, lock);
  if (remote_exists && fs->extents.empty() && fs->open_count == 0) {
    fs->size = std::max(fs->size, remote_size);
  }
  if (flags.write && flags.truncate) {
    // The remote shrinks under the lock, after in-flight drain IO: no copy
    // can then write truncated bytes back (see truncate()). The stage file
    // stays as it is: with no extent left, no read reaches its bytes.
    wait_drain_io_locked(lock, [&] { return !fs->drain_io; });
    trim_extents_locked(*fs, 0, ~std::uint64_t{0});
    fs->size = 0;
    // The stat above ran unlocked, before the fence: a drain copy may
    // have created the remote file since, so its writer counts too.
    if (remote_exists || remote_write_.count(fs->path) != 0) {
      auto rw = remote_writer_locked(*fs);
      if (rw.ok()) (void)remote_->truncate(rw.value(), 0);
    }
    space_cv_.notify_all();
  }
  fs->open_count += 1;
  const BackendFile handle = next_handle_++;
  handles_.emplace(handle, OpenHandle{fs, flags.write});
  return handle;
}

Status TieredBackend::close_file(BackendFile file) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = handles_.find(file);
  if (it == handles_.end()) return Error{EBADF, "close of unknown tiered handle"};
  auto fs = it->second.file;
  handles_.erase(it);
  if (fs->open_count > 0) fs->open_count -= 1;
  std::vector<StageFile> doomed;
  release_file_locked(fs, doomed);
  lock.unlock();
  free_stage_files(doomed);
  return {};
}

Status TieredBackend::pwrite(BackendFile file, std::span<const std::byte> data,
                             std::uint64_t offset) {
  auto handle = resolve(file, "pwrite");
  if (!handle.ok()) return handle.error();
  if (!handle.value().writable) return Error{EBADF, "pwrite on read-only tiered handle"};
  auto fs = handle.value().file;
  const std::uint64_t len = data.size();
  if (len == 0) return {};

  std::unique_lock<std::mutex> lock(mu_);

  // A retired file (unlinked, or replaced by a rename) keeps what is
  // written through its open handles to itself: staged so those handles
  // read it back, never drained, dropped at the last close. It takes no
  // part in spill-through or the stage_cap wait, since only its own
  // handles can free its bytes.

  // Spill-through: a single write larger than the whole cap can never be
  // staged. Wait out any staged overlap (so the drain cannot later clobber
  // the fresher remote bytes), then write directly to the remote.
  if (!fs->unlinked && opts_.stage_cap > 0 && len > opts_.stage_cap) {
    for (;;) {
      std::uint64_t overlap = 0;
      bool in_open_unit = false;
      auto it = fs->extents.lower_bound(offset);
      if (it != fs->extents.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > offset) it = prev;
      }
      for (; it != fs->extents.end() && it->first < offset + len; ++it) {
        overlap += it->second.len;
        in_open_unit |= it->second.unit == open_unit_seq_;
      }
      if (overlap == 0 || shutdown_ || fs->unlinked) break;
      if (in_open_unit) seal_locked(0, obs::now_ns());
      idle_cv_.wait(lock);
    }
    if (!fs->unlinked) {  // else retired while waiting: staged below
      auto rw = remote_writer_locked(*fs);
      if (!rw.ok()) return rw.error();
      fs->size = std::max(fs->size, offset + len);
      lock.unlock();
      CRFS_RETURN_IF_ERROR(remote_->pwrite(rw.value(), data, offset));
      t_spill_bytes_.fetch_add(len, std::memory_order_relaxed);
      if (c_spill_bytes_ != nullptr) c_spill_bytes_->add(len);
      return {};
    }
  }

  // Backpressure: block until eviction frees room for the net new bytes.
  if (!fs->unlinked && opts_.stage_cap > 0) {
    bool stalled = false;
    std::uint64_t stall_start = 0;
    while (!fs->unlinked) {
      std::uint64_t replaced = 0;
      auto it = fs->extents.lower_bound(offset);
      if (it != fs->extents.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > offset) it = prev;
      }
      for (; it != fs->extents.end() && it->first < offset + len; ++it) {
        const std::uint64_t e_end = it->first + it->second.len;
        replaced += std::min(e_end, offset + len) - std::max(it->first, offset);
      }
      if (stage_used_ - replaced + len <= opts_.stage_cap) break;
      if (shutdown_) return Error{EIO, "tiered backend shutting down"};
      // Nothing sealed to drain? Auto-seal the open unit so the drain can
      // make progress — a tiny cap degrades to write-through, not deadlock.
      if (sealed_.empty() && open_unit_bytes_ > 0) seal_locked(0, obs::now_ns());
      if (!stalled) {
        stalled = true;
        stall_start = obs::now_ns();
        t_stalls_.fetch_add(1, std::memory_order_relaxed);
        if (c_stalls_ != nullptr) c_stalls_->add(1);
      }
      space_cv_.wait(lock);
    }
    if (stalled) {
      const std::uint64_t waited = obs::now_ns() - stall_start;
      t_stall_ns_.fetch_add(waited, std::memory_order_relaxed);
      if (c_stall_ns_ != nullptr) c_stall_ns_->add(waited);
    }
  }

  CRFS_RETURN_IF_ERROR(take_stage_locked(*fs));
  const BackendFile sf = fs->stage->handle;
  fs->inflight += 1;
  lock.unlock();

  const Status wrote = stage_->pwrite(sf, data, offset);

  lock.lock();
  fs->inflight -= 1;
  std::vector<StageFile> doomed;
  if (wrote.ok()) {
    fs->stage->size = std::max(fs->stage->size, offset + len);
    trim_extents_locked(*fs, offset, len);
    fs->size = std::max(fs->size, offset + len);
    stage_used_ += len;
    stage_peak_ = std::max(stage_peak_, stage_used_);
    trim_spares_locked(doomed);
    t_staged_bytes_.fetch_add(len, std::memory_order_relaxed);
    if (c_staged_bytes_ != nullptr) c_staged_bytes_->add(len);
    if (fs->unlinked) {  // retired, maybe while this write ran
      fs->extents.emplace(offset, Extent{len, kRetiredUnit, 0, false});
    } else {
      const std::uint64_t write_id = next_write_id_++;
      fs->extents.emplace(offset, Extent{len, open_unit_seq_, write_id, false});
      UnitShare& share = fs->units[open_unit_seq_];
      share.staged += len;
      share.uncopied += len;
      open_unit_bytes_ += len;
      // Copy early: an idle stream claims the file (its own stream, if it
      // has one, claims it again after its step).
      if (sealed_.empty() && !eager_stopped_ && !fs->drain_io &&
          streams_ < drain_parallel_.load(std::memory_order_relaxed)) {
        wake_streams_locked(false);
      }
    }
  }
  // Its last handle closed while this write ran: release it now.
  if (fs->open_count == 0) release_file_locked(fs, doomed);
  lock.unlock();
  free_stage_files(doomed);
  return wrote;
}

Result<std::size_t> TieredBackend::pread(BackendFile file, std::span<std::byte> data,
                                         std::uint64_t offset) {
  auto handle = resolve(file, "pread");
  if (!handle.ok()) return handle.error();
  auto fs = handle.value().file;

  struct Seg {
    bool staged;
    std::uint64_t offset;
    std::size_t buf_at;
    std::size_t len;
  };
  std::vector<Seg> segs;
  BackendFile stage_file = 0;
  BackendFile remote_file = 0;
  bool want_remote = false;
  std::size_t effective = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (offset >= fs->size) return std::size_t{0};
    effective = static_cast<std::size_t>(
        std::min<std::uint64_t>(data.size(), fs->size - offset));
    const std::uint64_t end = offset + effective;
    std::uint64_t cur = offset;
    auto it = fs->extents.lower_bound(offset);
    if (it != fs->extents.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.len > offset) it = prev;
    }
    while (cur < end) {
      if (it == fs->extents.end() || it->first >= end) {
        segs.push_back({false, cur, static_cast<std::size_t>(cur - offset),
                        static_cast<std::size_t>(end - cur)});
        want_remote = true;
        break;
      }
      const std::uint64_t e_off = it->first;
      const std::uint64_t e_end = e_off + it->second.len;
      if (e_off > cur) {
        segs.push_back({false, cur, static_cast<std::size_t>(cur - offset),
                        static_cast<std::size_t>(e_off - cur)});
        want_remote = true;
        cur = e_off;
      }
      const std::uint64_t s_end = std::min(e_end, end);
      if (s_end > cur) {
        segs.push_back({true, cur, static_cast<std::size_t>(cur - offset),
                        static_cast<std::size_t>(s_end - cur)});
        cur = s_end;
      }
      ++it;
    }
    if (!segs.empty()) {
      for (const Seg& s : segs) {
        if (s.staged) {
          // Extents exist => the file holds a stage file (invariant).
          stage_file = fs->stage->handle;
        }
      }
      // A retired file's remote path is gone or another file's now: its
      // gaps read as zeroes. A gap can also be a never-written hole; remote
      // open may fail with ENOENT when nothing drained yet — the zero-fill
      // covers it.
      if (want_remote && !fs->unlinked) {
        if (ensure_remote_read_locked(*fs).ok()) remote_file = fs->remote_read;
      }
    }
  }

  // Gaps (sparse holes, short remote files) read as zeroes, matching the
  // zero-fill semantics of the concrete backends.
  std::fill(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(effective),
            std::byte{0});
  for (const Seg& s : segs) {
    std::span<std::byte> dst = data.subspan(s.buf_at, s.len);
    if (s.staged) {
      auto got = stage_->pread(stage_file, dst, s.offset);
      if (!got.ok()) return got.error();
    } else if (remote_file != 0) {
      auto got = remote_->pread(remote_file, dst, s.offset);
      if (!got.ok()) return got.error();
    }
  }
  return effective;
}

Status TieredBackend::fsync(BackendFile file) {
  auto handle = resolve(file, "fsync");
  if (!handle.ok()) return handle.error();
  auto fs = handle.value().file;

  // A retired file's bytes never reach the remote: the stage is all there is.
  if (opts_.fsync_mode == TierFsyncMode::kStage || fs->unlinked) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!fs->stage) return {};
    const BackendFile sf = fs->stage->handle;
    lock.unlock();
    return stage_->fsync(sf);
  }

  // fsync_mode=remote: seal what this file staged, then wait until every
  // staged byte of it is drained + evicted (the drain fsyncs the remote
  // before evicting, so empty extents == remote-durable).
  std::unique_lock<std::mutex> lock(mu_);
  if (!fs->extents.empty() && open_unit_bytes_ > 0) seal_locked(0, obs::now_ns());
  while (!fs->extents.empty() && !shutdown_) idle_cv_.wait(lock);
  if (!fs->extents.empty()) return Error{EIO, "tiered backend shutting down"};
  return {};
}

Status TieredBackend::truncate(BackendFile file, std::uint64_t size) {
  auto handle = resolve(file, "truncate");
  if (!handle.ok()) return handle.error();
  if (!handle.value().writable) return Error{EBADF, "truncate on read-only tiered handle"};
  auto fs = handle.value().file;

  // Wait out in-flight drain IO, then trim the extents and shrink the
  // remote under the lock: a copy that read the old bytes can no longer
  // land after the remote truncate. The stage file stays as it is; reads
  // of the cut range follow the extent map to the remote, or to zeroes.
  std::unique_lock<std::mutex> lock(mu_);
  wait_drain_io_locked(lock, [&] { return !fs->drain_io; });
  if (size < fs->size) {
    trim_extents_locked(*fs, size, ~std::uint64_t{0} - size);
    space_cv_.notify_all();
  }
  fs->size = size;
  if (fs->unlinked) return {};  // retired: its remote path is not its own
  auto rw = remote_writer_locked(*fs);
  if (rw.ok()) CRFS_RETURN_IF_ERROR(remote_->truncate(rw.value(), size));
  return {};
}

Result<BackendStat> TieredBackend::stat(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it != files_.end()) {
      BackendStat st;
      st.size = it->second->size;
      st.is_dir = false;
      return st;
    }
  }
  return remote_->stat(path);
}

Status TieredBackend::mkdir(const std::string& path) { return remote_->mkdir(path); }

Status TieredBackend::rmdir(const std::string& path) { return remote_->rmdir(path); }

Status TieredBackend::unlink(const std::string& path) {
  bool had_state = false;
  std::vector<StageFile> doomed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it != files_.end()) {
      had_state = true;
      auto fs = it->second;
      wait_drain_io_locked(lock, [&] { return !fs->drain_io; });
      trim_extents_locked(*fs, 0, ~std::uint64_t{0});
      fs->size = 0;
      fs->unlinked = true;
      // A later open of the path is a new file. The wait above dropped the
      // lock, so `it` may be stale.
      auto cur = files_.find(path);
      if (cur != files_.end() && cur->second == fs) files_.erase(cur);
      space_cv_.notify_all();
      idle_cv_.notify_all();
      release_file_locked(fs, doomed);  // once no handle is open
    }
    auto wit = remote_write_.find(path);
    if (wit != remote_write_.end()) {
      (void)remote_->close_file(wit->second);
      remote_write_.erase(wit);
    }
  }
  free_stage_files(doomed);
  auto remote = remote_->unlink(path);
  if (!remote.ok() && had_state) return {};  // never drained: only staged
  return remote;
}

Status TieredBackend::rename(const std::string& from, const std::string& to) {
  // Staged state follows the rename: the path itself or, for a directory,
  // every staged descendant is re-keyed (files_ and the drain's remote
  // handles), so undrained bytes land under the new name. A staged file
  // the rename replaces is retired like an unlink. In-flight drain IO of
  // both finishes first, and the remote renames under the lock, so no copy
  // opens a remote path that is mid-rename. Stage files are tier-named, so
  // the stage has nothing to rename.
  const auto moves = [&](const std::string& p) {
    return p == from || (p.size() > from.size() && p.compare(0, from.size(), from) == 0 &&
                         p[from.size()] == '/');
  };
  const auto renamed = [&](const std::string& p) { return to + p.substr(from.size()); };
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<FileState>> moved;
  std::vector<std::shared_ptr<FileState>> replaced;
  wait_drain_io_locked(lock, [&] {
    moved.clear();
    replaced.clear();
    for (const auto& [p, fs] : files_) {
      if (!moves(p)) continue;
      moved.push_back(fs);
      auto target = files_.find(renamed(p));
      if (target != files_.end() && !moves(target->first)) replaced.push_back(target->second);
    }
    for (const auto* group : {&moved, &replaced}) {
      for (const auto& fs : *group) {
        if (fs->drain_io) return false;
      }
    }
    return true;
  });
  std::vector<StageFile> doomed;
  for (const auto& fs : replaced) {
    trim_extents_locked(*fs, 0, ~std::uint64_t{0});
    fs->size = 0;
    fs->unlinked = true;
    files_.erase(fs->path);
    release_file_locked(fs, doomed);  // the path is the mover's now
  }
  if (!replaced.empty()) {
    space_cv_.notify_all();
    idle_cv_.notify_all();
  }
  std::vector<std::string> targets;
  for (auto it = files_.begin(); it != files_.end();) {
    if (moves(it->first)) {
      targets.push_back(renamed(it->first));
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& fs : moved) {
    fs->path = renamed(fs->path);
    files_[fs->path] = fs;
  }
  std::vector<std::pair<std::string, BackendFile>> handles;
  for (auto it = remote_write_.begin(); it != remote_write_.end();) {
    if (moves(it->first)) {
      targets.push_back(renamed(it->first));
      handles.emplace_back(targets.back(), it->second);
      it = remote_write_.erase(it);
    } else {
      ++it;
    }
  }
  // A writer still open on a replaced path points at the replaced remote
  // file: drop it before the movers' writers take the path.
  for (const std::string& path : targets) {
    auto wit = remote_write_.find(path);
    if (wit == remote_write_.end()) continue;
    (void)remote_->close_file(wit->second);
    remote_write_.erase(wit);
  }
  for (auto& [path, handle] : handles) remote_write_.emplace(path, handle);
  Status remote = remote_->rename(from, to);
  if (!remote.ok() && !moved.empty()) {
    // Never drained: only staged. The remote's old `to` is still replaced,
    // or its tail would outlive the staged bytes drained over it.
    if (remote.error().code == ENOENT) (void)remote_->unlink(to);
    remote = {};
  }
  lock.unlock();
  free_stage_files(doomed);
  return remote;
}

Result<std::vector<std::string>> TieredBackend::list_dir(const std::string& path) {
  auto remote = remote_->list_dir(path);
  std::vector<std::string> names;
  if (remote.ok()) names = std::move(remote.value());
  const std::string prefix = normalize(path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [p, fs] : files_) {
      const std::string norm = normalize(p);
      std::string rest;
      if (prefix.empty()) {
        rest = norm;
      } else if (norm.size() > prefix.size() + 1 &&
                 norm.compare(0, prefix.size(), prefix) == 0 &&
                 norm[prefix.size()] == '/') {
        rest = norm.substr(prefix.size() + 1);
      } else {
        continue;
      }
      if (rest.empty() || rest.find('/') != std::string::npos) continue;
      names.push_back(rest);
    }
  }
  if (!remote.ok() && names.empty()) return remote.error();
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::string TieredBackend::name() const {
  return "tiered(stage=" + stage_->name() + ",remote=" + remote_->name() + ")";
}

Status TieredBackend::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  if (open_unit_bytes_ > 0) seal_locked(0, obs::now_ns());
  while (!sealed_.empty() && !shutdown_) idle_cv_.wait(lock);
  if (!sealed_.empty()) return Error{EIO, "tiered backend shutting down"};
  return {};
}

std::chrono::steady_clock::time_point TieredBackend::book_budget(std::uint64_t bytes) {
  const auto now = std::chrono::steady_clock::now();
  const double mbps = drain_mbps_cap_.load(std::memory_order_relaxed);
  if (mbps <= 0.0) return now;
  // An idle budget banks nothing: the slot starts now at the earliest.
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    start = std::max(budget_end_, now);
    end = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(bytes) / (mbps * 1e6)));
    budget_end_ = end;
  }
  std::this_thread::sleep_until(start);
  return end;
}

void TieredBackend::wake_streams_locked(bool all) {
  if (idle_workers_ == 0) {
    // Claims start more workers while work is left (claim_locked).
    if (workers_.size() < drain_parallel_.load(std::memory_order_relaxed)) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } else if (all) {
    work_cv_.notify_all();
  } else {
    work_cv_.notify_one();
  }
}

std::optional<TieredBackend::StreamClaim> TieredBackend::claim_locked(
    const std::shared_ptr<FileState>& prefer) {
  const unsigned width = drain_parallel_.load(std::memory_order_relaxed);
  if (fence_waiters_ > 0 || streams_ >= width) return std::nullopt;
  // The oldest unit: the sealed front, or the open unit while nothing is
  // sealed and eager copy is on.
  const bool sealed = !sealed_.empty();
  if (sealed ? front_error_.has_value() : eager_stopped_) return std::nullopt;
  const std::uint64_t unit = sealed ? sealed_.front().seq : open_unit_seq_;
  const auto has_work = [&](const FileState& fs) {
    if (fs.drain_io) return false;
    auto share = fs.units.find(unit);
    // Open, a share has work while it holds uncopied bytes; sealed, until
    // its fsync.
    return share != fs.units.end() && (sealed || share->second.uncopied > 0);
  };
  // A file with a share is in files_ (retiring a file trims its shares).
  std::shared_ptr<FileState> fs = prefer != nullptr && has_work(*prefer) ? prefer : nullptr;
  for (auto it = files_.begin(); fs == nullptr && it != files_.end(); ++it) {
    if (has_work(*it->second)) fs = it->second;
  }
  if (fs == nullptr) return std::nullopt;

  // A share means extents, so the file holds a stage file.
  StreamClaim out{fs, unit, {}, fs->stage->handle, 0, {}};
  auto rw = remote_writer_locked(*fs);
  if (rw.ok()) {
    out.remote_file = rw.value();
    const std::uint64_t want =
        std::min<std::uint64_t>(fs->units[unit].uncopied, kStepBytes);
    std::uint64_t bytes = 0;
    for (auto it = fs->extents.begin(); it != fs->extents.end() && bytes < want; ++it) {
      Extent& e = it->second;
      if (e.unit != unit || e.copied) continue;
      if (bytes + e.len > kStepBytes) {
        if (bytes > 0) break;
        // Split the extent at the step's end; the tail keeps its unit,
        // write id and copied bit for a later step.
        Extent tail = e;
        tail.len = e.len - kStepBytes;
        e.len = kStepBytes;
        fs->extents.emplace(it->first + kStepBytes, tail);
      }
      out.runs.push_back(DrainRun{it->first, e.len, e.write_id});
      bytes += e.len;
    }
  } else {
    out.opened = rw.error();
  }
  if (!sealed && open_unit_first_copy_ns_ == 0) open_unit_first_copy_ns_ = obs::now_ns();
  fs->drain_io = true;
  streams_ += 1;
  // One worker per concurrent stream: start another only while work is
  // left that no idle worker can take.
  if (idle_workers_ == 0 && streams_ < width && workers_.size() < width &&
      std::any_of(files_.begin(), files_.end(),
                  [&](const auto& entry) { return has_work(*entry.second); })) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return out;
}

Status TieredBackend::copy_claim(const StreamClaim& claim, std::vector<std::byte>& bounce) {
  // Adjacent runs go as one remote write; the step is at most kStepBytes.
  std::vector<DrainRun> merged;
  for (const DrainRun& run : claim.runs) {
    if (!merged.empty() && merged.back().offset + merged.back().len == run.offset) {
      merged.back().len += run.len;
    } else {
      merged.push_back(run);
    }
  }
  const int fd = stage_->raw_fd(claim.stage_file);
  for (const DrainRun& run : merged) {
    const std::size_t len = static_cast<std::size_t>(run.len);
    // Zero-copy: the remote reads the stage's page cache through a mapping.
    std::optional<StageMap> map;
    std::span<const std::byte> src;
    if (fd >= 0) {
      map.emplace(fd, run.offset, len);
      src = map->view();
    }
    if (src.empty()) {
      if (bounce.size() < kStepBytes) bounce.resize(kStepBytes);
      auto got = stage_->pread(claim.stage_file, {bounce.data(), len}, run.offset);
      if (!got.ok()) return got.error();
      if (got.value() < len) return Error{ESTALE, "staged extent truncated mid-drain"};
      src = {bounce.data(), len};
    }
    const auto slot_end = book_budget(len);
    const std::uint64_t t0 = obs::now_ns();
    const Status wrote = remote_->pwrite(claim.remote_file, src, run.offset);
    if (h_drain_pwrite_ != nullptr) h_drain_pwrite_->record(obs::now_ns() - t0);
    map.reset();
    if (!wrote.ok()) return wrote;
    t_drained_bytes_.fetch_add(len, std::memory_order_relaxed);
    if (c_drained_bytes_ != nullptr) c_drained_bytes_->add(len);
    std::this_thread::sleep_until(slot_end);
  }
  return {};
}

void TieredBackend::finish_claim_locked(const StreamClaim& claim, const Status& result) {
  FileState& fs = *claim.file;
  fs.drain_io = false;
  streams_ -= 1;
  copy_cv_.notify_all();
  const bool open = claim.unit == open_unit_seq_;
  if (!result.ok()) {
    if (open) {
      // Do not spin on a failing remote: the sealed unit's retry loop, with
      // its backoff, owns these bytes from the seal on.
      eager_stopped_ = true;
    } else if (!front_error_.has_value() || front_error_->code == ESTALE) {
      front_error_ = result.error();
    }
  } else if (claim.runs.empty()) {
    fs.units.erase(claim.unit);  // fsynced: the share is remote-durable
  } else {
    // Copied counts only for an extent that is still exactly the one
    // copied: an overwrite mid-copy changed its write id (or split it), so
    // those bytes stay uncopied and go again.
    for (const DrainRun& run : claim.runs) {
      auto it = fs.extents.find(run.offset);
      if (it == fs.extents.end() || it->second.len != run.len ||
          it->second.unit != claim.unit || it->second.write_id != run.write_id) {
        continue;
      }
      it->second.copied = true;
      auto share = fs.units.find(claim.unit);
      if (share != fs.units.end()) share->second.uncopied -= run.len;
    }
  }
  if (!open) drain_cv_.notify_all();
}

void TieredBackend::worker_loop() {
  std::vector<std::byte> bounce;
  std::shared_ptr<FileState> last;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::optional<StreamClaim> claim;
    while (!workers_stop_ && !(claim = claim_locked(last))) {
      idle_workers_ += 1;
      work_cv_.wait(lock);
      idle_workers_ -= 1;
    }
    if (!claim) return;
    lock.unlock();
    Status result = claim->opened;
    if (result.ok()) {
      result = claim->runs.empty() ? remote_->fsync(claim->remote_file) : copy_claim(*claim, bounce);
    }
    if (!result.ok()) {
      std::uint64_t bytes = 0;
      for (const DrainRun& run : claim->runs) bytes += run.len;
      note_remote_failure(result.error(), claim->unit, bytes);
    }
    lock.lock();
    finish_claim_locked(*claim, result);
    last = claim->file;
  }
}

void TieredBackend::note_remote_failure(const Error& error, std::uint64_t unit,
                                        std::uint64_t bytes) {
  // ESTALE means the staged bytes vanished underneath the copy; a later
  // claim re-snapshots. Anything else is the remote tier failing: raise
  // the health event once per episode.
  if (error.code == ESTALE || remote_down_.exchange(true)) return;
  if (events_ == nullptr) return;
  obs::Event ev;
  ev.severity = obs::Severity::kWarning;
  ev.rule = "tier_remote_down";
  ev.message = "drain to remote failed: " + error.to_string() + " (unit " +
               std::to_string(unit) + ", stage retains data)";
  ev.value = static_cast<double>(bytes);
  ev.ts_ns = obs::now_ns();
  events_->push(std::move(ev));
}

bool TieredBackend::unit_durable_locked(std::uint64_t unit) const {
  return std::none_of(files_.begin(), files_.end(),
                      [&](const auto& entry) { return entry.second->units.count(unit) != 0; });
}

std::uint64_t TieredBackend::evict_locked(std::uint64_t unit,
                                          std::vector<StageFile>& doomed) {
  // Every extent still tagged to this unit is copied and fsynced (an
  // overwrite re-tagged fresher bytes to the open unit — they stay).
  std::uint64_t evicted = 0;
  std::vector<std::shared_ptr<FileState>> drained;
  for (auto& [path, fs] : files_) {
    const std::uint64_t before = evicted;
    for (auto it = fs->extents.begin(); it != fs->extents.end();) {
      if (it->second.unit == unit) {
        evicted += it->second.len;
        it = fs->extents.erase(it);
      } else {
        ++it;
      }
    }
    if (evicted != before && fs->extents.empty()) drained.push_back(fs);
  }
  // The pool's budget sees the evicted bytes gone before the releases.
  stage_used_ -= std::min(stage_used_, evicted);
  for (const auto& fs : drained) {
    if (fs->inflight != 0 || fs->drain_io) continue;
    if (fs->open_count == 0) {
      release_file_locked(fs, doomed);
    } else if (fs->stage) {
      // Still open but fully drained: cut its stage file back, or an
      // ever-appending file would grow it without bound.
      (void)stage_->truncate(fs->stage->handle, 0);
      fs->stage->size = 0;
    }
  }
  t_units_evicted_.fetch_add(1, std::memory_order_relaxed);
  if (c_evictions_ != nullptr) c_evictions_->add(1);
  return evicted;
}

void TieredBackend::drain_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  auto backoff = opts_.retry_backoff;
  for (;;) {
    drain_cv_.wait(lock, [&] { return shutdown_ || !sealed_.empty(); });
    if (sealed_.empty()) return;
    // drain_ns runs from the unit's first copy, eager or not.
    if (sealed_.front().first_copy_ns == 0) sealed_.front().first_copy_ns = obs::now_ns();
    const DrainUnit unit = sealed_.front();
    // The streams copy what the eager pass has not and fsync each file as
    // its last step lands. Wait for every file of the unit, or for a failed
    // stream and the others to stop.
    front_error_.reset();
    wake_streams_locked(true);
    drain_cv_.wait(lock, [&] {
      return streams_ == 0 && (front_error_.has_value() || unit_durable_locked(unit.seq));
    });

    if (front_error_.has_value()) {
      // Remote down (or staged bytes moved underneath us): retry the unit
      // with exponential backoff. The stage retains every byte meanwhile.
      t_retries_.fetch_add(1, std::memory_order_relaxed);
      if (c_retries_ != nullptr) c_retries_->add(1);
      if (shutdown_ && backoff >= opts_.retry_backoff_max) {
        // Teardown with a dead remote: abandon the unit (bytes stay staged;
        // nothing is evicted, so nothing is lost silently).
        sealed_.pop_front();
        idle_cv_.notify_all();
        if (sealed_.empty()) space_cv_.notify_all();
        continue;
      }
      drain_cv_.wait_for(lock, backoff, [&] { return shutdown_; });
      backoff = std::min(backoff * 2, opts_.retry_backoff_max);
      continue;
    }

    const std::uint64_t drain_end = obs::now_ns();
    std::vector<StageFile> doomed;
    const std::uint64_t evicted = evict_locked(unit.seq, doomed);
    const DrainListener listener = drain_listener_;
    lock.unlock();
    free_stage_files(doomed);
    if (remote_down_.exchange(false) && events_ != nullptr) {
      obs::Event ev;
      ev.severity = obs::Severity::kInfo;
      ev.rule = "tier_remote_recovered";
      ev.message = "drain to remote resumed (unit " + std::to_string(unit.seq) + ")";
      ev.ts_ns = drain_end;
      events_->push(std::move(ev));
    }
    space_cv_.notify_all();
    idle_cv_.notify_all();
    if (listener) {
      listener(unit.epoch_id, evicted, drain_end - unit.first_copy_ns, drain_end);
    }
    lock.lock();
    sealed_.pop_front();
    backoff = opts_.retry_backoff;
    if (sealed_.empty()) {
      idle_cv_.notify_all();
      // A writer that stalled while this (already-drained) unit still sat
      // in sealed_ skipped its auto-seal; now that the queue is empty it
      // must re-check, or its open bytes never seal and nothing wakes it.
      space_cv_.notify_all();
      // The open unit's eager copy resumes.
      wake_streams_locked(true);
    }
  }
}

TierStats TieredBackend::tier_stats() const {
  TierStats out;
  std::lock_guard<std::mutex> lock(mu_);
  out.stage_used = stage_used_;
  out.stage_cap = opts_.stage_cap;
  out.staged_bytes = t_staged_bytes_.load(std::memory_order_relaxed);
  out.drained_bytes = t_drained_bytes_.load(std::memory_order_relaxed);
  out.spill_bytes = t_spill_bytes_.load(std::memory_order_relaxed);
  out.units_sealed = t_units_sealed_.load(std::memory_order_relaxed);
  out.units_evicted = t_units_evicted_.load(std::memory_order_relaxed);
  out.pending_units = sealed_.size();
  out.stalls = t_stalls_.load(std::memory_order_relaxed);
  out.stall_ns = t_stall_ns_.load(std::memory_order_relaxed);
  out.retries = t_retries_.load(std::memory_order_relaxed);
  const std::uint64_t oldest = oldest_pending_seal_ns_locked();
  if (oldest != 0) {
    const std::uint64_t now = obs::now_ns();
    out.drain_lag_ns = now > oldest ? now - oldest : 0;
  }
  out.drain_mbps = drain_mbps_cap_.load(std::memory_order_relaxed);
  out.drain_parallel = drain_parallel_.load(std::memory_order_relaxed);
  return out;
}

std::string TieredBackend::tier_json() const {
  const TierStats s = tier_stats();
  char mbps[32];
  std::snprintf(mbps, sizeof(mbps), "%g", s.drain_mbps);
  std::string out = "{\"enabled\":true";
  out += ",\"stage\":\"" + stage_->name() + "\"";
  out += ",\"remote\":\"" + remote_->name() + "\"";
  out += ",\"stage_used\":" + std::to_string(s.stage_used);
  out += ",\"stage_cap\":" + std::to_string(s.stage_cap);
  out += ",\"staged_bytes\":" + std::to_string(s.staged_bytes);
  out += ",\"drained_bytes\":" + std::to_string(s.drained_bytes);
  out += ",\"spill_bytes\":" + std::to_string(s.spill_bytes);
  out += ",\"units_sealed\":" + std::to_string(s.units_sealed);
  out += ",\"units_evicted\":" + std::to_string(s.units_evicted);
  out += ",\"pending_units\":" + std::to_string(s.pending_units);
  out += ",\"stalls\":" + std::to_string(s.stalls);
  out += ",\"stall_ns\":" + std::to_string(s.stall_ns);
  out += ",\"retries\":" + std::to_string(s.retries);
  out += ",\"drain_lag_ns\":" + std::to_string(s.drain_lag_ns);
  out += ",\"drain_mbps\":" + std::string(mbps);
  out += ",\"drain_parallel\":" + std::to_string(s.drain_parallel);
  out += "}";
  return out;
}

Result<std::shared_ptr<BackendFs>> make_tiered_backend(const Config& cfg,
                                                       const std::string& remote_dir) {
  std::shared_ptr<BackendFs> stage;
  if (cfg.tier_stage == "mem") {
    stage = std::make_shared<MemBackend>();
  } else {
    ::mkdir(cfg.tier_stage.c_str(), 0755);  // best-effort; create() validates
    auto s = PosixBackend::create(cfg.tier_stage);
    if (!s.ok()) return s.error();
    stage = std::move(s.value());
  }
  auto remote = PosixBackend::create(remote_dir);
  if (!remote.ok()) return remote.error();
  std::shared_ptr<BackendFs> remote_fs = std::move(remote).value();
  TieredOptions opts;
  opts.stage_cap = cfg.stage_cap;
  opts.drain_mbps = static_cast<double>(cfg.drain_mbps);
  opts.drain_parallel = cfg.drain_parallel;
  opts.fsync_mode =
      cfg.fsync_mode == "remote" ? TierFsyncMode::kRemote : TierFsyncMode::kStage;
  return std::shared_ptr<BackendFs>(
      std::make_shared<TieredBackend>(std::move(stage), std::move(remote_fs), opts));
}

}  // namespace crfs
