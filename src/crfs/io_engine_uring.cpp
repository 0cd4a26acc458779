// UringEngine: raw io_uring submission/completion pipeline (no liburing).
//
// One ring per IO worker. Each coalesced run becomes one SQE
// (IORING_OP_WRITE_FIXED for a single registered chunk, IORING_OP_WRITEV
// for multi-chunk runs); user_data carries a heap RunState that owns the
// run's WriteJobs — and therefore the chunks' storage — until the CQE
// lands. Buffer-pool chunk storage is registered as fixed buffers and
// backend fds as fixed files where the kernel allows; both registrations
// degrade gracefully (plain WRITEV / plain fds) when refused.
//
// Ordering contract: the pipeline relies on FIFO-within-file for
// overlapping writes (last-writer-wins). Within one engine, a run that
// byte-overlaps an in-flight run of the same file is held back (reap until
// the earlier run completes) before submission; adjacent sequential runs
// never overlap, so the common checkpoint stream keeps full depth. Across
// workers the ordering guarantee is the same as the sync engine's (jobs of
// one file popped by different workers already raced there).
#include "crfs/io_engine.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define CRFS_HAVE_URING 1
#endif

#ifdef CRFS_HAVE_URING

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "crfs/file_table.h"

namespace crfs {

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, nullptr, 0));
}

int sys_io_uring_register(int fd, unsigned opcode, const void* arg, unsigned nr) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr));
}

/// Kernel-shared ring indices need atomic access; the ring memory is
/// suitably aligned by construction.
std::uint32_t load_acquire(const unsigned* p) {
  return std::atomic_ref<const unsigned>(*p).load(std::memory_order_acquire);
}
void store_release(unsigned* p, std::uint32_t v) {
  std::atomic_ref<unsigned>(*p).store(v, std::memory_order_release);
}

/// Fixed-file table size. Sparse (-1) slots are claimed per backend fd on
/// first submission and returned via forget_file at close.
constexpr unsigned kFileSlots = 64;

class UringEngine final : public IoEngine {
 public:
  static std::unique_ptr<IoEngine> create(unsigned depth, BackendFs& backend,
                                          std::vector<ChunkRegion> regions, IoEngineObs obs,
                                          CompleteFn complete) {
    io_uring_params params{};
    // Clamp to a sane SQ size; the kernel rounds up to a power of two.
    if (depth > 4096) depth = 4096;
    const int ring_fd = sys_io_uring_setup(depth, &params);
    if (ring_fd < 0) return nullptr;  // kernel without io_uring (or seccomp'd away)

    auto eng = std::unique_ptr<UringEngine>(
        new UringEngine(ring_fd, depth, backend, obs, std::move(complete)));
    if (!eng->map_rings(params)) return nullptr;
    eng->register_buffers(regions);
    eng->register_file_table();
    return eng;
  }

  ~UringEngine() override {
    // The owning worker drains before destruction; anything still listed
    // here means teardown raced a kernel completion we will never see —
    // free the states rather than leak.
    for (RunState* rs : inflight_runs_) delete rs;
    if (sqes_ != nullptr) ::munmap(sqes_, sqes_bytes_);
    if (cq_ptr_ != nullptr && cq_ptr_ != sq_ptr_) ::munmap(cq_ptr_, cq_bytes_);
    if (sq_ptr_ != nullptr) ::munmap(sq_ptr_, sq_bytes_);
    ::close(ring_fd_);
  }

  void submit(IoRun run) override {
    const int fd = backend_.raw_fd(run.jobs.front().file->backend_file());
    if (fd < 0) {
      // Non-fd backend (MemBackend, decorators): issue synchronously so
      // wrapper semantics (fault injection, throttling) are preserved
      // per run exactly as under the sync engine.
      const std::uint64_t t_start = obs::now_ns();
      Status status = backend_write_run(backend_, run);
      complete_(std::move(run), std::move(status), t_start, obs::now_ns());
      return;
    }

    // Hold back a run that byte-overlaps an in-flight run of the same
    // file: concurrent kernel writes to overlapping ranges would make
    // last-writer-wins submission-order-dependent. Adjacent runs of a
    // sequential stream never overlap, so this almost never fires.
    const std::uint64_t run_end = run.offset + run.total;
    const FileEntry* file = run.jobs.front().file.get();
    while (overlaps_inflight(file, run.offset, run_end)) reap(/*wait=*/true);

    while (inflight_.load(std::memory_order_relaxed) >= capacity()) reap(/*wait=*/true);

    auto rs = std::make_unique<RunState>();
    rs->run = std::move(run);
    rs->file = file;
    rs->end = run_end;
    rs->t_start = obs::now_ns();

    const unsigned tail = sq_local_tail_;
    io_uring_sqe* sqe = &sqes_[tail & *sq_mask_];
    std::memset(sqe, 0, sizeof(*sqe));

    const Chunk& first = *rs->run.jobs.front().chunk;
    if (rs->run.jobs.size() == 1 && buffers_registered_ &&
        first.pool_index() != Chunk::kNoPoolIndex) {
      // Registered chunk: pre-pinned pages, no per-IO translate.
      sqe->opcode = IORING_OP_WRITE_FIXED;
      sqe->addr = reinterpret_cast<std::uint64_t>(first.payload().data());
      sqe->len = static_cast<std::uint32_t>(first.fill());
      sqe->buf_index = first.pool_index();
    } else {
      rs->iov.resize(rs->run.jobs.size());
      for (std::size_t i = 0; i < rs->run.jobs.size(); ++i) {
        const auto payload = rs->run.jobs[i].chunk->payload();
        rs->iov[i].iov_base = const_cast<std::byte*>(payload.data());
        rs->iov[i].iov_len = payload.size();
      }
      sqe->opcode = IORING_OP_WRITEV;
      sqe->addr = reinterpret_cast<std::uint64_t>(rs->iov.data());
      sqe->len = static_cast<std::uint32_t>(rs->iov.size());
    }
    const int slot = file_slot(fd);
    if (slot >= 0) {
      sqe->fd = slot;
      sqe->flags |= IOSQE_FIXED_FILE;
    } else {
      sqe->fd = fd;
    }
    sqe->off = rs->run.offset;
    sqe->user_data = reinterpret_cast<std::uint64_t>(rs.get());

    sq_array_[tail & *sq_mask_] = tail & *sq_mask_;
    sq_local_tail_ = tail + 1;
    store_release(sq_ktail_, sq_local_tail_);
    pending_sqes_ += 1;

    inflight_runs_.push_back(rs.release());
    inflight_.fetch_add(1, std::memory_order_relaxed);
  }

  void submit_read(ReadJob job) override {
    const int fd = backend_.raw_fd(job.file);
    if (fd < 0) {
      // Non-fd backend (MemBackend, decorators): read synchronously so
      // wrapper semantics (fault injection, throttling) are preserved per
      // fill exactly as under the sync engine.
      backend_read_fill(backend_, std::move(job));
      return;
    }

    // No overlap holdback: reads never reorder against each other, and
    // the prefetcher only submits ranges its coherence check has already
    // proven durable (never ranges with queued writes in flight).
    while (inflight_.load(std::memory_order_relaxed) >= capacity()) reap(/*wait=*/true);

    auto rs = std::make_unique<RunState>();
    rs->is_read = true;
    rs->read = std::move(job);

    const unsigned tail = sq_local_tail_;
    io_uring_sqe* sqe = &sqes_[tail & *sq_mask_];
    std::memset(sqe, 0, sizeof(*sqe));

    if (buffers_registered_ && rs->read.buf_index != Chunk::kNoPoolIndex) {
      // Registered pool chunk as destination: pre-pinned pages.
      sqe->opcode = IORING_OP_READ_FIXED;
      sqe->addr = reinterpret_cast<std::uint64_t>(rs->read.dst);
      sqe->len = static_cast<std::uint32_t>(rs->read.len);
      sqe->buf_index = rs->read.buf_index;
    } else {
      rs->iov.resize(1);
      rs->iov[0].iov_base = rs->read.dst;
      rs->iov[0].iov_len = rs->read.len;
      sqe->opcode = IORING_OP_READV;
      sqe->addr = reinterpret_cast<std::uint64_t>(rs->iov.data());
      sqe->len = 1;
    }
    const int slot = file_slot(fd);
    if (slot >= 0) {
      sqe->fd = slot;
      sqe->flags |= IOSQE_FIXED_FILE;
    } else {
      sqe->fd = fd;
    }
    sqe->off = rs->read.offset;
    sqe->user_data = reinterpret_cast<std::uint64_t>(rs.get());

    sq_array_[tail & *sq_mask_] = tail & *sq_mask_;
    sq_local_tail_ = tail + 1;
    store_release(sq_ktail_, sq_local_tail_);
    pending_sqes_ += 1;

    inflight_runs_.push_back(rs.release());
    inflight_.fetch_add(1, std::memory_order_relaxed);
  }

  void flush() override {
    while (pending_sqes_ > 0) {
      const int ret = sys_io_uring_enter(ring_fd_, pending_sqes_, 0, 0);
      if (ret < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EBUSY) {
          // CQ backpressure: make room, then resubmit.
          reap(/*wait=*/true);
          continue;
        }
        // Submission rejected outright (should not happen for WRITEV on a
        // probed ring): fail the queued runs through the normal completion
        // path rather than wedging the worker.
        fail_pending(errno);
        return;
      }
      if (obs_.sqe_batch != nullptr) obs_.sqe_batch->record(pending_sqes_);
      pending_sqes_ -= static_cast<unsigned>(ret);
    }
    if (obs_.inflight_depth != nullptr) {
      obs_.inflight_depth->record(inflight_.load(std::memory_order_relaxed));
    }
  }

  void reap(bool wait) override {
    flush();
    if (inflight_.load(std::memory_order_relaxed) == 0) return;

    unsigned head = *cq_khead_;  // single consumer: plain read of our own index
    if (wait && head == load_acquire(cq_ktail_)) {
      const std::uint64_t t0 = obs::now_ns();
      while (sys_io_uring_enter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS) < 0 &&
             errno == EINTR) {
      }
      if (obs_.cqe_wait_ns != nullptr) obs_.cqe_wait_ns->record(obs::now_ns() - t0);
    }
    unsigned tail = load_acquire(cq_ktail_);
    while (head != tail) {
      const io_uring_cqe& cqe = cqes_[head & *cq_mask_];
      handle_cqe(cqe);
      head += 1;
      store_release(cq_khead_, head);
      tail = load_acquire(cq_ktail_);
    }
  }

  std::size_t inflight() const override { return inflight_.load(std::memory_order_relaxed); }

  /// Effective depth: the runtime soft cap, never above the ring actually
  /// allocated at mount. Lowering it does not cancel in-flight runs; the
  /// worker just stops submitting until inflight drains below the cap.
  std::size_t capacity() const override {
    return std::min<std::size_t>(depth_, soft_depth_.load(std::memory_order_relaxed));
  }

  unsigned set_depth(unsigned depth) override {
    const unsigned effective = std::clamp(depth, 1u, depth_);
    soft_depth_.store(effective, std::memory_order_relaxed);
    return effective;
  }

  const char* name() const override { return "uring"; }

  void forget_file(BackendFile file) override {
    const int fd = backend_.raw_fd(file);
    if (fd < 0) return;
    std::lock_guard lock(files_mu_);
    auto it = fd_slots_.find(fd);
    if (it == fd_slots_.end()) return;
    // Point the slot back at nothing before the fd number can be reused by
    // a later open — a stale registered file would silently write to the
    // old (possibly deleted) inode.
    int minus_one = -1;
    io_uring_files_update upd{};
    upd.offset = static_cast<std::uint32_t>(it->second);
    upd.fds = reinterpret_cast<std::uint64_t>(&minus_one);
    (void)sys_io_uring_register(ring_fd_, IORING_REGISTER_FILES_UPDATE, &upd, 1);
    free_slots_.push_back(it->second);
    fd_slots_.erase(it);
  }

 private:
  struct RunState {
    bool is_read = false;  ///< discriminates run (write) vs read below
    IoRun run;
    ReadJob read;
    std::vector<struct iovec> iov;  ///< must outlive the SQE for WRITEV/READV
    const FileEntry* file = nullptr;  ///< writes only (overlap holdback)
    std::uint64_t end = 0;  ///< run.offset + run.total (overlap check)
    std::uint64_t t_start = 0;
  };

  UringEngine(int ring_fd, unsigned depth, BackendFs& backend, IoEngineObs obs,
              CompleteFn complete)
      : ring_fd_(ring_fd),
        depth_(depth),
        soft_depth_(depth),
        backend_(backend),
        obs_(obs),
        complete_(std::move(complete)) {}

  bool map_rings(const io_uring_params& p) {
    sq_bytes_ = p.sq_off.array + p.sq_entries * sizeof(std::uint32_t);
    cq_bytes_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap) sq_bytes_ = cq_bytes_ = std::max(sq_bytes_, cq_bytes_);

    sq_ptr_ = ::mmap(nullptr, sq_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                     ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ptr_ == MAP_FAILED) {
      sq_ptr_ = nullptr;
      return false;
    }
    if (single_mmap) {
      cq_ptr_ = sq_ptr_;
    } else {
      cq_ptr_ = ::mmap(nullptr, cq_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                       ring_fd_, IORING_OFF_CQ_RING);
      if (cq_ptr_ == MAP_FAILED) {
        cq_ptr_ = nullptr;
        return false;
      }
    }
    sqes_bytes_ = p.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
                                              MAP_SHARED | MAP_POPULATE, ring_fd_,
                                              IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      return false;
    }

    auto* sq = static_cast<std::uint8_t*>(sq_ptr_);
    sq_khead_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
    sq_ktail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
    sq_local_tail_ = *sq_ktail_;

    auto* cq = static_cast<std::uint8_t*>(cq_ptr_);
    cq_khead_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
    cq_ktail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq + p.cq_off.cqes);
    return true;
  }

  void register_buffers(const std::vector<ChunkRegion>& regions) {
    if (regions.empty() || regions.size() > 1024) return;
    std::vector<struct iovec> iov(regions.size());
    for (std::size_t i = 0; i < regions.size(); ++i) {
      iov[i].iov_base = const_cast<std::byte*>(regions[i].data);
      iov[i].iov_len = regions[i].len;
    }
    // "Where the kernel allows": a refused registration (memlock limits,
    // old kernels) just means plain WRITEV for single-chunk runs too.
    buffers_registered_ = sys_io_uring_register(ring_fd_, IORING_REGISTER_BUFFERS, iov.data(),
                                                static_cast<unsigned>(iov.size())) == 0;
  }

  void register_file_table() {
    std::vector<int> fds(kFileSlots, -1);
    if (sys_io_uring_register(ring_fd_, IORING_REGISTER_FILES, fds.data(), kFileSlots) != 0) {
      return;  // no sparse-table support: plain fds in every SQE
    }
    files_registered_ = true;
    free_slots_.reserve(kFileSlots);
    for (int s = static_cast<int>(kFileSlots) - 1; s >= 0; --s) free_slots_.push_back(s);
  }

  /// Registered-file slot for `fd` (claiming one on first sight), or -1
  /// when the table is off/full or the update is refused.
  int file_slot(int fd) {
    if (!files_registered_) return -1;
    std::lock_guard lock(files_mu_);
    auto it = fd_slots_.find(fd);
    if (it != fd_slots_.end()) return it->second;
    if (free_slots_.empty()) return -1;
    const int slot = free_slots_.back();
    io_uring_files_update upd{};
    upd.offset = static_cast<std::uint32_t>(slot);
    upd.fds = reinterpret_cast<std::uint64_t>(&fd);
    if (sys_io_uring_register(ring_fd_, IORING_REGISTER_FILES_UPDATE, &upd, 1) != 1) {
      return -1;
    }
    free_slots_.pop_back();
    fd_slots_.emplace(fd, slot);
    return slot;
  }

  bool overlaps_inflight(const FileEntry* file, std::uint64_t offset, std::uint64_t end) const {
    for (const RunState* rs : inflight_runs_) {
      if (rs->file == file && offset < rs->end && rs->run.offset < end) return true;
    }
    return false;
  }

  void handle_cqe(const io_uring_cqe& cqe) {
    auto* rs = reinterpret_cast<RunState*>(static_cast<std::uintptr_t>(cqe.user_data));
    const std::int32_t res = cqe.res;
    finish_run(rs, res);
  }

  void finish_run(RunState* rs, std::int32_t res) {
    const std::uint64_t t_done = obs::now_ns();
    if (rs->is_read) {
      drop_inflight(rs);
      ReadJob& job = rs->read;
      if (res < 0) {
        job.done(Error{-res, "io_uring read"});
      } else if (static_cast<std::size_t>(res) < job.len) {
        // Async short read: resume synchronously. The resume itself stops
        // at EOF, so a short final result is the file ending, not a bug.
        const auto got = static_cast<std::size_t>(res);
        auto rest = backend_.pread(job.file, {job.dst + got, job.len - got}, job.offset + got);
        job.done(rest.ok() ? Result<std::size_t>(got + rest.value()) : rest);
      } else {
        job.done(static_cast<std::size_t>(res));
      }
      delete rs;
      return;
    }
    Status status;
    if (res < 0) {
      status = Error{-res, "io_uring write " + rs->run.jobs.front().file->path()};
    } else if (static_cast<std::uint64_t>(res) < rs->run.total) {
      // Async short write: complete the remainder synchronously through
      // the backend (same resume semantics as PosixBackend::pwritev).
      status = finish_short(*rs, static_cast<std::size_t>(res));
    }
    drop_inflight(rs);
    complete_(std::move(rs->run), std::move(status), rs->t_start, t_done);
    delete rs;
  }

  Status finish_short(RunState& rs, std::size_t written) {
    const BackendFile file = rs.run.jobs.front().file->backend_file();
    std::vector<BackendIoVec> rest;
    rest.reserve(rs.run.jobs.size());
    std::size_t skip = written;
    for (const WriteJob& job : rs.run.jobs) {
      const auto payload = job.chunk->payload();
      if (skip >= payload.size()) {
        skip -= payload.size();
        continue;
      }
      rest.push_back(BackendIoVec{payload.data() + skip, payload.size() - skip});
      skip = 0;
    }
    return backend_.pwritev(file, rest, rs.run.offset + written);
  }

  void drop_inflight(RunState* rs) {
    for (std::size_t i = 0; i < inflight_runs_.size(); ++i) {
      if (inflight_runs_[i] == rs) {
        inflight_runs_[i] = inflight_runs_.back();
        inflight_runs_.pop_back();
        break;
      }
    }
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Fails every queued-but-unsubmittable run with `err` through the
  /// normal completion path (sticky FileEntry error once per chunk).
  void fail_pending(int err) {
    // The newest pending_sqes_ entries of inflight_runs_ are the ones the
    // kernel never accepted; CQEs will not arrive for them.
    while (pending_sqes_ > 0 && !inflight_runs_.empty()) {
      RunState* rs = inflight_runs_.back();
      inflight_runs_.pop_back();
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      pending_sqes_ -= 1;
      sq_local_tail_ -= 1;
      store_release(sq_ktail_, sq_local_tail_);
      const std::uint64_t t_done = obs::now_ns();
      if (rs->is_read) {
        rs->read.done(Error{err, "io_uring submit"});
      } else {
        complete_(std::move(rs->run), Error{err, "io_uring submit"}, rs->t_start, t_done);
      }
      delete rs;
    }
  }

  const int ring_fd_;
  const unsigned depth_;
  /// Runtime soft cap on capacity() (knob plane); in [1, depth_]. Written
  /// by tune callers, read by the owning worker every submit window.
  std::atomic<unsigned> soft_depth_;
  BackendFs& backend_;
  IoEngineObs obs_;
  CompleteFn complete_;

  void* sq_ptr_ = nullptr;
  void* cq_ptr_ = nullptr;
  std::size_t sq_bytes_ = 0;
  std::size_t cq_bytes_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sqes_bytes_ = 0;

  unsigned* sq_khead_ = nullptr;
  unsigned* sq_ktail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned sq_local_tail_ = 0;
  unsigned* cq_khead_ = nullptr;
  unsigned* cq_ktail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;

  unsigned pending_sqes_ = 0;
  std::atomic<std::size_t> inflight_{0};
  std::vector<RunState*> inflight_runs_;

  bool buffers_registered_ = false;
  bool files_registered_ = false;
  std::mutex files_mu_;  ///< fd->slot map; forget_file runs on app threads
  std::unordered_map<int, int> fd_slots_;
  std::vector<int> free_slots_;
};

}  // namespace

std::unique_ptr<IoEngine> make_uring_engine(unsigned depth, BackendFs& backend,
                                            std::vector<ChunkRegion> regions, IoEngineObs obs,
                                            IoEngine::CompleteFn complete) {
  return UringEngine::create(depth, backend, std::move(regions), obs, std::move(complete));
}

}  // namespace crfs

#else  // !CRFS_HAVE_URING

namespace crfs {

std::unique_ptr<IoEngine> make_uring_engine(unsigned, BackendFs&, std::vector<ChunkRegion>,
                                            IoEngineObs, IoEngine::CompleteFn) {
  return nullptr;  // platform without io_uring headers: sync fallback
}

}  // namespace crfs

#endif
