// BackendFs: the filesystem CRFS stacks on top of.
//
// The paper mounts CRFS over ext3, NFS, PVFS2, or Lustre; everything CRFS
// needs from the backend is captured by this narrow interface. Concrete
// implementations:
//   * PosixBackend    - a real directory tree (dirfd-relative syscalls)
//   * MemBackend      - in-memory files, used by unit tests
//   * NullBackend     - discards data; used by the Fig 5 raw-bandwidth
//                       bench exactly as the paper does ("once a filled
//                       chunk is picked up by an IO thread it is discarded")
//   * FaultyBackend   - wrapper injecting errors (failure-path tests)
//   * ThrottledBackend- wrapper limiting write bandwidth (contention demos)
//
// The interface is position-based (pwrite/pread): CRFS's IO threads write
// chunks at explicit offsets from multiple threads concurrently, so there
// is deliberately no per-handle file cursor.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace crfs {

class TieredBackend;

/// Opaque backend file handle. 64-bit so PosixBackend can store an fd and
/// MemBackend an index without heap indirection.
using BackendFile = std::uint64_t;

/// File metadata subset CRFS forwards through getattr.
struct BackendStat {
  std::uint64_t size = 0;
  bool is_dir = false;
  std::uint32_t mode = 0644;
};

/// Flags for open_file. Kept minimal: CRFS only ever opens for write
/// (checkpoint) or read (restart), plus create/truncate.
struct OpenFlags {
  bool create = false;
  bool truncate = false;
  bool write = false;   ///< open read-only when false
};

/// One segment of a vectored write (mirrors struct iovec without pulling
/// <sys/uio.h> into every backend consumer).
struct BackendIoVec {
  const std::byte* data = nullptr;
  std::size_t len = 0;
};

/// One segment of a vectored read (mutable destination buffer).
struct BackendMutIoVec {
  std::byte* data = nullptr;
  std::size_t len = 0;
};

/// Abstract backend filesystem. All methods are thread-safe: CRFS calls
/// them concurrently from application threads and IO-pool threads.
class BackendFs {
 public:
  virtual ~BackendFs() = default;

  virtual Result<BackendFile> open_file(const std::string& path, OpenFlags flags) = 0;
  virtual Status close_file(BackendFile file) = 0;

  /// Writes the full span at `offset`; partial writes are retried
  /// internally so success means every byte landed.
  virtual Status pwrite(BackendFile file, std::span<const std::byte> data,
                        std::uint64_t offset) = 0;

  /// Writes all segments contiguously starting at `offset` (the segments
  /// land back to back, like ::pwritev). The IO pool uses this to issue
  /// one backend call for a run of adjacent chunks. The default forwards
  /// segment by segment through pwrite(), so decorating backends
  /// (FaultyBackend, ThrottledBackend) keep their per-write behaviour;
  /// backends with a cheaper native path override it.
  virtual Status pwritev(BackendFile file, std::span<const BackendIoVec> iov,
                         std::uint64_t offset) {
    std::uint64_t off = offset;
    for (const auto& seg : iov) {
      CRFS_RETURN_IF_ERROR(pwrite(file, {seg.data, seg.len}, off));
      off += seg.len;
    }
    return {};
  }

  /// Raw OS file descriptor behind `file`, for the restore read path's
  /// page-cache pass-through (Readahead), or -1 when the backend has no
  /// kernel fd (MemBackend, NullBackend) or deliberately hides it
  /// (decorating wrappers return -1 so injected faults / throttling keep
  /// applying to every read).
  virtual int raw_fd(BackendFile file) const {
    (void)file;
    return -1;
  }

  /// Reads up to data.size() bytes at `offset`; returns bytes read
  /// (0 at/after EOF).
  virtual Result<std::size_t> pread(BackendFile file, std::span<std::byte> data,
                                    std::uint64_t offset) = 0;

  /// Fills the segments contiguously starting at `offset` (like ::preadv);
  /// returns total bytes read, which is short only at EOF. The default
  /// forwards segment by segment through pread(), so decorating backends
  /// (FaultyBackend, ThrottledBackend) keep their per-read behaviour;
  /// backends with a cheaper native path override it.
  virtual Result<std::size_t> preadv(BackendFile file,
                                     std::span<const BackendMutIoVec> iov,
                                     std::uint64_t offset) {
    std::uint64_t off = offset;
    std::size_t total = 0;
    for (const auto& seg : iov) {
      auto r = pread(file, {seg.data, seg.len}, off);
      if (!r.ok()) return r;
      total += r.value();
      if (r.value() < seg.len) break;  // EOF
      off += seg.len;
    }
    return total;
  }

  /// Flushes file data (and metadata) to stable storage.
  virtual Status fsync(BackendFile file) = 0;

  virtual Status truncate(BackendFile file, std::uint64_t size) = 0;

  // -- Metadata / namespace ops CRFS passes straight through ------------
  virtual Result<BackendStat> stat(const std::string& path) = 0;
  virtual Status mkdir(const std::string& path) = 0;
  virtual Status rmdir(const std::string& path) = 0;
  virtual Status unlink(const std::string& path) = 0;
  virtual Status rename(const std::string& from, const std::string& to) = 0;
  virtual Result<std::vector<std::string>> list_dir(const std::string& path) = 0;

  /// Human-readable backend name for mount banners and reports.
  virtual std::string name() const = 0;

  /// The TieredBackend this backend is or wraps, or nullptr. TieredBackend
  /// returns itself and decorators forward to what they wrap, so a mount
  /// finds its tier (epoch sealing, drain telemetry, drain knobs) through
  /// any stack of wrappers.
  virtual TieredBackend* tiered() { return nullptr; }
};

}  // namespace crfs
