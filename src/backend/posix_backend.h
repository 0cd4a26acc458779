// PosixBackend: a BackendFs rooted at a real directory.
//
// All paths handed to the backend are interpreted relative to the root
// via openat/mkdirat etc., so a CRFS mount can never escape its backing
// directory even if a caller passes "..".
#pragma once

#include <string>

#include "backend/backend_fs.h"

namespace crfs {

class PosixBackend final : public BackendFs {
 public:
  /// Opens (and requires) an existing directory as the backing root.
  static Result<std::unique_ptr<PosixBackend>> create(const std::string& root);

  ~PosixBackend() override;

  PosixBackend(const PosixBackend&) = delete;
  PosixBackend& operator=(const PosixBackend&) = delete;

  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override;
  Status close_file(BackendFile file) override;
  Status pwrite(BackendFile file, std::span<const std::byte> data,
                std::uint64_t offset) override;
  /// Native ::pwritev — one syscall for a whole run of adjacent chunks.
  Status pwritev(BackendFile file, std::span<const BackendIoVec> iov,
                 std::uint64_t offset) override;
  /// BackendFile is the fd itself, so the read path can probe the page
  /// cache directly.
  int raw_fd(BackendFile file) const override { return static_cast<int>(file); }
  Result<std::size_t> pread(BackendFile file, std::span<std::byte> data,
                            std::uint64_t offset) override;
  /// Native ::preadv — one syscall to fill a run of chunk buffers.
  Result<std::size_t> preadv(BackendFile file, std::span<const BackendMutIoVec> iov,
                             std::uint64_t offset) override;
  Status fsync(BackendFile file) override;
  Status truncate(BackendFile file, std::uint64_t size) override;

  Result<BackendStat> stat(const std::string& path) override;
  Status mkdir(const std::string& path) override;
  Status rmdir(const std::string& path) override;
  Status unlink(const std::string& path) override;
  Status rename(const std::string& from, const std::string& to) override;
  Result<std::vector<std::string>> list_dir(const std::string& path) override;

  std::string name() const override { return "posix:" + root_path_; }

 private:
  explicit PosixBackend(int root_fd, std::string root_path);

  /// Strips leading '/' and rejects ".." components.
  static Result<std::string> sanitize(const std::string& path);

  int root_fd_;
  std::string root_path_;
};

}  // namespace crfs
