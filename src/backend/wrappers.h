// Decorator backends used by tests and demos:
//   * FaultyBackend    - injects an error on the Nth write or read (or on
//                        fsync), exercising CRFS's failure propagation: a
//                        write error must surface at the application's
//                        close()/fsync(), a read error at its read().
//   * ThrottledBackend - caps write bandwidth and adds fixed per-op
//                        latency, letting real-mode examples demonstrate
//                        the IO-thread throttle without a slow disk.
#pragma once

#include <atomic>
#include <chrono>
#include <thread>

#include "backend/backend_fs.h"

namespace crfs {

/// Forwards everything to `inner`, failing selected operations.
class FaultyBackend final : public BackendFs {
 public:
  explicit FaultyBackend(std::shared_ptr<BackendFs> inner) : inner_(std::move(inner)) {}

  /// After this many successful pwrites, every further pwrite fails with
  /// EIO. Negative disables (default).
  void fail_writes_after(std::int64_t n) { fail_after_ = n; }
  /// After this many successful preads (counted from this call), every
  /// further pread fails with EIO. Negative disables (default), which
  /// also heals reads.
  void fail_reads_after(std::int64_t n) {
    reads_ = 0;
    fail_reads_after_ = n;
  }
  /// Makes every fsync fail with EIO.
  void fail_fsync(bool on) { fail_fsync_ = on; }
  /// Makes every open fail with EACCES.
  void fail_open(bool on) { fail_open_ = on; }

  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override {
    if (fail_open_) return Error{EACCES, "injected open failure"};
    return inner_->open_file(path, flags);
  }
  Status close_file(BackendFile f) override { return inner_->close_file(f); }
  Status pwrite(BackendFile f, std::span<const std::byte> d, std::uint64_t off) override {
    const std::int64_t limit = fail_after_.load();
    if (limit >= 0 && writes_.fetch_add(1) >= limit) {
      return Error{EIO, "injected write failure"};
    }
    return inner_->pwrite(f, d, off);
  }
  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    const std::int64_t limit = fail_reads_after_.load();
    if (limit >= 0 && reads_.fetch_add(1) >= limit) {
      return Error{EIO, "injected read failure"};
    }
    return inner_->pread(f, d, off);
  }
  Status fsync(BackendFile f) override {
    if (fail_fsync_) return Error{EIO, "injected fsync failure"};
    return inner_->fsync(f);
  }
  Status truncate(BackendFile f, std::uint64_t s) override { return inner_->truncate(f, s); }
  Result<BackendStat> stat(const std::string& p) override { return inner_->stat(p); }
  Status mkdir(const std::string& p) override { return inner_->mkdir(p); }
  Status rmdir(const std::string& p) override { return inner_->rmdir(p); }
  Status unlink(const std::string& p) override { return inner_->unlink(p); }
  Status rename(const std::string& a, const std::string& b) override {
    return inner_->rename(a, b);
  }
  Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_->list_dir(p);
  }
  std::string name() const override { return "faulty(" + inner_->name() + ")"; }
  TieredBackend* tiered() override { return inner_->tiered(); }

 private:
  std::shared_ptr<BackendFs> inner_;
  std::atomic<std::int64_t> fail_after_{-1};
  std::atomic<std::int64_t> writes_{0};
  std::atomic<std::int64_t> fail_reads_after_{-1};
  std::atomic<std::int64_t> reads_{0};
  std::atomic<bool> fail_fsync_{false};
  std::atomic<bool> fail_open_{false};
};

/// Rate-limits pwrite to `bytes_per_second` with `per_op_latency` added to
/// every write, emulating a slow/remote backend in real time. Reads pass
/// through untouched unless throttle_reads(true) — restore benches use
/// that to make the cold-read scan feel a slow device while the existing
/// write-side demos keep their fast passthrough reads.
class ThrottledBackend final : public BackendFs {
 public:
  ThrottledBackend(std::shared_ptr<BackendFs> inner, double bytes_per_second,
                   std::chrono::microseconds per_op_latency = {})
      : inner_(std::move(inner)),
        bytes_per_second_(bytes_per_second),
        per_op_latency_(per_op_latency) {}

  /// Applies the same bandwidth cap + per-op latency to pread/preadv.
  void throttle_reads(bool on) { throttle_reads_.store(on, std::memory_order_relaxed); }

  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override {
    return inner_->open_file(path, flags);
  }
  Status close_file(BackendFile f) override { return inner_->close_file(f); }
  Status pwrite(BackendFile f, std::span<const std::byte> d, std::uint64_t off) override {
    delay(d.size());
    return inner_->pwrite(f, d, off);
  }
  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    if (throttle_reads_.load(std::memory_order_relaxed)) delay(d.size());
    return inner_->pread(f, d, off);
  }
  Status fsync(BackendFile f) override { return inner_->fsync(f); }
  Status truncate(BackendFile f, std::uint64_t s) override { return inner_->truncate(f, s); }
  Result<BackendStat> stat(const std::string& p) override { return inner_->stat(p); }
  Status mkdir(const std::string& p) override { return inner_->mkdir(p); }
  Status rmdir(const std::string& p) override { return inner_->rmdir(p); }
  Status unlink(const std::string& p) override { return inner_->unlink(p); }
  Status rename(const std::string& a, const std::string& b) override {
    return inner_->rename(a, b);
  }
  Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_->list_dir(p);
  }
  std::string name() const override { return "throttled(" + inner_->name() + ")"; }
  TieredBackend* tiered() override { return inner_->tiered(); }

 private:
  void delay(std::size_t bytes) {
    const auto transfer =
        std::chrono::duration<double>(static_cast<double>(bytes) / bytes_per_second_);
    std::this_thread::sleep_for(per_op_latency_ + transfer);
  }

  std::shared_ptr<BackendFs> inner_;
  double bytes_per_second_;
  std::chrono::microseconds per_op_latency_;
  std::atomic<bool> throttle_reads_{false};
};

}  // namespace crfs
