// Shared POSIX vectored-write retry loop, extracted from
// PosixBackend::pwritev so the EINTR / short-write / resume logic is unit
// testable with an injected write function (tests/test_backend.cpp), plus
// the non-blocking page-cache read the restore pass-through uses.
#pragma once

#include <sys/uio.h>

#include <cerrno>
#include <cstddef>
#include <span>
#include <vector>

namespace crfs::posix_detail {

/// Drives `fn` (a ::pwritev-shaped callable: (iovec*, count, offset) ->
/// ssize_t, errno on failure) until every byte of `vecs` has been written
/// contiguously starting at `off`. Retries EINTR, resumes after short
/// writes by advancing past fully-written segments and trimming a
/// partially-written one. `vecs` is consumed (segments are modified in
/// place). Returns 0 on success or the failing errno.
template <typename WriteFn>
int pwritev_all(std::vector<struct iovec>& vecs, off_t off, WriteFn&& fn) {
  std::size_t idx = 0;  // first segment not fully written yet
  while (idx < vecs.size()) {
    const ssize_t n = fn(vecs.data() + idx, static_cast<int>(vecs.size() - idx), off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno != 0 ? errno : EIO;
    }
    if (n == 0) {
      // A 0-byte pwritev on a regular file should be impossible with
      // non-empty segments; treat it as an error rather than spinning.
      return EIO;
    }
    off += n;
    // Advance past fully written segments; trim a partially written one.
    std::size_t remaining = static_cast<std::size_t>(n);
    while (idx < vecs.size() && remaining >= vecs[idx].iov_len) {
      remaining -= vecs[idx].iov_len;
      ++idx;
    }
    if (idx < vecs.size() && remaining > 0) {
      vecs[idx].iov_base = static_cast<char*>(vecs[idx].iov_base) + remaining;
      vecs[idx].iov_len -= remaining;
    }
  }
  return 0;
}

/// Read-side mirror of pwritev_all: drives `fn` (a ::preadv-shaped
/// callable: (iovec*, count, offset) -> ssize_t, errno on failure) until
/// every byte of `vecs` has been filled contiguously starting at `off`
/// or EOF is hit. Retries EINTR and resumes after short reads the same
/// way; unlike the write side, a 0-byte result is legitimate (EOF) and
/// ends the loop. `vecs` is consumed. Returns 0 on success/EOF (with
/// `*nread` = bytes actually read) or the failing errno.
template <typename ReadFn>
int preadv_all(std::vector<struct iovec>& vecs, off_t off, std::size_t* nread,
               ReadFn&& fn) {
  *nread = 0;
  std::size_t idx = 0;  // first segment not fully filled yet
  while (idx < vecs.size()) {
    const ssize_t n = fn(vecs.data() + idx, static_cast<int>(vecs.size() - idx), off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno != 0 ? errno : EIO;
    }
    if (n == 0) return 0;  // EOF: report what we have
    off += n;
    *nread += static_cast<std::size_t>(n);
    // Advance past fully filled segments; trim a partially filled one.
    std::size_t remaining = static_cast<std::size_t>(n);
    while (idx < vecs.size() && remaining >= vecs[idx].iov_len) {
      remaining -= vecs[idx].iov_len;
      ++idx;
    }
    if (idx < vecs.size() && remaining > 0) {
      vecs[idx].iov_base = static_cast<char*>(vecs[idx].iov_base) + remaining;
      vecs[idx].iov_len -= remaining;
    }
  }
  return 0;
}

/// Copies into `out` what the page cache already holds of `fd` at `off`,
/// without blocking on the device: one preadv2(RWF_NOWAIT), retried on
/// EINTR. Returns the bytes copied, which fall short of out.size() at EOF
/// or at the first page not resident; 0 when nothing is (EAGAIN) or the
/// file system cannot read without blocking (EOPNOTSUPP). The caller
/// reads any shortfall the blocking way.
inline std::size_t pread_cached(int fd, std::span<std::byte> out, off_t off) {
  struct iovec vec{out.data(), out.size()};
  for (;;) {
    const ssize_t n = ::preadv2(fd, &vec, 1, off, RWF_NOWAIT);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno != EINTR) return 0;
  }
}

}  // namespace crfs::posix_detail
