// CRC64 (ECMA-182) used by the integrity tests and the restart verifier to
// prove that data passing through CRFS aggregation is byte-identical to
// what the checkpoint writer produced.
//
// Both CRCs run on slice-by-8 tables. On x86-64, Crc64 folds with
// carry-less multiplies instead, picking the widest kernel the CPU runs at
// run time: 256-byte steps on four zmm registers with AVX-512 VPCLMULQDQ,
// else 64-byte steps on four xmm registers with PCLMULQDQ. Both end in the
// same 64-byte loop and table tail. Every kernel yields the same digest as
// the bytewise definition, so stored digests stay valid across CPUs and
// builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace crfs {

/// Incremental CRC64. Feed data in any chunking; the digest is chunking-
/// independent, which is exactly what the aggregation tests rely on.
class Crc64 {
 public:
  Crc64();

  void update(std::span<const std::byte> data);
  void update(const void* data, std::size_t size);

  std::uint64_t digest() const { return ~state_; }

  /// One-shot convenience.
  static std::uint64_t of(const void* data, std::size_t size);

 private:
  std::uint64_t state_;
};

/// CRC64 of A followed by B, from crc(A), crc(B) and B's length in bytes,
/// without touching the data (zlib's crc32_combine method: multiply crc(A)
/// by x^(8*len_b) mod P). Lets a reader that already hashed each record
/// build the whole-stream digest without hashing any byte twice.
std::uint64_t crc64_combine(std::uint64_t crc_a, std::uint64_t crc_b, std::uint64_t len_b);

/// Incremental CRC32 (IEEE 802.3, reflected). Smaller than Crc64 on purpose:
/// journal frame headers carry it inline, and 4 bytes per frame is enough to
/// reject a torn tail.
class Crc32 {
 public:
  Crc32();

  void update(std::span<const std::byte> data);
  void update(const void* data, std::size_t size);

  std::uint32_t digest() const { return ~state_; }

  /// One-shot convenience.
  static std::uint32_t of(const void* data, std::size_t size);

 private:
  std::uint32_t state_;
};

namespace detail {

// The individual CRC64 kernels, for the oracle tests. Each maps a raw
// (pre-inversion) CRC register and a buffer to the updated register;
// Crc64::update dispatches to the fastest one the CPU supports.
std::uint64_t crc64_update_table(std::uint64_t state, const void* data, std::size_t size);
std::uint64_t crc64_update_pclmul(std::uint64_t state, const void* data, std::size_t size);
std::uint64_t crc64_update_vpclmul(std::uint64_t state, const void* data, std::size_t size);
/// True when this CPU can run crc64_update_pclmul.
bool crc64_pclmul_supported();
/// True when this CPU can run crc64_update_vpclmul (AVX-512F and
/// VPCLMULQDQ).
bool crc64_vpclmul_supported();

}  // namespace detail

}  // namespace crfs
