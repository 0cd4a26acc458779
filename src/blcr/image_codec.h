// The one encoder and decoder of the checkpoint image records laid out in
// checkpoint_format.h. CheckpointWriter, RestartReader and both delta
// paths (incremental.h) go through it, so every reader enforces the same
// checks: magic, version, context CRC, per-VMA CRC, declared byte count,
// whole-image CRC and end magic.
//
// Each payload byte is hashed once: the per-VMA CRC is computed as the
// payload arrives, and the whole-image CRC is built from the per-VMA CRCs
// with crc64_combine.
#pragma once

#include <span>
#include <vector>

#include "blcr/checkpoint_writer.h"
#include "blcr/restart_reader.h"

namespace crfs::blcr {

/// The file-header fields after the magic and version.
struct ImageHeader {
  std::uint32_t pid = 0;
  std::uint32_t vma_count = 0;
  std::uint64_t image_bytes = 0;  ///< payload bytes over all VMAs
};

// ---- encoding: every field is its own write, as BLCR issues them -------

template <typename T>
Status write_pod(ByteSink& sink, const T& value) {
  return sink.write({reinterpret_cast<const std::byte*>(&value), sizeof(T)});
}

/// The file header, then the CRC-protected context section.
Status write_preamble(ByteSink& sink, const char (&magic)[8], std::uint32_t version,
                      const ImageHeader& header);

/// A per-VMA header: start, length, prot+type, seed, payload CRC.
Status write_vma_header(ByteSink& sink, const Vma& vma, std::uint64_t payload_crc);

/// Writes `payload` as `pieces` (sizes summing to payload.size()). With
/// options.elide_zero_pages, runs of all-zero 4 KB pages of at least
/// options.min_skip_run bytes become sink holes where the sink can skip.
Status write_payload(ByteSink& sink, std::span<const std::byte> payload,
                     std::span<const std::uint64_t> pieces, const WriterOptions& options);

/// Whole-image CRC, then the end magic.
Status write_trailer(ByteSink& sink, std::uint64_t image_crc);

// ---- decoding ----------------------------------------------------------

/// Reads exactly `size` bytes, or fails with EILSEQ naming `what`.
Status read_exact(ByteSource& source, void* out, std::size_t size, const char* what);

template <typename T>
Status read_pod(ByteSource& source, T& out, const char* what) {
  return read_exact(source, &out, sizeof(T), what);
}

/// Decodes one image front to back: read_preamble, then one read_vma (or
/// add_verified_payload) per VMA, then read_trailer.
class ImageDecoder {
 public:
  explicit ImageDecoder(ByteSource& source) : source_(source) {}

  /// Checks magic and version, reads the header and verifies the context
  /// CRC.
  Result<ImageHeader> read_preamble(const char (&magic)[8], std::uint32_t version);

  /// Reads one VMA record. The payload lands in `payload` (resized to the
  /// VMA length) in 1 MiB slabs, each hashed while it is cache-hot; the
  /// result must match the record's CRC and is folded into the image CRC.
  Result<Vma> read_vma(std::vector<std::byte>& payload);

  /// Counts a payload the caller already holds and has checked against
  /// `payload_crc` (a delta's reference to its parent).
  Status add_verified_payload(std::uint64_t payload_crc, std::uint64_t length);

  /// Checks the restored byte count against the header, the trailer
  /// against the image CRC, and the end magic. Returns the image CRC.
  Result<std::uint64_t> read_trailer();

 private:
  Status count_payload(std::uint64_t length);

  ByteSource& source_;
  std::uint64_t declared_bytes_ = 0;
  std::uint64_t restored_bytes_ = 0;
  std::uint64_t image_crc_ = 0;  // CRC64 of the empty string
};

}  // namespace crfs::blcr
