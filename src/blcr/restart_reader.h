// RestartReader: the restart half of the checkpoint cycle (paper §V-F).
//
// "During restart, BLCR library reads from checkpoint files and restores
// the in-memory context for every process." The reader parses the image
// format, recovers every VMA descriptor, and verifies per-VMA and
// whole-image CRCs — which is also how the integration tests prove that
// data passing through CRFS aggregation is byte-identical. It keeps no
// payload: each one streams through a single cache-sized slab
// (image_codec.h kPayloadSlab). read_image_payloads (incremental.h) is the
// reader that keeps them.
#pragma once

#include <functional>
#include <span>

#include "blcr/checkpoint_format.h"
#include "blcr/process_image.h"
#include "common/result.h"

namespace crfs::blcr {

/// Source of checkpoint bytes. Sequential, like the writer's sink.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  /// Reads exactly data.size() bytes unless EOF truncates; returns bytes read.
  virtual Result<std::size_t> read(std::span<std::byte> data) = 0;
};

/// Adapts any callable Result<size_t>(span<byte>) into a ByteSource.
class FnSource final : public ByteSource {
 public:
  explicit FnSource(std::function<Result<std::size_t>(std::span<std::byte>)> fn)
      : fn_(std::move(fn)) {}
  Result<std::size_t> read(std::span<std::byte> data) override { return fn_(data); }

 private:
  std::function<Result<std::size_t>(std::span<std::byte>)> fn_;
};

/// What a successful restart recovered.
struct RestartSummary {
  std::uint32_t pid = 0;
  std::uint32_t vma_count = 0;
  std::uint64_t image_bytes = 0;    ///< payload bytes restored
  std::uint64_t payload_crc = 0;    ///< CRC over all payloads, matches trailer
  std::vector<Vma> vmas;            ///< recovered VMA descriptors
};

class RestartReader {
 public:
  /// Parses and verifies a full checkpoint image, then discards its
  /// payloads. Fails with EILSEQ-style errors on bad magic, truncated
  /// stream, or CRC mismatch.
  static Result<RestartSummary> read_image(ByteSource& source);
};

}  // namespace crfs::blcr
