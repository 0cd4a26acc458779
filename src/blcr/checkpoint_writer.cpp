#include "blcr/checkpoint_writer.h"

#include "blcr/image_codec.h"
#include "common/checksum.h"
#include "common/units.h"
#include "common/wall_clock.h"

namespace crfs::blcr {
namespace {

// Timed sink: forwards to the sink and records (size, duration).
class TimedSink final : public ByteSink {
 public:
  TimedSink(ByteSink& sink, trace::WriteRecorder* recorder)
      : sink_(sink), recorder_(recorder), epoch_(monotonic_seconds()) {}

  Status write(std::span<const std::byte> data) override {
    const double t0 = monotonic_seconds();
    const Status st = sink_.write(data);
    if (recorder_ != nullptr) {
      const double t1 = monotonic_seconds();
      recorder_->record(data.size(), t0 - epoch_, t1 - t0);
    }
    return st;
  }

  bool skip(std::uint64_t bytes) override { return sink_.skip(bytes); }

 private:
  ByteSink& sink_;
  trace::WriteRecorder* recorder_;
  double epoch_;
};

}  // namespace

std::vector<std::uint64_t> CheckpointWriter::payload_pieces(const Vma& vma) {
  std::vector<std::uint64_t> pieces;
  Rng rng(vma.content_seed ^ 0x9e3779b97f4a7c15ULL);
  std::uint64_t remaining = vma.length;

  switch (vma.type) {
    case VmaType::kText:
    case VmaType::kData:
    case VmaType::kLibrary: {
      // Library-ish mappings dump in small page runs: mostly 4-16 KB with
      // a 1-4 KB minority — Table I's dominant medium-op buckets.
      while (remaining > 0) {
        std::uint64_t piece;
        const double roll = rng.next_double();
        if (roll < 0.80) {
          piece = rng.uniform(4 * KiB, 16 * KiB - 1);
        } else if (roll < 0.98) {
          piece = rng.uniform(1 * KiB, 4 * KiB - 1);
        } else {
          piece = rng.uniform(16 * KiB, 48 * KiB);
        }
        piece = std::min(piece, remaining);
        pieces.push_back(piece);
        remaining -= piece;
      }
      break;
    }
    case VmaType::kStack:
    case VmaType::kAnonShared:
    case VmaType::kAnonPrivate: {
      // Dumped as a single writev of the whole mapping.
      pieces.push_back(remaining);
      remaining = 0;
      break;
    }
    case VmaType::kHeap: {
      // Large contiguous runs; mostly multi-megabyte with a 512K-1M tail
      // mix (Table I: >1M carries ~61% of data, 512K-1M ~18%).
      while (remaining > 0) {
        std::uint64_t piece;
        const double roll = rng.next_double();
        if (roll < 0.40) {
          piece = rng.uniform(3 * MiB / 2, 6 * MiB);
        } else if (roll < 0.89) {
          piece = rng.uniform(512 * KiB, 1 * MiB - 1);
        } else {
          piece = rng.uniform(256 * KiB, 512 * KiB - 1);
        }
        piece = std::min(piece, remaining);
        pieces.push_back(piece);
        remaining -= piece;
      }
      break;
    }
  }
  return pieces;
}

Result<std::uint64_t> CheckpointWriter::write_image(const ProcessImage& image,
                                                    ByteSink& sink,
                                                    trace::WriteRecorder* recorder,
                                                    const WriterOptions& options) {
  TimedSink out(sink, recorder);
  CRFS_RETURN_IF_ERROR(write_preamble(
      out, kMagic, kFormatVersion,
      {image.pid, static_cast<std::uint32_t>(image.vmas.size()), image.content_bytes()}));

  // The whole-image CRC is combined from the per-VMA CRCs, so each
  // payload byte is hashed once.
  std::uint64_t image_crc = 0;
  std::vector<std::byte> payload;
  for (const auto& vma : image.vmas) {
    const std::uint64_t vma_crc = generate_vma_payload(vma, payload);
    image_crc = crc64_combine(image_crc, vma_crc, vma.length);
    CRFS_RETURN_IF_ERROR(write_vma_header(out, vma, vma_crc));
    CRFS_RETURN_IF_ERROR(write_payload(out, payload, payload_pieces(vma), options));
  }
  CRFS_RETURN_IF_ERROR(write_trailer(out, image_crc));
  return image_crc;
}

std::vector<PlannedWrite> CheckpointWriter::plan(const ProcessImage& image) {
  std::vector<PlannedWrite> ops;
  ops.push_back({sizeof(kMagic)});
  ops.push_back({sizeof(kFormatVersion)});
  ops.push_back({sizeof(image.pid)});
  ops.push_back({sizeof(std::uint32_t)});
  ops.push_back({sizeof(std::uint64_t)});
  for (unsigned i = 0; i < kContextRegisters; ++i) ops.push_back({8});
  ops.push_back({kContextBlobBytes});
  ops.push_back({kContextBlobBytes});
  ops.push_back({8});  // context crc
  for (const auto& vma : image.vmas) {
    for (unsigned i = 0; i < kVmaHeaderWrites; ++i) ops.push_back({8});
    for (const std::uint64_t piece : payload_pieces(vma)) ops.push_back({piece});
  }
  ops.push_back({8});
  ops.push_back({sizeof(kEndMagic)});
  return ops;
}

}  // namespace crfs::blcr
