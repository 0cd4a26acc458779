#include "blcr/image_codec.h"

#include <array>
#include <cerrno>
#include <cstring>

#include "common/checksum.h"
#include "common/units.h"

namespace crfs::blcr {
namespace {

constexpr std::uint64_t kPage = 4096;

/// Registers then both blobs: the bytes the context CRC covers.
constexpr std::size_t kContextBytes = kContextRegisters * 8 + 2 * kContextBlobBytes;

/// Restart faults a mapping back in slab by slab.
constexpr std::size_t kPayloadSlab = 1 * MiB;

/// A header longer than this is corrupt, not a real mapping.
constexpr std::uint64_t kMaxVmaBytes = 1024 * MiB;

bool is_all_zero(const std::byte* data, std::uint64_t size) {
  for (std::uint64_t i = 0; i < size; ++i) {
    if (data[i] != std::byte{0}) return false;
  }
  return true;
}

// Writes one piece page run by page run: non-zero runs densely, zero runs
// of at least min_skip_run as holes (densely if the sink cannot skip).
Status write_sparse(ByteSink& sink, const std::byte* data, std::uint64_t size,
                    std::uint64_t min_skip_run) {
  std::uint64_t pos = 0;
  while (pos < size) {
    const bool zero = is_all_zero(data + pos, std::min(kPage, size - pos));
    std::uint64_t run_end = std::min(pos + kPage, size);
    while (run_end < size &&
           is_all_zero(data + run_end, std::min(kPage, size - run_end)) == zero) {
      run_end = std::min(run_end + kPage, size);
    }
    const std::uint64_t run = run_end - pos;
    if (!(zero && run >= min_skip_run && sink.skip(run))) {
      CRFS_RETURN_IF_ERROR(sink.write({data + pos, run}));
    }
    pos = run_end;
  }
  return {};
}

}  // namespace

Status write_preamble(ByteSink& sink, const char (&magic)[8], std::uint32_t version,
                      const ImageHeader& header) {
  CRFS_RETURN_IF_ERROR(sink.write({reinterpret_cast<const std::byte*>(magic), sizeof(magic)}));
  CRFS_RETURN_IF_ERROR(write_pod(sink, version));
  CRFS_RETURN_IF_ERROR(write_pod(sink, header.pid));
  CRFS_RETURN_IF_ERROR(write_pod(sink, header.vma_count));
  CRFS_RETURN_IF_ERROR(write_pod(sink, header.image_bytes));

  // Context: registers + fpu/siginfo blobs, deterministic in the pid.
  Rng ctx_rng(header.pid + 0xC0DEULL);
  Crc64 ctx_crc;
  for (unsigned i = 0; i < kContextRegisters; ++i) {
    const std::uint64_t reg = ctx_rng.next_u64();
    ctx_crc.update(&reg, sizeof(reg));
    CRFS_RETURN_IF_ERROR(write_pod(sink, reg));
  }
  std::array<std::byte, kContextBlobBytes> blob{};
  for (auto& b : blob) b = static_cast<std::byte>(ctx_rng.next_u64());
  ctx_crc.update(blob.data(), blob.size());
  ctx_crc.update(blob.data(), blob.size());
  CRFS_RETURN_IF_ERROR(sink.write(blob));
  CRFS_RETURN_IF_ERROR(sink.write(blob));
  return write_pod(sink, ctx_crc.digest());
}

Status write_vma_header(ByteSink& sink, const Vma& vma, std::uint64_t payload_crc) {
  const std::uint64_t prot_type =
      (static_cast<std::uint64_t>(vma.prot) << 32) | static_cast<std::uint32_t>(vma.type);
  CRFS_RETURN_IF_ERROR(write_pod(sink, vma.start));
  CRFS_RETURN_IF_ERROR(write_pod(sink, vma.length));
  CRFS_RETURN_IF_ERROR(write_pod(sink, prot_type));
  CRFS_RETURN_IF_ERROR(write_pod(sink, vma.content_seed));
  return write_pod(sink, payload_crc);
}

Status write_payload(ByteSink& sink, std::span<const std::byte> payload,
                     std::span<const std::uint64_t> pieces, const WriterOptions& options) {
  std::uint64_t off = 0;
  for (const std::uint64_t piece : pieces) {
    if (options.elide_zero_pages) {
      CRFS_RETURN_IF_ERROR(write_sparse(sink, payload.data() + off, piece, options.min_skip_run));
    } else {
      CRFS_RETURN_IF_ERROR(sink.write(payload.subspan(off, piece)));
    }
    off += piece;
  }
  return {};
}

Status write_trailer(ByteSink& sink, std::uint64_t image_crc) {
  CRFS_RETURN_IF_ERROR(write_pod(sink, image_crc));
  return sink.write({reinterpret_cast<const std::byte*>(kEndMagic), sizeof(kEndMagic)});
}

Status read_exact(ByteSource& source, void* out, std::size_t size, const char* what) {
  auto r = source.read({static_cast<std::byte*>(out), size});
  if (!r.ok()) return r.error();
  if (r.value() != size) return Error{EILSEQ, std::string("truncated checkpoint at ") + what};
  return {};
}

Result<ImageHeader> ImageDecoder::read_preamble(const char (&magic)[8],
                                                std::uint32_t version) {
  char magic_in[sizeof(magic)] = {};
  CRFS_RETURN_IF_ERROR(read_exact(source_, magic_in, sizeof(magic_in), "magic"));
  if (std::memcmp(magic_in, magic, sizeof(magic)) != 0) {
    return Error{EILSEQ, "bad checkpoint magic"};
  }
  std::uint32_t version_in = 0;
  CRFS_RETURN_IF_ERROR(read_pod(source_, version_in, "version"));
  if (version_in != version) {
    return Error{EILSEQ, "unsupported checkpoint version " + std::to_string(version_in)};
  }
  ImageHeader header;
  CRFS_RETURN_IF_ERROR(read_pod(source_, header.pid, "pid"));
  CRFS_RETURN_IF_ERROR(read_pod(source_, header.vma_count, "vma_count"));
  CRFS_RETURN_IF_ERROR(read_pod(source_, header.image_bytes, "image_bytes"));
  declared_bytes_ = header.image_bytes;

  std::array<std::byte, kContextBytes> context{};
  CRFS_RETURN_IF_ERROR(read_exact(source_, context.data(), context.size(), "context"));
  std::uint64_t stored_ctx_crc = 0;
  CRFS_RETURN_IF_ERROR(read_pod(source_, stored_ctx_crc, "context crc"));
  if (stored_ctx_crc != Crc64::of(context.data(), context.size())) {
    return Error{EILSEQ, "context CRC mismatch (corrupt checkpoint)"};
  }
  return header;
}

Status ImageDecoder::count_payload(std::uint64_t length) {
  if (length > kMaxVmaBytes) return Error{EILSEQ, "implausible VMA length (corrupt header)"};
  // Checked before any payload is read, so a corrupt length can neither
  // overrun the declared image nor size a huge buffer.
  if (length > declared_bytes_ - restored_bytes_) {
    return Error{EILSEQ, "image byte count mismatch"};
  }
  restored_bytes_ += length;
  return {};
}

Result<Vma> ImageDecoder::read_vma(std::vector<std::byte>& payload) {
  std::uint64_t field[kVmaHeaderWrites] = {};  // start, length, prot+type, seed, crc
  CRFS_RETURN_IF_ERROR(read_exact(source_, field, sizeof(field), "vma header"));
  Vma vma;
  vma.start = field[0];
  vma.length = field[1];
  vma.prot = static_cast<std::uint32_t>(field[2] >> 32);
  vma.type = static_cast<VmaType>(static_cast<std::uint32_t>(field[2]));
  vma.content_seed = field[3];
  const std::uint64_t stored_crc = field[4];
  CRFS_RETURN_IF_ERROR(count_payload(vma.length));

  payload.resize(vma.length);
  Crc64 crc;
  for (std::size_t got = 0; got < payload.size();) {
    const std::size_t slab = std::min(kPayloadSlab, payload.size() - got);
    CRFS_RETURN_IF_ERROR(read_exact(source_, payload.data() + got, slab, "vma payload"));
    crc.update(payload.data() + got, slab);
    got += slab;
  }
  if (crc.digest() != stored_crc) {
    return Error{EILSEQ, "VMA payload CRC mismatch (corrupt checkpoint)"};
  }
  image_crc_ = crc64_combine(image_crc_, stored_crc, vma.length);
  return vma;
}

Status ImageDecoder::add_verified_payload(std::uint64_t payload_crc, std::uint64_t length) {
  CRFS_RETURN_IF_ERROR(count_payload(length));
  image_crc_ = crc64_combine(image_crc_, payload_crc, length);
  return {};
}

Result<std::uint64_t> ImageDecoder::read_trailer() {
  if (restored_bytes_ != declared_bytes_) return Error{EILSEQ, "image byte count mismatch"};
  std::uint64_t trailer_crc = 0;
  CRFS_RETURN_IF_ERROR(read_pod(source_, trailer_crc, "trailer crc"));
  if (trailer_crc != image_crc_) return Error{EILSEQ, "whole-image CRC mismatch"};
  char end[sizeof(kEndMagic)] = {};
  CRFS_RETURN_IF_ERROR(read_exact(source_, end, sizeof(end), "end magic"));
  if (std::memcmp(end, kEndMagic, sizeof(kEndMagic)) != 0) {
    return Error{EILSEQ, "bad end magic"};
  }
  return image_crc_;
}

}  // namespace crfs::blcr
