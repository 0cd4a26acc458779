#include "blcr/incremental.h"

#include <algorithm>

#include "blcr/image_codec.h"
#include "common/checksum.h"

namespace crfs::blcr {
namespace {

constexpr std::uint32_t kChanged = 1;
constexpr std::uint32_t kUnchanged = 0;

}  // namespace

ImageDigest digest_image(const ProcessImage& image) {
  ImageDigest out;
  out.reserve(image.vmas.size());
  std::vector<std::byte> payload;
  for (const auto& vma : image.vmas) {
    out.push_back({vma.start, vma.length, generate_vma_payload(vma, payload)});
  }
  return out;
}

ImageDigest digest_of(const MaterializedImage& image) {
  ImageDigest out;
  out.reserve(image.vmas.size());
  for (const auto& vma : image.vmas) {
    auto it = image.payloads.find(vma.start);
    if (it == image.payloads.end()) continue;
    out.push_back({vma.start, vma.length,
                   Crc64::of(it->second.data(), it->second.size())});
  }
  return out;
}

Result<MaterializedImage> read_image_payloads(ByteSource& source) {
  // RestartReader::read_image verifies and discards; this keeps payloads.
  ImageDecoder decoder(source);
  auto header = decoder.read_preamble(kMagic, kFormatVersion);
  if (!header.ok()) return header.error();

  MaterializedImage out;
  out.pid = header.value().pid;
  for (std::uint32_t i = 0; i < header.value().vma_count; ++i) {
    std::vector<std::byte> payload;
    auto vma = decoder.read_vma(payload);
    if (!vma.ok()) return vma.error();
    out.vmas.push_back(vma.value());
    out.payloads.emplace(vma.value().start, std::move(payload));
  }
  auto image_crc = decoder.read_trailer();
  if (!image_crc.ok()) return image_crc.error();
  out.payload_crc = image_crc.value();
  return out;
}

Result<DeltaStats> write_delta_image(const ProcessImage& image, const ImageDigest& parent,
                                     ByteSink& sink, const WriterOptions& options) {
  std::map<std::uint64_t, VmaDigest> parent_by_start;
  for (const auto& d : parent) parent_by_start.emplace(d.start, d);

  CRFS_RETURN_IF_ERROR(write_preamble(
      sink, kDeltaMagic, kDeltaVersion,
      {image.pid, static_cast<std::uint32_t>(image.vmas.size()), image.content_bytes()}));

  DeltaStats stats;
  std::vector<std::byte> payload;
  for (const auto& vma : image.vmas) {
    const std::uint64_t crc = generate_vma_payload(vma, payload);
    stats.full_image_crc = crc64_combine(stats.full_image_crc, crc, vma.length);

    const auto it = parent_by_start.find(vma.start);
    const bool unchanged = it != parent_by_start.end() &&
                           it->second.length == vma.length &&
                           it->second.payload_crc == crc;
    if (unchanged) {
      CRFS_RETURN_IF_ERROR(write_pod(sink, kUnchanged));
      CRFS_RETURN_IF_ERROR(write_pod(sink, vma.start));
      CRFS_RETURN_IF_ERROR(write_pod(sink, vma.length));
      CRFS_RETURN_IF_ERROR(write_pod(sink, crc));
      stats.unchanged_vmas += 1;
      stats.payload_bytes_referenced += vma.length;
      continue;
    }

    CRFS_RETURN_IF_ERROR(write_pod(sink, kChanged));
    CRFS_RETURN_IF_ERROR(write_vma_header(sink, vma, crc));
    const std::uint64_t whole[] = {vma.length};
    CRFS_RETURN_IF_ERROR(write_payload(sink, payload, whole, options));
    stats.changed_vmas += 1;
    stats.payload_bytes_written += vma.length;
  }

  CRFS_RETURN_IF_ERROR(write_trailer(sink, stats.full_image_crc));
  return stats;
}

Result<MaterializedImage> read_delta_image(ByteSource& delta,
                                           const MaterializedImage& parent) {
  ImageDecoder decoder(delta);
  auto header = decoder.read_preamble(kDeltaMagic, kDeltaVersion);
  if (!header.ok()) return header.error();

  MaterializedImage out;
  out.pid = header.value().pid;
  for (std::uint32_t i = 0; i < header.value().vma_count; ++i) {
    std::uint32_t tag = 0;
    CRFS_RETURN_IF_ERROR(read_pod(delta, tag, "vma tag"));
    if (tag == kUnchanged) {
      std::uint64_t ref[3] = {};  // start, length, payload crc
      CRFS_RETURN_IF_ERROR(read_exact(delta, ref, sizeof(ref), "vma reference"));
      const auto [start, length, crc] = ref;
      // Resolve against the parent and verify its ACTUAL content.
      const auto pv = parent.payloads.find(start);
      if (pv == parent.payloads.end() || pv->second.size() != length) {
        return Error{EILSEQ, "delta references a VMA the parent lacks"};
      }
      if (Crc64::of(pv->second.data(), pv->second.size()) != crc) {
        return Error{EILSEQ, "parent VMA content does not match delta reference"};
      }
      const auto pd = std::find_if(parent.vmas.begin(), parent.vmas.end(),
                                   [&](const Vma& v) { return v.start == start; });
      if (pd == parent.vmas.end()) return Error{EILSEQ, "parent VMA descriptor missing"};
      CRFS_RETURN_IF_ERROR(decoder.add_verified_payload(crc, length));
      out.vmas.push_back(*pd);
      out.payloads.emplace(start, pv->second);
      continue;
    }
    if (tag != kChanged) return Error{EILSEQ, "bad delta VMA tag"};

    std::vector<std::byte> payload;
    auto vma = decoder.read_vma(payload);
    if (!vma.ok()) return vma.error();
    out.vmas.push_back(vma.value());
    out.payloads.emplace(vma.value().start, std::move(payload));
  }
  auto image_crc = decoder.read_trailer();
  if (!image_crc.ok()) return image_crc.error();
  out.payload_crc = image_crc.value();
  return out;
}

ProcessImage mutate_image(const ProcessImage& image, double change_fraction,
                          std::uint64_t seed) {
  ProcessImage out = image;
  Rng rng(seed);
  for (auto& vma : out.vmas) {
    if (rng.next_double() < change_fraction) {
      vma.content_seed = rng.next_u64();  // new content, same layout
    }
  }
  return out;
}

}  // namespace crfs::blcr
