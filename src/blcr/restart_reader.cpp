#include "blcr/restart_reader.h"

#include <memory>

#include "blcr/image_codec.h"

namespace crfs::blcr {

Result<RestartSummary> RestartReader::read_image(ByteSource& source) {
  ImageDecoder decoder(source);
  auto header = decoder.read_preamble(kMagic, kFormatVersion);
  if (!header.ok()) return header.error();

  RestartSummary out;
  out.pid = header.value().pid;
  out.vma_count = header.value().vma_count;
  // Verifies and discards: every payload streams through one cache-sized
  // slab, so a restore never allocates or faults in a mapping-sized
  // buffer. read_image_payloads (incremental.h) keeps the payloads.
  const auto slab = std::make_unique_for_overwrite<std::byte[]>(kPayloadSlab);
  for (std::uint32_t i = 0; i < out.vma_count; ++i) {
    auto vma = decoder.verify_vma({slab.get(), kPayloadSlab});
    if (!vma.ok()) return vma.error();
    out.image_bytes += vma.value().length;
    out.vmas.push_back(vma.value());
  }
  auto image_crc = decoder.read_trailer();
  if (!image_crc.ok()) return image_crc.error();
  out.payload_crc = image_crc.value();
  return out;
}

}  // namespace crfs::blcr
