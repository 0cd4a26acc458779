#include "blcr/restart_reader.h"

#include "blcr/image_codec.h"

namespace crfs::blcr {

Result<RestartSummary> RestartReader::read_image(ByteSource& source) {
  ImageDecoder decoder(source);
  auto header = decoder.read_preamble(kMagic, kFormatVersion);
  if (!header.ok()) return header.error();

  RestartSummary out;
  out.pid = header.value().pid;
  out.vma_count = header.value().vma_count;
  // Every mapping is restored into one reused buffer, as a restart would
  // fault its pages back in.
  std::vector<std::byte> payload;
  for (std::uint32_t i = 0; i < out.vma_count; ++i) {
    auto vma = decoder.read_vma(payload);
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
