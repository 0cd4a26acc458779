// Tests for the checkpoint image codec as all three readers see it:
// RestartReader::read_image, read_image_payloads and read_delta_image. A
// corrupted image must never restore, whichever reader parses it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "blcr/incremental.h"
#include "blcr/restart_reader.h"
#include "common/units.h"

namespace crfs::blcr {
namespace {

class VecSink final : public ByteSink {
 public:
  Status write(std::span<const std::byte> data) override {
    bytes.insert(bytes.end(), data.begin(), data.end());
    return {};
  }
  std::vector<std::byte> bytes;
};

class VecSource final : public ByteSource {
 public:
  explicit VecSource(std::vector<std::byte> b) : bytes_(std::move(b)) {}
  Result<std::size_t> read(std::span<std::byte> out) override {
    const std::size_t n = std::min(out.size(), bytes_.size() - pos_);
    std::memcpy(out.data(), bytes_.data() + pos_, n);
    pos_ += n;
    return n;
  }

 private:
  std::vector<std::byte> bytes_;
  std::size_t pos_ = 0;
};

// Byte layout of the format (checkpoint_format.h).
constexpr std::size_t kImageBytesOffset = 8 + 4 + 4 + 4;  // magic, version, pid, vma_count
constexpr std::size_t kContextOffset = kImageBytesOffset + 8;
constexpr std::size_t kPreambleBytes =
    kContextOffset + kContextRegisters * 8 + 2 * kContextBlobBytes + 8;
constexpr std::size_t kVmaHeaderBytes = kVmaHeaderWrites * 8;
constexpr std::size_t kDeltaTagBytes = 4;
constexpr std::size_t kDeltaRefBytes = kDeltaTagBytes + 3 * 8;
constexpr std::size_t kTrailerBytes = 8 + sizeof(kEndMagic);

// Leads with two equal-length mappings, so their records can trade places
// without moving any other byte.
ProcessImage small_image() {
  ProcessImage img;
  img.pid = 42;
  img.vmas = {
      {.start = 0x400000, .length = 64 * KiB, .prot = 0x5, .type = VmaType::kText,
       .content_seed = 1},
      {.start = 0x420000, .length = 64 * KiB, .prot = 0x3, .type = VmaType::kData,
       .content_seed = 2},
      {.start = 0x440000, .length = 200 * KiB + 123, .prot = 0x3, .type = VmaType::kHeap,
       .content_seed = 3},
      {.start = 0x480000, .length = 5000, .prot = 0x3, .type = VmaType::kStack,
       .content_seed = 4},
  };
  return img;
}

std::vector<std::byte> full_image(const ProcessImage& img) {
  VecSink sink;
  EXPECT_TRUE(CheckpointWriter::write_image(img, sink).ok());
  return std::move(sink.bytes);
}

// The parent a delta of small_image() composes over.
const MaterializedImage& parent_image() {
  static const MaterializedImage parent = [] {
    VecSource src(full_image(small_image()));
    return read_image_payloads(src).value();
  }();
  return parent;
}

// small_image() with its two equal-length mappings changed (delta records)
// and the rest unchanged (references to parent_image()).
ProcessImage next_image() {
  ProcessImage img = small_image();
  img.vmas[0].content_seed = 11;
  img.vmas[1].content_seed = 12;
  return img;
}

std::vector<std::byte> delta_image() {
  VecSink sink;
  const auto stats = write_delta_image(next_image(), digest_image(small_image()), sink);
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().changed_vmas, 2u);
  return std::move(sink.bytes);
}

Status restart_reader(std::vector<std::byte> bytes) {
  VecSource src(std::move(bytes));
  auto r = RestartReader::read_image(src);
  return r.ok() ? Status{} : r.error();
}

Status payload_reader(std::vector<std::byte> bytes) {
  VecSource src(std::move(bytes));
  auto r = read_image_payloads(src);
  return r.ok() ? Status{} : r.error();
}

Status delta_reader(std::vector<std::byte> bytes) {
  VecSource src(std::move(bytes));
  auto r = read_delta_image(src, parent_image());
  return r.ok() ? Status{} : r.error();
}

void swap_ranges(std::vector<std::byte>& bytes, std::size_t a, std::size_t b, std::size_t n) {
  std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(a),
                   bytes.begin() + static_cast<std::ptrdiff_t>(a + n),
                   bytes.begin() + static_cast<std::ptrdiff_t>(b));
}

// The byte ranges of one image whose every bit some check covers.
struct Section {
  std::string name;
  std::size_t offset;
  std::size_t size;
};

// Format v1 leaves the header's pid and each VMA header's start,
// prot+type and seed outside every CRC: a flip there restores a wrong
// descriptor, so those fields are not swept. Everything else is.
std::vector<Section> checked_sections(const ProcessImage& img, bool delta,
                                      std::size_t total_size) {
  std::vector<Section> out = {
      {"magic+version", 0, 12},
      {"vma_count+image_bytes", 16, 12},
      {"context", kContextOffset, kPreambleBytes - kContextOffset},
  };
  std::size_t pos = kPreambleBytes;
  for (std::size_t i = 0; i < img.vmas.size(); ++i) {
    const std::string vma = "vma " + std::to_string(i);
    if (delta) {
      if (i >= 2) {  // reference: tag, start, length, crc
        out.push_back({vma + " reference", pos, kDeltaRefBytes});
        pos += kDeltaRefBytes;
        continue;
      }
      out.push_back({vma + " tag", pos, kDeltaTagBytes});
      pos += kDeltaTagBytes;
    }
    out.push_back({vma + " length", pos + 8, 8});
    out.push_back({vma + " crc", pos + 32, 8});
    pos += kVmaHeaderBytes;
    out.push_back({vma + " payload", pos, img.vmas[i].length});
    pos += img.vmas[i].length;
  }
  out.push_back({"trailer", pos, kTrailerBytes});
  EXPECT_EQ(pos + kTrailerBytes, total_size);
  return out;
}

// Flips one bit at each sampled offset of every checked section (every
// byte of small sections, ~64 spread over large ones) and expects `reader`
// to reject each corrupted copy.
void expect_every_flip_rejected(const std::vector<std::byte>& image,
                                const std::vector<Section>& sections,
                                Status (*reader)(std::vector<std::byte>)) {
  ASSERT_TRUE(reader(image).ok());
  for (const Section& s : sections) {
    const std::size_t stride = std::max<std::size_t>(1, s.size / 64);
    for (std::size_t off = s.offset; off < s.offset + s.size; off += stride) {
      auto corrupted = image;
      corrupted[off] ^= static_cast<std::byte>(1u << (off % 8));
      const Status st = reader(std::move(corrupted));
      ASSERT_FALSE(st.ok()) << "bit flip in " << s.name << " at byte " << off << " restored";
      EXPECT_EQ(st.error().code, EILSEQ) << s.name << ": " << st.error().to_string();
    }
  }
}

TEST(ImageCodec, EveryReaderAcceptsItsImage) {
  const auto img = small_image();
  const auto full = full_image(img);
  EXPECT_TRUE(restart_reader(full).ok());
  EXPECT_TRUE(payload_reader(full).ok());
  ASSERT_TRUE(delta_reader(delta_image()).ok());

  VecSource src(delta_image());
  auto composed = read_delta_image(src, parent_image());
  ASSERT_TRUE(composed.ok());
  VecSource next_src(full_image(next_image()));
  EXPECT_EQ(composed.value().payload_crc, RestartReader::read_image(next_src).value().payload_crc);
}

TEST(ImageCodec, RejectsRewrittenByteCount) {
  const auto img = small_image();
  const auto full = full_image(img);
  for (const std::uint64_t declared :
       {img.content_bytes() + 1, img.content_bytes() - 1, img.content_bytes() + 64 * KiB,
        std::uint64_t{0}}) {
    auto rewritten = full;
    std::memcpy(rewritten.data() + kImageBytesOffset, &declared, sizeof(declared));
    const Status restart = restart_reader(rewritten);
    const Status payloads = payload_reader(rewritten);
    ASSERT_FALSE(restart.ok()) << "declared " << declared;
    ASSERT_FALSE(payloads.ok()) << "declared " << declared;
    EXPECT_EQ(restart.error().code, EILSEQ);
    EXPECT_EQ(payloads.error().code, EILSEQ);
  }
}

// Each per-VMA CRC still matches its swapped record, so only the
// order-sensitive whole-image CRC can catch the swap.
TEST(ImageCodec, SwappedVmaRecordsAreRejected) {
  const auto img = small_image();
  ASSERT_EQ(img.vmas[0].length, img.vmas[1].length);

  auto full = full_image(img);
  const std::size_t record = kVmaHeaderBytes + img.vmas[0].length;
  swap_ranges(full, kPreambleBytes, kPreambleBytes + record, record);
  for (auto* reader : {restart_reader, payload_reader}) {
    const Status st = reader(full);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().context.find("whole-image CRC"), std::string::npos)
        << st.error().to_string();
  }

  auto delta = delta_image();
  const std::size_t delta_record = kDeltaTagBytes + record;
  swap_ranges(delta, kPreambleBytes, kPreambleBytes + delta_record, delta_record);
  const Status st = delta_reader(delta);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().context.find("whole-image CRC"), std::string::npos)
      << st.error().to_string();
}

TEST(ImageCodec, EveryBitFlipIsRejectedByTheRestartReader) {
  const auto img = small_image();
  const auto full = full_image(img);
  expect_every_flip_rejected(full, checked_sections(img, false, full.size()), restart_reader);
}

TEST(ImageCodec, EveryBitFlipIsRejectedByThePayloadReader) {
  const auto img = small_image();
  const auto full = full_image(img);
  expect_every_flip_rejected(full, checked_sections(img, false, full.size()), payload_reader);
}

TEST(ImageCodec, EveryBitFlipIsRejectedByTheDeltaReader) {
  const auto delta = delta_image();
  expect_every_flip_rejected(delta, checked_sections(next_image(), true, delta.size()),
                             delta_reader);
}

}  // namespace
}  // namespace crfs::blcr
