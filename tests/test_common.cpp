// Unit tests for src/common: result, rng, units, histogram, stats,
// checksum, table renderers.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "common/checksum.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace crfs {
namespace {

// ---------------------------------------------------------------- Result

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Error{ENOENT, "missing"};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ENOENT);
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_NE(r.error().to_string().find("missing"), std::string::npos);
}

TEST(Status, DefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s = Error{EIO, "boom"};
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, EIO);
}

Status fails() { return Error{EACCES, "inner"}; }
Status propagates() {
  CRFS_RETURN_IF_ERROR(fails());
  return {};
}

TEST(Status, ReturnIfErrorMacroPropagates) {
  const Status s = propagates();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, EACCES);
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, ChildStreamsIndependent) {
  Rng parent(7);
  Rng c0 = parent.child(0);
  Rng c1 = parent.child(1);
  EXPECT_NE(c0.next_u64(), c1.next_u64());
  // Children are reproducible.
  Rng c0_again = Rng(7).child(0);
  c0 = Rng(7).child(0);
  EXPECT_EQ(c0.next_u64(), c0_again.next_u64());
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);  // all residues hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng r(17);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.05);
  EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

// ----------------------------------------------------------------- Units

TEST(Units, ParseBytesPlain) {
  EXPECT_EQ(parse_bytes("4096").value(), 4096u);
  EXPECT_EQ(parse_bytes("0").value(), 0u);
}

TEST(Units, ParseBytesSuffixes) {
  EXPECT_EQ(parse_bytes("128K").value(), 128 * KiB);
  EXPECT_EQ(parse_bytes("4M").value(), 4 * MiB);
  EXPECT_EQ(parse_bytes("1G").value(), 1 * GiB);
  EXPECT_EQ(parse_bytes("4m").value(), 4 * MiB);
  EXPECT_EQ(parse_bytes("16MiB").value(), 16 * MiB);
  EXPECT_EQ(parse_bytes("2KB").value(), 2 * KiB);
}

TEST(Units, ParseBytesRejectsGarbage) {
  EXPECT_FALSE(parse_bytes("").has_value());
  EXPECT_FALSE(parse_bytes("abc").has_value());
  EXPECT_FALSE(parse_bytes("12Q").has_value());
  EXPECT_FALSE(parse_bytes("4M4").has_value());
  EXPECT_FALSE(parse_bytes("99999999999999999999999").has_value());
}

TEST(Units, FormatBytesRoundTripsMagnitude) {
  EXPECT_EQ(format_bytes(512), "512");
  EXPECT_EQ(format_bytes(4 * KiB), "4.0K");
  EXPECT_EQ(format_bytes(16 * MiB), "16.0M");
  EXPECT_EQ(format_bytes(3 * GiB / 2), "1.5G");
}

TEST(Units, FormatSeconds) { EXPECT_EQ(format_seconds(5.53), "5.5 s"); }

// ------------------------------------------------------------- Histogram

TEST(WriteSizeHistogram, BucketIndexMatchesTableOne) {
  EXPECT_EQ(WriteSizeHistogram::bucket_index(0), 0);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(63), 0);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(64), 1);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(255), 1);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(1023), 2);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(4 * KiB - 1), 3);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(4 * KiB), 4);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(16 * KiB), 5);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(64 * KiB), 6);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(256 * KiB), 7);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(512 * KiB), 8);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(1 * MiB), 9);
  EXPECT_EQ(WriteSizeHistogram::bucket_index(100 * MiB), 9);
}

TEST(WriteSizeHistogram, AccumulatesAndMerges) {
  WriteSizeHistogram a, b;
  a.record(10, 0.001);
  a.record(8 * KiB, 0.010);
  b.record(2 * MiB, 0.100);
  a.merge(b);
  EXPECT_EQ(a.total_ops(), 3u);
  EXPECT_EQ(a.total_bytes(), 10 + 8 * KiB + 2 * MiB);
  EXPECT_NEAR(a.total_seconds(), 0.111, 1e-9);
}

TEST(WriteSizeHistogram, RenderContainsAllBuckets) {
  WriteSizeHistogram h;
  h.record(100, 0.5);
  const std::string table = h.render_table("profile");
  for (int i = 0; i < WriteSizeHistogram::kNumBuckets; ++i) {
    EXPECT_NE(table.find(WriteSizeHistogram::bucket_label(i)), std::string::npos)
        << "missing bucket " << i;
  }
}

TEST(WriteSizeHistogram, LabelsMatchPaper) {
  EXPECT_EQ(WriteSizeHistogram::bucket_label(0), "0-64");
  EXPECT_EQ(WriteSizeHistogram::bucket_label(4), "4K-16K");
  EXPECT_EQ(WriteSizeHistogram::bucket_label(9), "> 1M");
}

// ----------------------------------------------------------------- Stats

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  RunningStats a, b, all;
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Samples, ExactPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-12);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-12);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(42.0);
  EXPECT_EQ(s.median(), 42.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
}

// -------------------------------------------------------------- Checksum

// Bytewise reference CRCs, with their tables built bit by bit from the
// reflected polynomials: the oracle every fast kernel must match. Each step
// maps a raw (pre-inversion) register, like the detail:: kernels.
template <typename T, T kPoly>
T crc_bytewise_step(T crc, unsigned char byte) {
  static const auto table = [] {
    std::array<T, 256> t{};
    for (unsigned i = 0; i < 256; ++i) {
      T c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
}

constexpr auto crc64_step = crc_bytewise_step<std::uint64_t, 0xC96C5795D7870F42ULL>;
constexpr auto crc32_step = crc_bytewise_step<std::uint32_t, 0xEDB88320U>;

std::uint64_t crc64_bytewise(std::uint64_t crc, const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) crc = crc64_step(crc, p[i]);
  return crc;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<unsigned char> data(n);
  Rng r(seed);
  for (auto& b : data) b = static_cast<unsigned char>(r.next_u64());
  return data;
}

using Crc64KernelFn = std::uint64_t (*)(std::uint64_t, const void*, std::size_t);

// Every length 0-4097 at every start alignment 0-15, from the standard
// initial register and from an arbitrary mid-stream one. The reference
// for length n extends the one for n-1 by a single byte.
void expect_kernel_matches_bytewise(Crc64KernelFn kernel) {
  const auto data = random_bytes(4097 + 16, 7);
  for (std::size_t align = 0; align < 16; ++align) {
    const unsigned char* p = data.data() + align;
    for (const std::uint64_t init : {~0ULL, 0x0123456789ABCDEFULL}) {
      std::uint64_t expected = init;
      for (std::size_t len = 0; len <= 4097; ++len) {
        if (len > 0) expected = crc64_step(expected, p[len - 1]);
        ASSERT_EQ(kernel(init, p, len), expected) << "len=" << len << " align=" << align;
      }
    }
  }
}

void expect_kernel_matches_bytewise_on_huge_buffer(Crc64KernelFn kernel) {
  const auto data = random_bytes(64 * MiB + 13 + 1, 8);
  const unsigned char* p = data.data() + 1;  // misaligned start
  const std::size_t n = data.size() - 1;
  EXPECT_EQ(kernel(~0ULL, p, n), crc64_bytewise(~0ULL, p, n));
}

TEST(Crc64, KnownValueStable) {
  // CRC-64/XZ check value: pins the digests already stored in MANIFESTs.
  EXPECT_EQ(Crc64::of("123456789", 9), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(Crc64::of(nullptr, 0), 0u);
}

TEST(Crc32, KnownValueStable) {
  // CRC-32/ISO-HDLC check value: pins the journal's frame digests.
  EXPECT_EQ(Crc32::of("123456789", 9), 0xCBF43926U);
  const auto data = random_bytes(4097 + 16, 9);
  for (std::size_t align = 0; align < 16; ++align) {
    const unsigned char* p = data.data() + align;
    std::uint32_t expected = ~0U;
    for (std::size_t len = 0; len <= 4097; ++len) {
      if (len > 0) expected = crc32_step(expected, p[len - 1]);
      ASSERT_EQ(Crc32::of(p, len), ~expected) << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc64, TableKernelMatchesBytewise) {
  expect_kernel_matches_bytewise(detail::crc64_update_table);
}

TEST(Crc64, TableKernelMatchesBytewiseOnHugeBuffer) {
  expect_kernel_matches_bytewise_on_huge_buffer(detail::crc64_update_table);
}

TEST(Crc64, PclmulKernelMatchesBytewise) {
  if (!detail::crc64_pclmul_supported()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  expect_kernel_matches_bytewise(detail::crc64_update_pclmul);
}

TEST(Crc64, PclmulKernelMatchesBytewiseOnHugeBuffer) {
  if (!detail::crc64_pclmul_supported()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  expect_kernel_matches_bytewise_on_huge_buffer(detail::crc64_update_pclmul);
}

TEST(Crc64, Vpclmul512KernelMatchesBytewise) {
  if (!detail::crc64_vpclmul_supported()) GTEST_SKIP() << "CPU lacks AVX-512 VPCLMULQDQ";
  expect_kernel_matches_bytewise(detail::crc64_update_vpclmul);
}

TEST(Crc64, Vpclmul512KernelMatchesBytewiseOnHugeBuffer) {
  if (!detail::crc64_vpclmul_supported()) GTEST_SKIP() << "CPU lacks AVX-512 VPCLMULQDQ";
  expect_kernel_matches_bytewise_on_huge_buffer(detail::crc64_update_vpclmul);
}

TEST(Crc64, RandomSplitsMatchOneShot) {
  const auto data = random_bytes(1 * MiB + 77, 10);
  const auto whole = Crc64::of(data.data(), data.size());
  Rng cuts(11);
  for (int round = 0; round < 20; ++round) {
    Crc64 pieces;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t n =
          std::min<std::size_t>(cuts.uniform(0, 64 * KiB), data.size() - pos);
      pieces.update(data.data() + pos, n);
      pos += n;
    }
    ASSERT_EQ(pieces.digest(), whole) << "round " << round;
  }
}

TEST(Crc64, CombineMatchesConcatenation) {
  const auto data = random_bytes(300 * KiB, 12);
  Rng cuts(13);
  for (int round = 0; round < 50; ++round) {
    const std::size_t split = cuts.uniform(0, data.size());
    const auto a = Crc64::of(data.data(), split);
    const auto b = Crc64::of(data.data() + split, data.size() - split);
    ASSERT_EQ(crc64_combine(a, b, data.size() - split), Crc64::of(data.data(), data.size()))
        << "split at " << split;
  }
  // Identities: an empty right side leaves crc(A); an empty left side
  // (digest 0) leaves crc(B).
  const auto a = Crc64::of(data.data(), 1000);
  EXPECT_EQ(crc64_combine(a, Crc64::of(nullptr, 0), 0), a);
  EXPECT_EQ(crc64_combine(Crc64::of(nullptr, 0), a, 1000), a);
  EXPECT_EQ(crc64_combine(0, 0, 0), 0u);
}

TEST(Crc64, ChunkingIndependent) {
  std::vector<std::byte> data(100000);
  Rng r(44);
  for (auto& b : data) b = static_cast<std::byte>(r.next_u64());

  const auto whole = Crc64::of(data.data(), data.size());

  Crc64 pieces;
  std::size_t pos = 0;
  Rng sizes(45);
  while (pos < data.size()) {
    const std::size_t n =
        std::min<std::size_t>(sizes.uniform(1, 4096), data.size() - pos);
    pieces.update(data.data() + pos, n);
    pos += n;
  }
  EXPECT_EQ(pieces.digest(), whole);
}

TEST(Crc64, DetectsSingleBitFlip) {
  std::vector<unsigned char> data(4096, 0xAB);
  const auto before = Crc64::of(data.data(), data.size());
  data[1234] ^= 0x01;
  EXPECT_NE(Crc64::of(data.data(), data.size()), before);
}

// ----------------------------------------------------------------- Table

TEST(TextTable, RendersAlignedCells) {
  TextTable t({"a", "long_header"});
  t.add_row({"hello", "1"});
  t.add_rule();
  t.add_row({"x", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
  // All lines equal width.
  std::size_t width = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t nl = out.find('\n', pos);
    const std::size_t len = nl - pos;
    if (width == 0) width = len;
    EXPECT_EQ(len, width);
    pos = nl + 1;
  }
}

TEST(BarChart, RendersValues) {
  BarChart c("title", "s");
  c.add("native", 6.0);
  c.add("crfs", 1.1);
  const std::string out = c.render();
  EXPECT_NE(out.find("native"), std::string::npos);
  EXPECT_NE(out.find("6.0 s"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(ScatterPlot, RendersGlyphs) {
  ScatterPlot p("plot");
  p.add_series('*', {{1, 1}, {10, 2}, {100, 3}});
  p.set_log_x(true);
  const std::string out = p.render();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("(log x)"), std::string::npos);
}

}  // namespace
}  // namespace crfs
