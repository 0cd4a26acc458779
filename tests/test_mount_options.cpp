// Mount-option table: range checks, bool spellings and the render/parse
// round trip, driven by kMountOptionTable itself. Nothing here mounts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crfs/mount_options.h"

namespace crfs {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

void expect_rejected(const Status& st, std::string_view key, const std::string& what) {
  ASSERT_FALSE(st.ok()) << what;
  EXPECT_EQ(st.error().code, EINVAL) << what;
  EXPECT_NE(st.error().context.find("'" + std::string(key) + "'"), std::string::npos)
      << what << ": " << st.error().context;
}

TEST(MountOptions, RejectsEveryOutOfRangeValue) {
  int checked = 0;
  for (const OptionRow& row : kMountOptionTable) {
    if (row.kind != OptionKind::kSize && row.kind != OptionKind::kUint) continue;
    const auto [lo, hi] = option_range(row);
    std::vector<std::uint64_t> bads;
    if (lo > 0) bads.push_back(lo - 1);
    if (hi < kMax) bads.push_back(hi + 1);
    for (const std::uint64_t bad : bads) {
      const std::string text = std::string(row.key) + "=" + std::to_string(bad);
      const auto parsed = parse_mount_options(text);
      expect_rejected(parsed.ok() ? Status{} : Status{parsed.error()}, row.key, text);
      // A Config built in code gets the same check, where the field can
      // hold the value at all.
      MountOptions built;
      set_option_value(row, built, bad);
      if (option_value(row, built.config, built.fuse) == bad) {
        expect_rejected(built.config.validate(), row.key, "validate() " + text);
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 30);
}

TEST(MountOptions, ThreadCountIsBounded) {
  EXPECT_TRUE(parse_mount_options("threads=256").ok());
  EXPECT_FALSE(parse_mount_options("threads=257").ok());
  EXPECT_FALSE(parse_mount_options("threads=100000").ok());
  Config cfg;
  cfg.io_threads = 100000;
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(MountOptions, EveryBoolTakesEachSpelling) {
  for (const OptionRow& row : kMountOptionTable) {
    if (row.kind != OptionKind::kBool) continue;
    const std::string key(row.key);
    const std::pair<std::string, std::uint64_t> spellings[] = {
        {key, 1}, {key + "=on", 1}, {key + "=off", 0}, {"no_" + key, 0}};
    for (const auto& [spelling, want] : spellings) {
      const auto parsed = parse_mount_options("sample_ms=10," + spelling);
      ASSERT_TRUE(parsed.ok()) << spelling << ": " << parsed.error().to_string();
      EXPECT_EQ(option_value(row, parsed.value().config, parsed.value().fuse), want)
          << spelling;
    }
    EXPECT_FALSE(parse_mount_options(key + "=maybe").ok()) << key;
    EXPECT_FALSE(parse_mount_options("no_" + key + "=on").ok()) << key;
  }
  const auto paper = parse_mount_options("paper_reads");
  ASSERT_TRUE(paper.ok());
  EXPECT_FALSE(paper.value().config.flush_before_read);
  // An empty key is no bool's spelling.
  EXPECT_FALSE(parse_mount_options("=").ok());
  EXPECT_FALSE(parse_mount_options("=on").ok());
}

// A value in [lo, hi], log-uniform in magnitude and often a boundary.
std::uint64_t draw(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  switch (rng.next_below(8)) {
    case 0: return lo;
    case 1: return hi;
    default: break;
  }
  const std::uint64_t x = rng.next_u64() >> rng.next_below(64);
  const std::uint64_t span = hi - lo;
  return lo + (span == kMax ? x : x % (span + 1));
}

// Each row keeps its default half the time, so that switches stay off
// often enough for their settings to be drawn inactive (sample_ring with
// no sampler, drain_mbps with no stage, ...).
MountOptions random_options(Rng& rng) {
  MountOptions out;
  for (const OptionRow& row : kMountOptionTable) {
    if (rng.bernoulli(0.5)) continue;
    if (row.kind == OptionKind::kPath) {
      out.config.*std::get<std::string Config::*>(row.field) =
          "/p/" + std::to_string(rng.next_below(1000));
      continue;
    }
    const auto [lo, hi] = option_range(row);
    std::uint64_t v = draw(rng, lo, hi);
    if (row.kind == OptionKind::kSize && rng.bernoulli(0.5)) v = std::max(lo, v / KiB * KiB);
    set_option_value(row, out, v);
  }
  return out;
}

TEST(MountOptions, RandomValidOptionsRoundTripThroughFormat) {
  Rng rng(0x0c0ffee);
  int valid = 0;
  int drawn = 0;
  while (valid < 1000) {
    ASSERT_LT(++drawn, 1'000'000) << "too few draws pass validate()";
    const MountOptions x = random_options(rng);
    if (!x.config.validate().ok()) continue;
    ++valid;
    const std::string text = format_mount_options(x);
    const auto y = parse_mount_options(text);
    ASSERT_TRUE(y.ok()) << text << ": " << y.error().to_string();
    for (const OptionRow& row : kMountOptionTable) {
      if (row.kind == OptionKind::kPath) {
        const auto field = std::get<std::string Config::*>(row.field);
        ASSERT_EQ(y.value().config.*field, x.config.*field) << row.key << " in " << text;
      } else {
        ASSERT_EQ(option_value(row, y.value().config, y.value().fuse),
                  option_value(row, x.config, x.fuse))
            << row.key << " in " << text;
      }
    }
  }
}

TEST(MountOptions, CommaInPathIsRejected) {
  // Rendered, this would parse back as journal=/tmp/j plus trace on.
  Config j;
  j.journal_dir = "/tmp/j,trace";
  expect_rejected(j.validate(), "journal", "journal=/tmp/j,trace");
  for (const OptionRow& row : kMountOptionTable) {
    if (row.kind != OptionKind::kPath) continue;
    MountOptions x;
    x.config.*std::get<std::string Config::*>(row.field) = "/a,b";
    expect_rejected(x.config.validate(), row.key, std::string(row.key) + "=/a,b");
  }
}

TEST(MountOptions, SlowPwriteNeedsTheSampler) {
  // The slow_pwrite rule runs on the sampler tick: without one the
  // threshold would be accepted and never judged.
  const auto alone = parse_mount_options("slow_pwrite_ms=5");
  expect_rejected(alone.ok() ? Status{} : Status{alone.error()}, "slow_pwrite_ms",
                  "slow_pwrite_ms=5");
  Config cfg;
  cfg.slow_pwrite_ms = 5;
  expect_rejected(cfg.validate(), "slow_pwrite_ms", "Config slow_pwrite_ms=5");
  const auto sampled = parse_mount_options("sample_ms=10,slow_pwrite_ms=5");
  ASSERT_TRUE(sampled.ok()) << sampled.error().to_string();
  EXPECT_EQ(sampled.value().config.slow_pwrite_ms, 5u);
}

TEST(MountOptions, DescribeNamesOnlyChangedSettings) {
  const std::string d = Config{}.describe();
  for (const char* key : {"io_batch", "readahead_window", "slow_capture_ms", "drain_parallel"}) {
    EXPECT_EQ(d.find(key), std::string::npos) << key << " in default describe(): " << d;
  }
  Config changed;
  changed.io_batch = 2;
  changed.readahead_window = 7;
  EXPECT_NE(changed.describe().find(" io_batch=2"), std::string::npos);
  EXPECT_NE(changed.describe().find(" readahead_window=7"), std::string::npos);
}

TEST(MountOptions, DefaultsRenderEmpty) {
  EXPECT_EQ(format_mount_options(MountOptions{}), "");
}

}  // namespace
}  // namespace crfs
