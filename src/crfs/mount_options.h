// Mount-option string parsing: "chunk=4M,pool=16M,threads=4,big_writes".
//
// The real CRFS is configured through mount options (`-o` on the fuse
// command line); tools and scripts here use the same convention so a
// deployment can keep its tuning in one string.
//
// Every option is one row of kMountOptionTable below. The parser, the
// renderer, Config::validate()'s range checks and the knob plane's bounds
// all read that row; README.md's "Mount options" table is checked against
// it by scripts/check_options_docs.sh. Defaults are not in the table: they
// are the member initialisers of Config and FuseOptions.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "crfs/config.h"
#include "obs/knobs.h"

namespace crfs {

/// Parsed mount options: the CRFS Config plus FUSE options.
struct MountOptions {
  Config config;
  FuseOptions fuse;
};

/// How an option's value is spelled.
enum class OptionKind {
  kSize,  ///< key=<n>[K|M|G], bytes
  kUint,  ///< key=<n>
  kBool,  ///< key, no_key, key=on|off
  kEnum,  ///< key=<one of the row's choices>
  kPath,  ///< key=<non-empty text>; the empty default means off
};

/// Where an option's value lives in MountOptions.
using OptionField = std::variant<std::size_t Config::*, unsigned Config::*, bool Config::*,
                                 std::string Config::*, bool FuseOptions::*>;

/// One mount option.
struct OptionRow {
  std::string_view key;
  OptionKind kind;
  OptionField field;
  /// Inclusive range in option units (kSize, kUint); hi is further capped
  /// by the field's type. option_range() gives the effective range.
  std::uint64_t lo = 0;
  std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
  /// The knob plane's unit when the option is also a runtime knob, whose
  /// bounds are then option_range() (see knob_def); empty otherwise.
  std::string_view unit = {};
  std::string_view doc = {};
  /// kEnum: the accepted values, '|'-separated, stored as their own text
  /// in a string field.
  std::string_view choices = {};
  /// kBool: one more spelling of no_<key>.
  std::string_view alias = {};
};

inline constexpr auto kMountOptionTable = [] {
  using enum OptionKind;
  return std::to_array<OptionRow>({
      {.key = "chunk", .kind = kSize, .field = &Config::chunk_size, .lo = 1,
       .doc = "aggregation chunk size (paper §IV-B)"},
      {.key = "pool", .kind = kSize, .field = &Config::pool_size, .lo = 1,
       .doc = "buffer-pool capacity; pool/chunk chunks are carved at mount"},
      {.key = "threads", .kind = kUint, .field = &Config::io_threads, .lo = 1, .hi = 256,
       .doc = "IO worker threads"},
      {.key = "io_batch", .kind = kUint, .field = &Config::io_batch, .lo = 1,
       .unit = "chunks", .doc = "chunks an IO worker dequeues per wakeup (1 = no batching)"},
      {.key = "bypass", .kind = kBool, .field = &Config::large_write_bypass,
       .doc = "chunk-sized appends skip the pool memcpy"},
      {.key = "big_writes", .kind = kBool, .field = &FuseOptions::big_writes,
       .doc = "128 KiB (on) or 4 KiB FUSE write requests"},
      {.key = "flush_before_read", .kind = kBool, .field = &Config::flush_before_read,
       .doc = "reads flush buffered data first (off = the paper's passthrough)",
       .alias = "paper_reads"},
      {.key = "readahead", .kind = kBool, .field = &Config::readahead, .unit = "bool",
       .doc = "sequential restore prefetch on the IO threads"},
      {.key = "readahead_window", .kind = kUint, .field = &Config::readahead_window,
       .lo = 1, .hi = 1024, .unit = "chunks", .doc = "chunk reads in flight ahead of a scan"},
      {.key = "epochs", .kind = kBool, .field = &Config::epoch_tracking,
       .doc = "checkpoint-epoch ledger and attribution"},
      {.key = "epoch_gap_ms", .kind = kUint, .field = &Config::epoch_gap_ms, .lo = 1,
       .hi = 600000, .unit = "ms", .doc = "open/close quiet gap that starts a new epoch"},
      {.key = "epoch_ledger", .kind = kUint, .field = &Config::epoch_ledger, .lo = 1,
       .doc = "finished epoch records kept"},
      {.key = "trace", .kind = kBool, .field = &Config::enable_tracing,
       .doc = "span events for Chrome-trace export"},
      {.key = "sample_ms", .kind = kUint, .field = &Config::sample_ms, .hi = 10000,
       .unit = "ms", .doc = "live sampler period (0 = no sampler)"},
      {.key = "sample_ring", .kind = kUint, .field = &Config::sample_ring, .lo = 1,
       .doc = "sampler frames kept"},
      {.key = "slow_pwrite_ms", .kind = kUint, .field = &Config::slow_pwrite_ms, .hi = 100000,
       .unit = "ms", .doc = "slow_pwrite health rule: p99 threshold (0 = off)"},
      {.key = "slow_capture_ms", .kind = kUint, .field = &Config::slow_capture_ms,
       .hi = 100000, .unit = "ms", .doc = "slow-exemplar capture threshold (0 = off)"},
      {.key = "slow_exemplars", .kind = kUint, .field = &Config::slow_exemplars, .lo = 1,
       .doc = "slow exemplars kept"},
      {.key = "tune_pool_max", .kind = kSize, .field = &Config::tune_pool_max,
       .doc = "runtime pool-growth ceiling (0 = 4x pool)"},
      {.key = "tune_io_batch_max", .kind = kUint, .field = &Config::tune_io_batch_max,
       .lo = 1, .doc = "runtime io_batch ceiling"},
      {.key = "journal", .kind = kPath, .field = &Config::journal_dir,
       .doc = "durable telemetry journal directory"},
      {.key = "journal_fsync_ms", .kind = kUint, .field = &Config::journal_fsync_ms,
       .hi = 600000, .unit = "ms", .doc = "journal fsync cadence (0 = on rotation only)"},
      {.key = "journal_segment", .kind = kSize, .field = &Config::journal_segment_bytes,
       .lo = 1, .doc = "journal segment rotation size"},
      {.key = "journal_max", .kind = kSize, .field = &Config::journal_max_bytes, .lo = 1,
       .doc = "journal on-disk retention bound"},
      {.key = "slo_lag_ms", .kind = kUint, .field = &Config::slo_lag_ms,
       .doc = "durability-lag p99 target (0 = off)"},
      {.key = "slo_stall_pct", .kind = kUint, .field = &Config::slo_stall_pct, .hi = 100,
       .doc = "pool-stall wall-time share target (0 = off)"},
      {.key = "slo_ttfb_ms", .kind = kUint, .field = &Config::slo_ttfb_ms,
       .doc = "restore read p99 target (0 = off)"},
      {.key = "slo_short_s", .kind = kUint, .field = &Config::slo_short_s, .lo = 1,
       .doc = "short burn-rate window"},
      {.key = "slo_long_s", .kind = kUint, .field = &Config::slo_long_s, .lo = 1,
       .doc = "long burn-rate window"},
      {.key = "stage", .kind = kPath, .field = &Config::tier_stage,
       .doc = "staging tier: mem or a directory"},
      {.key = "remote", .kind = kPath, .field = &Config::tier_remote,
       .doc = "remote tier directory"},
      {.key = "stage_cap", .kind = kSize, .field = &Config::stage_cap,
       .doc = "staged bytes before writers block (0 = unbounded)"},
      {.key = "drain_mbps", .kind = kUint, .field = &Config::drain_mbps, .hi = 1'000'000,
       .unit = "MB/s", .doc = "drain bandwidth cap toward the remote (0 = unthrottled)"},
      {.key = "drain_parallel", .kind = kUint, .field = &Config::drain_parallel, .lo = 1,
       .hi = 64, .unit = "threads", .doc = "max remote write streams, one per file"},
      {.key = "fsync_mode", .kind = kEnum, .field = &Config::fsync_mode,
       .doc = "what fsync() promises on a tiered mount", .choices = "stage|remote"},
  });
}();

/// The row of option `key`, or nullptr.
constexpr const OptionRow* find_option(std::string_view key) {
  for (const OptionRow& row : kMountOptionTable) {
    if (row.key == key) return &row;
  }
  return nullptr;
}

/// Number of '|'-separated choices of a kEnum row.
constexpr std::uint64_t choice_count(const OptionRow& row) {
  return static_cast<std::uint64_t>(std::count(row.choices.begin(), row.choices.end(), '|')) +
         1;
}

/// The inclusive range a row's value must lie in, in option units: bools
/// are 0/1, enums a choice index, and kPath rows have none.
constexpr std::pair<std::uint64_t, std::uint64_t> option_range(const OptionRow& row) {
  if (row.kind == OptionKind::kBool) return {0, 1};
  if (row.kind == OptionKind::kEnum) return {0, choice_count(row) - 1};
  const std::uint64_t type_max = std::visit(
      []<class C, class T>(T C::*) -> std::uint64_t {
        if constexpr (std::is_integral_v<T>) return std::numeric_limits<T>::max();
        return 0;
      },
      row.field);
  return {row.lo, std::min(row.hi, type_max)};
}

/// The knob plane's declaration of runtime knob `name`, bounds and unit
/// from its option row. Shared by the real mount, the DES node and the
/// observability plane, which each keep their own apply hook.
inline KnobDef knob_def(std::string_view name, const Config& cfg) {
  // pool_chunks retunes pool_size in whole chunks; its ceiling is
  // tune_pool_max (0 = 4x the mount-time pool).
  if (name == "pool_chunks") {
    const std::size_t cap_bytes = cfg.tune_pool_max != 0 ? cfg.tune_pool_max : cfg.pool_size * 4;
    return {"pool_chunks", 1.0,
            static_cast<double>(std::max<std::size_t>(1, cap_bytes / cfg.chunk_size)), "chunks"};
  }
  const OptionRow* row = find_option(name);
  if (row == nullptr || row->unit.empty()) std::abort();  // knob names are knob rows' keys
  const auto [lo, hi] = option_range(*row);
  KnobDef def{std::string(name), static_cast<double>(lo), static_cast<double>(hi),
              std::string(row->unit)};
  if (name == "io_batch") def.max_value = static_cast<double>(cfg.tune_io_batch_max);
  // sample_ms=0 means "no sampler" at mount; the knob only retunes a
  // running sampler, so its floor is 1.
  if (name == "sample_ms") def.min_value = 1.0;
  return def;
}

/// A row's value in option units (bools 0/1, enums their choice index; a
/// string enum holding no choice reads as the choice count). Not for kPath.
std::uint64_t option_value(const OptionRow& row, const Config& config,
                           const FuseOptions& fuse);

/// Stores `value`, in option units, into the row's field. Not for kPath.
void set_option_value(const OptionRow& row, MountOptions& options, std::uint64_t value);

/// Parses a comma-separated option list (keys: kMountOptionTable). Sizes
/// accept K/M/G suffixes. Unknown keys and malformed or out-of-range values
/// return an EINVAL error naming the key; so does a configuration that
/// fails Config::validate(), naming the fields of the rule it breaks.
Result<MountOptions> parse_mount_options(std::string_view text);

/// Renders every option whose value differs from its default, in table
/// order; parse_mount_options() of the result gives `options` back.
std::string format_mount_options(const MountOptions& options);

}  // namespace crfs
