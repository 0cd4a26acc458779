#include "crfs/mount_options.h"

#include <cerrno>
#include <charconv>
#include <type_traits>

namespace crfs {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

// The member a field pointer names, inside `config` or `fuse`.
template <class Cfg, class Fuse, class T>
auto& field_ref(Cfg& config, Fuse&, T Config::*m) {
  return config.*m;
}
template <class Cfg, class Fuse, class T>
auto& field_ref(Cfg& config, Fuse&, T obs::HealthConfig::*m) {
  return config.health.*m;
}
template <class Cfg, class Fuse, class T>
auto& field_ref(Cfg&, Fuse& fuse, T FuseOptions::*m) {
  return fuse.*m;
}

std::string_view choice(const OptionRow& row, std::uint64_t index) {
  std::string_view rest = row.choices;
  for (; index > 0; --index) rest.remove_prefix(rest.find('|') + 1);
  return rest.substr(0, rest.find('|'));
}

std::uint64_t choice_index(const OptionRow& row, std::string_view value) {
  std::uint64_t i = 0;
  while (i < choice_count(row) && choice(row, i) != value) ++i;
  return i;
}

// Exact (re-parseable) size rendering: "4M", "512K", or raw bytes.
std::string exact_size(std::uint64_t bytes) {
  if (bytes != 0 && bytes % GiB == 0) return std::to_string(bytes / GiB) + "G";
  if (bytes != 0 && bytes % MiB == 0) return std::to_string(bytes / MiB) + "M";
  if (bytes != 0 && bytes % KiB == 0) return std::to_string(bytes / KiB) + "K";
  return std::to_string(bytes);
}

Error bad_value(std::string_view key, std::string_view value, std::string_view want) {
  return Error{EINVAL, "bad value for option '" + std::string(key) + "' (want " +
                           std::string(want) + "): '" + std::string(value) + "'"};
}

Status check_range(const OptionRow& row, std::uint64_t value) {
  const auto [lo, hi] = option_range(row);
  if (value >= lo && value <= hi) return {};
  if (row.kind == OptionKind::kEnum) {
    return Error{EINVAL, "option '" + std::string(row.key) + "' must be one of " +
                             std::string(row.choices)};
  }
  return Error{EINVAL, "option '" + std::string(row.key) + "' must be in [" +
                           std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
                           std::to_string(value)};
}

// Applies one "key[=value]" item.
Status apply_item(MountOptions& out, std::string_view item) {
  const std::size_t eq = item.find('=');
  const std::string_view key = item.substr(0, eq);
  const std::string_view value = eq == std::string_view::npos ? "" : item.substr(eq + 1);

  const OptionRow* row = find_option(key);
  const bool negated = row == nullptr;
  for (const OptionRow& r : kMountOptionTable) {
    if (negated && r.kind == OptionKind::kBool &&
        ((!r.alias.empty() && key == r.alias) ||
         (key.starts_with("no_") && key.substr(3) == r.key))) {
      row = &r;
    }
  }
  if (row == nullptr) {
    return Error{EINVAL, "unknown mount option: '" + std::string(key) + "'"};
  }

  std::uint64_t n = 0;
  switch (row->kind) {
    case OptionKind::kBool:
      if (!value.empty() && (negated || (value != "on" && value != "off"))) {
        return bad_value(key, value, negated ? "no value" : "on|off");
      }
      n = value.empty() ? !negated : value == "on";
      break;
    case OptionKind::kEnum:
      n = choice_index(*row, value);
      if (n == choice_count(*row)) return bad_value(key, value, row->choices);
      break;
    case OptionKind::kPath:
      if (value.empty()) return bad_value(key, value, "a non-empty path");
      out.config.*std::get<std::string Config::*>(row->field) = std::string(value);
      return {};
    case OptionKind::kSize: {
      const auto parsed = parse_bytes(value);
      if (!parsed) return bad_value(key, value, "a size like 4M");
      n = *parsed;
      break;
    }
    case OptionKind::kUint: {
      const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), n);
      if (ec != std::errc{} || ptr != value.data() + value.size()) {
        return bad_value(key, value, "a number");
      }
      break;
    }
  }
  CRFS_RETURN_IF_ERROR(check_range(*row, n));
  set_option_value(*row, out, n);
  return {};
}

// One row as it renders into the option string.
std::string render(const OptionRow& row, const MountOptions& options) {
  const std::string key(row.key);
  if (row.kind == OptionKind::kPath) {
    return key + "=" + options.config.*std::get<std::string Config::*>(row.field);
  }
  const std::uint64_t n = option_value(row, options.config, options.fuse);
  switch (row.kind) {
    case OptionKind::kBool:
      return n != 0 ? key : "no_" + key;
    case OptionKind::kEnum:
      return key + "=" + std::string(choice(row, n));
    case OptionKind::kSize:
      return key + "=" + exact_size(n);
    default:
      return key + "=" + std::to_string(n);
  }
}

}  // namespace

std::uint64_t option_value(const OptionRow& row, const Config& config,
                           const FuseOptions& fuse) {
  return std::visit(
      [&](auto m) -> std::uint64_t {
        const auto& v = field_ref(config, fuse, m);
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string>) {
          return choice_index(row, v);
        } else {
          return static_cast<std::uint64_t>(v) / row.scale;
        }
      },
      row.field);
}

void set_option_value(const OptionRow& row, MountOptions& options, std::uint64_t value) {
  std::visit(
      [&](auto m) {
        auto& v = field_ref(options.config, options.fuse, m);
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          v = std::string(choice(row, value));
        } else {
          v = static_cast<T>(value * row.scale);
        }
      },
      row.field);
}

Status Config::validate() const {
  for (const OptionRow& row : kMountOptionTable) {
    if (row.kind == OptionKind::kPath) {
      // ',' separates options, so such a path could not render back.
      if ((this->*std::get<std::string Config::*>(row.field)).find(',') != std::string::npos) {
        return Error{EINVAL, "option '" + std::string(row.key) + "' must be a path without ','"};
      }
      continue;
    }
    CRFS_RETURN_IF_ERROR(check_range(row, option_value(row, *this, FuseOptions{})));
  }
  if (pool_size < chunk_size) {
    return Error{EINVAL, "pool_size must hold at least one chunk"};
  }
  if (io_batch > tune_io_batch_max) {
    return Error{EINVAL, "io_batch must be <= tune_io_batch_max"};
  }
  if (tune_pool_max != 0 && tune_pool_max < pool_size) {
    return Error{EINVAL, "tune_pool_max must be >= pool_size"};
  }
  if (slo_enabled() && sample_ms == 0) {
    return Error{EINVAL, "slo_* targets run on the sampler: need sample_ms > 0"};
  }
  if (slo_long_s < slo_short_s) {
    return Error{EINVAL, "slo windows need slo_short_s <= slo_long_s"};
  }
  if (!journal_dir.empty() && journal_max_bytes < journal_segment_bytes) {
    return Error{EINVAL, "journal_max_bytes must be >= journal_segment_bytes"};
  }
  if (!tier_stage.empty() && stage_cap > 0 && stage_cap < chunk_size) {
    return Error{EINVAL, "stage_cap must be >= chunk_size"};
  }
  // Fields that are no mount option.
  if (enable_tracing && trace_ring_events == 0) {
    return Error{EINVAL, "trace_ring_events must be > 0 when tracing"};
  }
  if (event_capacity == 0) return Error{EINVAL, "event_capacity must be > 0"};
  if (epoch_tracking && epoch_marker_path.empty()) {
    return Error{EINVAL, "epoch_marker_path must be set when epoch tracking is on"};
  }
  return {};
}

Result<MountOptions> parse_mount_options(std::string_view text) {
  MountOptions out;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view item = trim(text.substr(pos, comma - pos));
    pos = comma + 1;
    if (!item.empty()) CRFS_RETURN_IF_ERROR(apply_item(out, item));
  }
  CRFS_RETURN_IF_ERROR(out.config.validate());
  return out;
}

std::string format_mount_options(const MountOptions& options) {
  const MountOptions defaults;
  std::string s;
  for (const OptionRow& row : kMountOptionTable) {
    std::string item = render(row, options);
    if (item == render(row, defaults)) continue;
    if (!s.empty()) s += ',';
    s += item;
  }
  return s;
}

}  // namespace crfs
