// JSON output helpers shared by every document this repo emits (stats,
// postmortem, journal frames, decision logs, Chrome traces): one string
// escaper and one number renderer, so no emitter can produce invalid JSON
// from a control byte another emitter would have escaped.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace crfs::obs {

/// Appends `s` as the body of a JSON string (no surrounding quotes):
/// `\"`, `\\`, `\n`, `\t`, and `\u00XX` for every other byte below 0x20.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Deterministic number rendering: integral values print with no fraction
/// (chunk counts, batch sizes, ms), the rest with %g. Byte-identical
/// decision logs across identical replays depend on it.
inline void append_num(std::string& out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  out += buf;
}

}  // namespace crfs::obs
