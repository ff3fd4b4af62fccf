// The one JSON string escaper, shared by every writer that emits JSON: grid
// rows (runtime/result_sink), the Chrome trace and the profile sidecar
// (obs/). Header-only so the obs layer can use it without linking against
// anything outside itself.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace dlb {

/// Appends `s` to `out` as a quoted JSON string: `"`, `\`, newline and tab
/// get their two-character escapes, every other byte below 0x20 becomes
/// `\u00xx`, and all other bytes (UTF-8 sequences included) pass through.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// append_json_string into a fresh string, for writers that stream.
[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

}  // namespace dlb
