#include "cvsafe/obs/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace cvsafe::obs {

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // NaN/inf are not valid JSON literals; a rejected non-finite payload
    // can carry one. null keeps the line parseable.
    out += "null";
    return;
  }
  // to_chars in general format at precision 17 is specified as printf
  // "%.17g" in the C locale, without the format-string parsing.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
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

}  // namespace cvsafe::obs
