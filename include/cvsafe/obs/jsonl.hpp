#pragma once

#include <string>
#include <string_view>

/// \file jsonl.hpp
/// Deterministic JSON primitives shared by the JSONL writers.
///
/// Doubles print as %.17g (round-trip exact) — the same discipline as the
/// fault-campaign CSV — so a file is byte-identical across runs and
/// thread counts as long as its records are written in a fixed order.

namespace cvsafe::obs {

/// Append \p v formatted as printf %.17g would (17 significant digits:
/// round-trips every double); non-finite values append null.
void append_json_double(std::string& out, double v);

/// Append \p s as a quoted JSON string, escaping as needed.
void append_json_string(std::string& out, std::string_view s);

}  // namespace cvsafe::obs
