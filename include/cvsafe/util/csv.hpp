#pragma once

#include <fstream>
#include <string>
#include <vector>

/// \file csv.hpp
/// Minimal CSV writing for figure data series. Bench binaries emit the
/// series behind each figure as CSV (next to the printed table) so the
/// plots can be regenerated with any external plotting tool.

namespace cvsafe::util {

/// \p value at printf's %.17g: 17 significant digits, which std::stod
/// reads back bit-exactly. The campaign and search CSVs and the fault-plan
/// INI files print their doubles this way.
std::string format_exact(double value);

/// Writes rows of doubles/strings to a CSV file with proper quoting.
class CsvWriter {
 public:
  /// Opens \p path for writing. Check ok() before use.
  explicit CsvWriter(const std::string& path);

  /// True when the underlying file opened successfully.
  bool ok() const { return static_cast<bool>(out_); }

  /// Writes a header row.
  void header(const std::vector<std::string>& names);

  /// Writes a row of numeric values.
  void row(const std::vector<double>& values);

  /// Writes a row of already-formatted cells (quoted when needed).
  void raw_row(const std::vector<std::string>& cells);

 private:
  static std::string quote(const std::string& s);
  std::ofstream out_;
};

}  // namespace cvsafe::util
