#include "cvsafe/util/csv.hpp"

#include <cstdio>
#include <sstream>

namespace cvsafe::util {

std::string format_exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

CsvWriter::CsvWriter(const std::string& path) : out_(path) {}

std::string CsvWriter::quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string q = "\"";
  for (char c : s) {
    if (c == '"') q += '"';
    q += c;
  }
  q += '"';
  return q;
}

void CsvWriter::header(const std::vector<std::string>& names) {
  raw_row(names);
}

void CsvWriter::row(const std::vector<double>& values) {
  std::ostringstream line;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) line << ',';
    line << values[i];
  }
  out_ << line.str() << '\n';
}

void CsvWriter::raw_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << quote(cells[i]);
  }
  out_ << '\n';
}

}  // namespace cvsafe::util
