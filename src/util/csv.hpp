// Minimal CSV writing used for trace export and for dumping figure series
// from the benchmark harnesses.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace corp::util {

/// Quotes a field if it contains a comma, quote or newline.
std::string escape_csv_field(std::string_view field);

/// Writer that streams rows out with proper escaping.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with enough precision to round-trip.
  void write_row(const std::vector<double>& fields);

 private:
  std::ostream& out_;
};

/// Formats a double compactly (up to `digits` significant digits, no
/// trailing zeros) for tables and CSV output.
std::string format_double(double value, int digits = 6);

}  // namespace corp::util
