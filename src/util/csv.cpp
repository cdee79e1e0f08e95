#include "util/csv.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

namespace corp::util {

std::string escape_csv_field(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape_csv_field(fields[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& fields) {
  std::vector<std::string> formatted;
  formatted.reserve(fields.size());
  for (double v : fields) formatted.push_back(format_double(v, 12));
  write_row(formatted);
}

std::string format_double(double value, int digits) {
  // "Unknown" values (e.g. a single-sample confidence half-width) render
  // as n/a rather than a platform-dependent "nan"/"-nan(ind)".
  if (std::isnan(value)) return "n/a";
  std::ostringstream os;
  os.precision(digits);
  os << value;
  return os.str();
}

}  // namespace corp::util
