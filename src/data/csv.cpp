#include "data/csv.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace sea {

void write_csv(const Table& table, std::ostream& out) {
  const auto& schema = table.schema();
  for (std::size_t c = 0; c < schema.num_columns(); ++c) {
    if (c) out << ',';
    out << schema.name(c);
  }
  out << '\n';
  out << std::setprecision(17);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      if (c) out << ',';
      out << table.at(r, c);
    }
    out << '\n';
  }
}

Table read_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error("read_csv: empty input");
  std::vector<std::string> names;
  {
    std::stringstream header(line);
    std::string cell;
    while (std::getline(header, cell, ',')) names.push_back(cell);
  }
  if (names.empty()) throw std::runtime_error("read_csv: no columns");
  Table table{Schema(names)};
  std::vector<double> row(names.size());
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string cell;
    std::size_t c = 0;
    while (std::getline(ss, cell, ',')) {
      if (c >= row.size())
        throw std::runtime_error("read_csv: too many cells at line " +
                                 std::to_string(line_no));
      try {
        row[c] = std::stod(cell);
      } catch (const std::exception&) {
        throw std::runtime_error("read_csv: bad number '" + cell +
                                 "' at line " + std::to_string(line_no));
      }
      ++c;
    }
    if (c != row.size())
      throw std::runtime_error("read_csv: too few cells at line " +
                               std::to_string(line_no));
    table.append_row(row);
  }
  return table;
}

}  // namespace sea
