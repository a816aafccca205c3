#include "data/table.h"

#include <algorithm>
#include <stdexcept>

#include "common/primitives.h"

namespace sea {

Schema::Schema(std::vector<std::string> column_names)
    : names_(std::move(column_names)) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    for (std::size_t j = i + 1; j < names_.size(); ++j) {
      if (names_[i] == names_[j])
        throw std::invalid_argument("Schema: duplicate column name " +
                                    names_[i]);
    }
  }
}

const std::string& Schema::name(std::size_t col) const {
  if (col >= names_.size()) throw std::out_of_range("Schema::name");
  return names_[col];
}

std::size_t Schema::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  throw std::out_of_range("Schema::index_of: no column named " + name);
}

bool Schema::has_column(const std::string& name) const noexcept {
  return std::any_of(names_.begin(), names_.end(),
                     [&](const std::string& n) { return n == name; });
}

void Schema::add_column(std::string name) {
  if (has_column(name))
    throw std::invalid_argument("Schema::add_column: duplicate column name " +
                                name);
  names_.push_back(std::move(name));
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
}

void Table::append_row(std::span<const double> row) {
  if (row.size() != columns_.size())
    throw std::invalid_argument("Table::append_row: arity mismatch");
  for (std::size_t c = 0; c < columns_.size(); ++c)
    columns_[c].push_back(row[c]);
  ++num_rows_;
}

void Table::append_column(std::string name, std::vector<double> values) {
  if (!columns_.empty() && values.size() != num_rows_)
    throw std::invalid_argument("Table::append_column: row count mismatch");
  schema_.add_column(std::move(name));
  if (columns_.empty()) num_rows_ = values.size();
  columns_.push_back(std::move(values));
}

Table Table::from_columns(Schema schema,
                          std::vector<std::vector<double>> columns) {
  if (schema.num_columns() != columns.size())
    throw std::invalid_argument("Table::from_columns: arity mismatch");
  for (const auto& c : columns)
    if (c.size() != columns.front().size())
      throw std::invalid_argument("Table::from_columns: ragged columns");
  Table t;
  t.schema_ = std::move(schema);
  t.num_rows_ = columns.empty() ? 0 : columns.front().size();
  t.columns_ = std::move(columns);
  return t;
}

void Table::reserve(std::size_t n) {
  for (auto& c : columns_) c.reserve(n);
}

double Table::at(std::size_t row, std::size_t col) const {
  if (col >= columns_.size() || row >= num_rows_)
    throw std::out_of_range("Table::at");
  return columns_[col][row];
}

void Table::set(std::size_t row, std::size_t col, double value) {
  if (col >= columns_.size() || row >= num_rows_)
    throw std::out_of_range("Table::set");
  columns_[col][row] = value;
}

std::span<const double> Table::column(std::size_t col) const {
  if (col >= columns_.size()) throw std::out_of_range("Table::column");
  return columns_[col];
}

std::span<double> Table::mutable_column(std::size_t col) {
  if (col >= columns_.size()) throw std::out_of_range("Table::mutable_column");
  return columns_[col];
}

Point Table::row(std::size_t r) const {
  if (r >= num_rows_) throw std::out_of_range("Table::row");
  Point p(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) p[c] = columns_[c][r];
  return p;
}

void Table::gather(std::size_t r, std::span<const std::size_t> cols,
                   Point& out) const {
  if (r >= num_rows_) throw std::out_of_range("Table::gather");
  out.resize(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] >= columns_.size()) throw std::out_of_range("Table::gather");
    out[i] = columns_[cols[i]][r];
  }
}

void Table::erase_rows(std::size_t first, std::size_t count) {
  if (first > num_rows_ || first + count > num_rows_)
    throw std::out_of_range("Table::erase_rows");
  for (auto& c : columns_) {
    c.erase(c.begin() + static_cast<std::ptrdiff_t>(first),
            c.begin() + static_cast<std::ptrdiff_t>(first + count));
  }
  num_rows_ -= count;
}

Rect table_bounds(const Table& table, std::span<const std::size_t> cols) {
  Rect r;
  r.lo.assign(cols.size(), 0.0);
  r.hi.assign(cols.size(), 0.0);
  if (table.num_rows() == 0) return r;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    // Blocked parallel min/max: exact, so identical to a serial scan. It
    // skips NaN; a column with no other value keeps the empty fallback.
    const auto [mn, mx] = par::minmax(table.column(cols[i]));
    if (mn > mx) continue;
    r.lo[i] = mn;
    r.hi[i] = mx;
  }
  return r;
}

}  // namespace sea
