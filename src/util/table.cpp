#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace llamp {

Table::Cell Table::Cell::general(double v, int precision) {
  Cell cell("");
  append_general(cell.text, v, precision);
  cell.number = std::isfinite(v);
  return cell;
}

Table::Cell Table::Cell::fixed(double v, int precision) {
  Cell cell("");
  append_fixed(cell.text, v, precision);
  cell.number = std::isfinite(v);
  return cell;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw Error("table: empty header");
}

void Table::add_row(std::vector<Cell> cells) {
  if (cells.size() != headers_.size()) {
    throw Error("table: row arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].text.size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<Cell>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::string& text = row[c].text;
      os << text;
      if (c + 1 < row.size()) {
        os << std::string(widths[c] - text.size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit_row({headers_.begin(), headers_.end()});
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<Cell>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::string& text = row[c].text;
      const bool quote = text.find(',') != std::string::npos;
      if (quote) os << '"';
      os << text;
      if (quote) os << '"';
      if (c + 1 < row.size()) os << ',';
    }
    os << '\n';
  };
  emit({headers_.begin(), headers_.end()});
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace llamp
