#pragma once

#include <string>
#include <vector>

#include "util/strings.hpp"

namespace llamp {

/// Minimal aligned-column table printer used by the benchmark harnesses to
/// emit the paper's tables (Table I, Table II, tolerance summaries) on
/// stdout, plus a CSV emitter for downstream plotting.
class Table {
 public:
  /// One cell: its text, and whether the number writer produced it from a
  /// finite value.  The JSON emitters write such a cell bare and quote
  /// every other one (names, "unbounded", inf, nan); the human table and
  /// CSV print the text alone.
  struct Cell {
    /// Implicit, so a row of strings is a row of text cells.
    Cell(std::string s) : text(std::move(s)) {}
    Cell(const char* s) : text(s) {}
    /// printf's "%.<precision>g" / "%.<precision>f" / "%d" of `v`.
    static Cell general(double v, int precision);
    static Cell fixed(double v, int precision);
    template <std::integral I>
    static Cell integer(I v) {
      Cell cell("");
      append_int(cell.text, v);
      cell.number = true;
      return cell;
    }

    std::string text;
    bool number = false;
  };

  explicit Table(std::vector<std::string> headers);

  /// Append a row; must have the same arity as the header.
  void add_row(std::vector<Cell> cells);

  /// Render with space-padded columns and a separator under the header.
  std::string to_string() const;

  /// Render as CSV (no quoting beyond commas-are-forbidden-in-cells; cells
  /// containing commas are wrapped in double quotes).
  std::string to_csv() const;

  std::size_t rows() const { return rows_.size(); }

  /// Raw cell access for the structured emitters in core/report.*
  /// (e.g. the JSON renderer keys objects by header name).
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<Cell>>& data() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace llamp
