// Report table writer.
//
// Every benchmark harness prints the rows of the paper table/figure it
// regenerates. Table collects rows of heterogeneous cells and renders them
// as an aligned ASCII/markdown table or as CSV.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pdr {

/// A simple column-aligned table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();

  Table& add(std::string cell);
  Table& add(const char* cell) { return add(std::string(cell)); }
  Table& add(std::int64_t v);
  Table& add(std::uint64_t v);
  Table& add(int v) { return add(static_cast<std::int64_t>(v)); }
  /// Doubles are rendered with `decimals` digits after the point.
  Table& add(double v, int decimals = 2);


  /// Markdown-style rendering with aligned pipes.
  std::string to_markdown() const;

  /// Prints markdown rendering to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pdr
