#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  PDR_CHECK(!header_.empty(), "Table", "header must have at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(std::string cell) {
  PDR_CHECK(!rows_.empty(), "Table::add", "call row() before add()");
  PDR_CHECK(rows_.back().size() < header_.size(), "Table::add", "row has more cells than header columns");
  rows_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(std::int64_t v) { return add(strprintf("%lld", static_cast<long long>(v))); }

Table& Table::add(std::uint64_t v) { return add(strprintf("%llu", static_cast<unsigned long long>(v))); }

Table& Table::add(double v, int decimals) { return add(strprintf("%.*f", decimals, v)); }

std::string Table::to_markdown() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c) width[c] = std::max(width[c], r[c].size());

  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      line += " " + cell + std::string(width[c] - cell.size(), ' ') + " |";
    }
    return line + "\n";
  };

  std::string out = render_row(header_);
  out += "|";
  for (std::size_t c = 0; c < header_.size(); ++c) out += std::string(width[c] + 2, '-') + "|";
  out += "\n";
  for (const auto& r : rows_) out += render_row(r);
  return out;
}

void Table::print() const { std::cout << to_markdown(); }

}  // namespace pdr
