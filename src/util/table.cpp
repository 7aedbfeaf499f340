#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace mgq::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::addRow(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::render(std::ostream& os) const {
  // Terminal columns: UTF-8 continuation bytes take none.
  auto width = [](const std::string& cell) {
    return static_cast<std::size_t>(
        std::count_if(cell.begin(), cell.end(),
                      [](char ch) { return (ch & 0xC0) != 0x80; }));
  };
  // Three dashes at least: the shortest delimiter cell every Markdown
  // dialect accepts.
  std::vector<std::size_t> widths(header_.size(), 3);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = std::max(widths[c], width(header_[c]));
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], width(row[c]));
    }
  }
  auto renderLine = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "| " << cells[c]
         << std::string(widths[c] - width(cells[c]) + 1, ' ');
    }
    os << "|\n";
  };
  renderLine(header_);
  for (auto w : widths) os << '|' << std::string(w + 2, '-');
  os << "|\n";
  for (const auto& row : rows_) renderLine(row);
}

}  // namespace mgq::util
