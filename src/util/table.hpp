// Markdown table emission used by the paper's suites and the CLIs to
// print the same rows and series the paper reports.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mgq::util {

/// Collects rows of string cells and renders them as an aligned Markdown
/// table, readable on a terminal and pasteable into a document. Column
/// count is fixed by the header; short rows are padded with empty cells.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void addRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 1);

  void render(std::ostream& os) const;

  std::size_t rowCount() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mgq::util
