// Aligned-table / CSV reporting for the benches: bench_paper prints one
// ResultTable per paper figure, its rows the figure's grid points.

#ifndef CSM_HARNESS_REPORT_H_
#define CSM_HARNESS_REPORT_H_

#include <string>
#include <vector>

namespace csm {

class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);

  /// Formats a double with 3 decimals (convenience for AddRow).
  static std::string Num(double value);
  static std::string Num(double value, int decimals);

  /// Column-aligned plain-text rendering with the title banner.
  std::string ToString() const;

  /// CSV rendering (header + rows, no title).
  std::string ToCsv() const;

  /// Prints ToString() to stdout.
  void Print() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace csm

#endif  // CSM_HARNESS_REPORT_H_
