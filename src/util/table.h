// ASCII/CSV table rendering used by every bench binary to print
// paper-style result tables.

#ifndef FLEXMOE_UTIL_TABLE_H_
#define FLEXMOE_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace flexmoe {

/// \brief A simple column-aligned results table.
///
/// Usage:
///   Table t({"model", "system", "time (h)", "speedup"});
///   t.AddRow({"GPT-MoE-L", "FlexMoE", "12.4", "1.72x"});
///   std::cout << t.ToAscii();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a row; must have exactly as many cells as the header.
  void AddRow(std::vector<std::string> row);

  size_t num_rows() const { return rows_.size(); }
  size_t num_cols() const { return header_.size(); }

  /// Box-drawing-free aligned ASCII rendering.
  std::string ToAscii() const;

  /// RFC-4180-ish CSV (cells containing commas are quoted).
  std::string ToCsv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_UTIL_TABLE_H_
