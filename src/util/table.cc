#include "util/table.h"

#include <algorithm>
#include <sstream>

#include "util/status.h"
#include "util/string_util.h"

namespace flexmoe {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  FLEXMOE_CHECK(!header_.empty());
}

void Table::AddRow(std::vector<std::string> row) {
  FLEXMOE_CHECK_MSG(row.size() == header_.size(),
                    "row width must match header");
  rows_.push_back(std::move(row));
}

std::string Table::ToAscii() const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << "  " << row[c];
      for (size_t pad = row[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << "\n";
  };
  emit_row(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::ToCsv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find(',') == std::string::npos &&
        cell.find('"') == std::string::npos) {
      return cell;
    }
    std::string out = "\"";
    for (char ch : cell) {
      if (ch == '"') out += "\"\"";
      else out += ch;
    }
    out += "\"";
    return out;
  };
  std::ostringstream os;
  std::vector<std::string> escaped;
  escaped.reserve(header_.size());
  for (const auto& h : header_) escaped.push_back(escape(h));
  os << Join(escaped, ",") << "\n";
  for (const auto& row : rows_) {
    escaped.clear();
    for (const auto& cell : row) escaped.push_back(escape(cell));
    os << Join(escaped, ",") << "\n";
  }
  return os.str();
}

}  // namespace flexmoe
