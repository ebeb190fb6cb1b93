#include "src/common/table.h"

#include <algorithm>
#include <ostream>

#include "src/common/check.h"

namespace pad {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  PAD_CHECK(!header_.empty());
}

void TextTable::AddRow(std::vector<std::string> row) {
  PAD_CHECK_MSG(row.size() == header_.size(), "row arity must match header");
  rows_.push_back(std::move(row));
}

void TextTable::Print(std::ostream& out) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : "  ");
      out << row[c];
      for (size_t pad = row[c].size(); pad < widths[c]; ++pad) {
        out << ' ';
      }
    }
    out << '\n';
  };
  print_row(header_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  for (size_t i = 0; i < total; ++i) {
    out << '-';
  }
  out << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void PrintBanner(std::ostream& out, const std::string& title) {
  out << "\n== " << title << " ==\n";
}

}  // namespace pad
