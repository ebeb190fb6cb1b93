// Aligned plain-text tables for benchmark harness output.
//
// Every bench binary regenerates one of the paper's tables or figure series;
// TextTable keeps their stdout uniform and diff-friendly.
#ifndef ADPAD_SRC_COMMON_TABLE_H_
#define ADPAD_SRC_COMMON_TABLE_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace pad {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  void Print(std::ostream& out) const;

  int rows() const { return static_cast<int>(rows_.size()); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section banner ("== title ==") so multi-table bench output stays
// navigable.
void PrintBanner(std::ostream& out, const std::string& title);

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_TABLE_H_
