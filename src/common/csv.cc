#include "src/common/csv.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "src/common/check.h"

namespace pad {

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    const std::string& field = fields[i];
    PAD_CHECK_MSG(field.find_first_of(",\n\"") == std::string::npos,
                  "CSV fields must not contain ',', '\\n', or '\"'");
    if (i > 0) {
      out_ << ',';
    }
    out_ << field;
  }
  out_ << '\n';
}

std::string CsvWriter::Field(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string CsvWriter::Field(int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRId64, value);
  return buffer;
}

namespace {

std::vector<std::string> SplitFields(std::string_view line) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ',') {
      fields.emplace_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

}  // namespace

std::optional<CsvTable> TryParseCsv(std::string_view text, std::string* error) {
  CsvTable table;
  size_t pos = 0;
  int line_number = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = text.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    pos = end + 1;
    ++line_number;
    if (line.empty() || line.front() == '#') {
      if (pos > text.size()) {
        break;
      }
      continue;
    }
    auto fields = SplitFields(line);
    if (table.header.empty()) {
      table.header = std::move(fields);
    } else {
      if (fields.size() != table.header.size()) {
        *error = "ragged CSV row at line " + std::to_string(line_number) + ": expected " +
                 std::to_string(table.header.size()) + " fields, got " +
                 std::to_string(fields.size());
        return std::nullopt;
      }
      table.rows.push_back(std::move(fields));
    }
    if (pos > text.size()) {
      break;
    }
  }
  return table;
}

}  // namespace pad
