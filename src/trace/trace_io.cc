#include "src/trace/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "src/common/check.h"
#include "src/common/csv.h"
#include "src/common/units.h"

namespace pad {

void WriteTrace(const Population& population, std::ostream& out) {
  out << "# adpad session trace\n";
  out << "# horizon_s=" << CsvWriter::Field(population.horizon_s) << '\n';
  CsvWriter writer(out);
  writer.WriteRow({"user_id", "segment", "app_id", "start_time", "duration_s"});
  for (const UserTrace& user : population.users) {
    for (const Session& session : user.sessions) {
      writer.WriteRow({CsvWriter::Field(session.user_id), CsvWriter::Field(user.segment),
                       CsvWriter::Field(session.app_id), CsvWriter::Field(session.start_time),
                       CsvWriter::Field(session.duration_s)});
    }
  }
}

void WriteTraceFile(const Population& population, const std::string& path) {
  std::ofstream out(path);
  PAD_CHECK_MSG(out.good(), "cannot open trace file for writing");
  WriteTrace(population, out);
}

namespace {

bool ParseFieldDouble(const std::string& field, const char* name, size_t row, double* out,
                      std::string* error) {
  const char* begin = field.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    *error = std::string("trace row ") + std::to_string(row + 1) + ": field '" + name +
             "' is not a finite number: '" + field + "'";
    return false;
  }
  *out = value;
  return true;
}

bool ParseFieldInt(const std::string& field, const char* name, size_t row, int* out,
                   std::string* error) {
  const char* begin = field.c_str();
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE || value < INT_MIN || value > INT_MAX) {
    *error = std::string("trace row ") + std::to_string(row + 1) + ": field '" + name +
             "' is not an integer: '" + field + "'";
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

int FindColumn(const CsvTable& table, std::string_view name) {
  for (size_t i = 0; i < table.header.size(); ++i) {
    if (table.header[i] == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace

bool TryParseTrace(std::string_view text, Population* out_population, std::string* error) {
  // Pull the horizon out of the comment header before the CSV parser (which
  // skips comments) sees the text.
  double horizon = -1.0;
  const std::string_view key = "# horizon_s=";
  const size_t pos = text.find(key);
  if (pos != std::string_view::npos) {
    const std::string value(text.substr(pos + key.size(), 32));
    const size_t line_end = value.find('\n');
    if (!ParseFieldDouble(line_end == std::string::npos ? value : value.substr(0, line_end),
                          "horizon_s", 0, &horizon, error)) {
      return false;
    }
  }

  const std::optional<CsvTable> table = TryParseCsv(text, error);
  if (!table.has_value()) {
    return false;
  }
  const int user_col = FindColumn(*table, "user_id");
  const int app_col = FindColumn(*table, "app_id");
  const int start_col = FindColumn(*table, "start_time");
  const int duration_col = FindColumn(*table, "duration_s");
  if (user_col < 0 || app_col < 0 || start_col < 0 || duration_col < 0) {
    *error = "trace header must name user_id, app_id, start_time, and duration_s";
    return false;
  }
  // Older traces predate targeting and have no segment column.
  const int segment_col = FindColumn(*table, "segment");

  std::map<int, UserTrace> users;
  double max_end = 0.0;
  for (size_t r = 0; r < table->rows.size(); ++r) {
    const auto& row = table->rows[r];
    Session session;
    if (!ParseFieldInt(row[static_cast<size_t>(user_col)], "user_id", r, &session.user_id,
                       error) ||
        !ParseFieldInt(row[static_cast<size_t>(app_col)], "app_id", r, &session.app_id,
                       error) ||
        !ParseFieldDouble(row[static_cast<size_t>(start_col)], "start_time", r,
                          &session.start_time, error) ||
        !ParseFieldDouble(row[static_cast<size_t>(duration_col)], "duration_s", r,
                          &session.duration_s, error)) {
      return false;
    }
    if (session.duration_s < 0.0) {
      *error = "trace row " + std::to_string(r + 1) + ": negative duration_s";
      return false;
    }
    UserTrace& user = users[session.user_id];
    user.user_id = session.user_id;
    if (segment_col >= 0 &&
        !ParseFieldInt(row[static_cast<size_t>(segment_col)], "segment", r, &user.segment,
                       error)) {
      return false;
    }
    user.sessions.push_back(session);
    max_end = std::max(max_end, session.end_time());
  }

  Population population;
  population.horizon_s = horizon > 0.0 ? horizon : std::ceil(max_end / kDay) * kDay;
  population.users.reserve(users.size());
  for (auto& [id, user] : users) {
    std::sort(user.sessions.begin(), user.sessions.end(),
              [](const Session& a, const Session& b) { return a.start_time < b.start_time; });
    population.users.push_back(std::move(user));
  }
  *out_population = std::move(population);
  return true;
}

StatusOr<Population> LoadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Status::NotFound("cannot open trace file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Population population;
  std::string error;
  if (!TryParseTrace(buffer.str(), &population, &error)) {
    return Status::InvalidArgument("trace file '" + path + "': " + error);
  }
  return population;
}

}  // namespace pad
