// Trace serialization: save a generated population to CSV and load it back.
//
// Format (one session per row, '#' comments allowed):
//   user_id,app_id,start_time,duration_s
// The horizon is recorded in a leading comment and recomputed on load if
// absent (max session end rounded up to a whole day).
#ifndef ADPAD_SRC_TRACE_TRACE_IO_H_
#define ADPAD_SRC_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/trace/session.h"

namespace pad {

void WriteTrace(const Population& population, std::ostream& out);
void WriteTraceFile(const Population& population, const std::string& path);

// Parses trace text without aborting on bad input: malformed input — a
// truncated line, a ragged row, a non-numeric or out-of-range field, a
// missing required column — fills *error with a diagnostic and returns
// false, leaving *population untouched.
bool TryParseTrace(std::string_view text, Population* population, std::string* error);

// Status-returning file load: kNotFound when the file cannot be opened,
// kInvalidArgument when its contents fail TryParseTrace. Never aborts on bad
// input.
StatusOr<Population> LoadTraceFile(const std::string& path);

}  // namespace pad

#endif  // ADPAD_SRC_TRACE_TRACE_IO_H_
