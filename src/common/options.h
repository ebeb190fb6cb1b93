// Minimal key=value option parsing for the command-line tools.
//
// Grammar: each argument is `key=value`; `--config <path>` (or
// `config=<path>`) loads a file of one `key=value` per line, '#' comments
// and blank lines allowed. Command-line keys override file keys. Keys are
// bare identifiers; values are free text up to end of line.
#ifndef ADPAD_SRC_COMMON_OPTIONS_H_
#define ADPAD_SRC_COMMON_OPTIONS_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pad {

class Options {
 public:
  // Parses argv (excluding argv[0]); loads any referenced config file.
  // Returns nullopt and fills *error on malformed input.
  static std::optional<Options> Parse(int argc, char** argv, std::string* error);

  // Parses the contents of a config file (exposed for tests).
  static std::optional<Options> ParseText(std::string_view text, std::string* error);

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  // Typed getters with defaults. A stored value that does not parse as the
  // requested type (or, for GetInt, lies outside int's range) returns the
  // fallback and records a diagnostic retrievable via error() — never aborts,
  // so tools can reject bad flags with a clean one-line message instead of a
  // PAD_CHECK stack trace.
  std::string GetString(const std::string& key, const std::string& fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  int GetInt(const std::string& key, int fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  // First type error hit by any Get* ("" when all reads parsed), naming the
  // offending key. Check() folds it together with the unread keys.
  const std::string& error() const { return error_; }

  // Keys present but never read by any Get*: catches typos in configs.
  std::vector<std::string> UnusedKeys() const;

  // The verdict to act on after the last Get*: the first type error, else
  // "unknown option '<key>'" for the first key no Get* read, else "" (OK).
  // Every binary exits 1 on a non-empty verdict before doing any work.
  std::string Check() const;

  void Set(const std::string& key, const std::string& value) { values_[key] = value; }

 private:
  void RecordError(const std::string& key, const char* what) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  mutable std::string error_;
};

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_OPTIONS_H_
