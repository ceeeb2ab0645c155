// Minimal command-line flag parser for the tools and examples.
//
// Supports `--key value`, `--key=value`, and boolean `--flag` forms, with
// typed accessors, defaults, and generated help text.  Deliberately tiny:
// the tools need a dozen flags, not a framework.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hayat {

/// Declarative flag set with parsing and help generation.
class FlagParser {
 public:
  /// `program` and `description` appear in the help text.
  FlagParser(std::string program, std::string description);

  /// Declares a flag (name without leading dashes).  Declared flags are
  /// listed in help and validated during parse.
  void addFlag(const std::string& name, const std::string& help,
               const std::string& defaultValue = "");

  /// Parses argv; returns false (after printing help) if --help was
  /// requested.  Throws hayat::Error on unknown flags or missing values.
  bool parse(int argc, const char* const* argv);

  /// Typed accessors (fall back to the declared default).
  std::string getString(const std::string& name) const;
  int getInt(const std::string& name) const;
  double getDouble(const std::string& name) const;
  /// A whole number of 0 or more: signs, unit suffixes ("10G") and
  /// other trailing characters are rejected, not dropped.
  std::uint64_t getUint64(const std::string& name) const;
  bool getBool(const std::string& name) const;

  /// True if the user supplied the flag explicitly.
  bool provided(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// The generated help text.
  std::string helpText() const;

 private:
  struct Flag {
    std::string help;
    std::string defaultValue;
  };

  std::string program_;
  std::string description_;
  std::vector<std::pair<std::string, Flag>> flags_;  // declaration order
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;

  const Flag* find(const std::string& name) const;
};

}  // namespace hayat
