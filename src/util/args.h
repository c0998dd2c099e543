// Minimal command-line parsing for the CLI tools: a subcommand followed by
// `--key value` options and bare positionals. No external dependencies.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace photodtn {

class Args {
 public:
  /// Parses argv[1..). The first non-option token is the subcommand; later
  /// non-option tokens are positionals. `--key value` pairs become options
  /// (a trailing `--key` with no value, or one followed by another option,
  /// is treated as a boolean flag).
  static Args parse(int argc, const char* const* argv);

  const std::string& command() const noexcept { return command_; }
  const std::vector<std::string>& positionals() const noexcept { return positionals_; }

  bool has(const std::string& key) const { return options_.count(key) != 0; }

  /// Typed getters with defaults; throw std::runtime_error on malformed
  /// values (so the CLI can report them instead of silently defaulting).
  /// get_double also rejects NaN and infinities.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Keys the program never queried — used to reject typos.
  std::vector<std::string> unused_keys() const;

 private:
  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace photodtn
