// A small command-line parser modelled on RAxML's option style: single-dash
// short options, each taking at most one value (e.g. "-N 100 -p 12345 -f a").
// Used by the example executables; not a general-purpose getopt clone.
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace raxh {

// A malformed flag value: int_or/double_or throw it when the value does not
// parse completely or is out of range. what() names the flag and the value.
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CliParser {
 public:
  CliParser(int argc, const char* const* argv);

  // True if "-flag" occurred (with or without a value).
  [[nodiscard]] bool has(const std::string& flag) const;

  // Value of "-flag value"; nullopt if the flag is absent or valueless.
  [[nodiscard]] std::optional<std::string> value(const std::string& flag) const;

  [[nodiscard]] std::string value_or(const std::string& flag,
                                     std::string fallback) const;
  // Numeric value of "-flag value", or fallback if absent/valueless. Throws
  // CliError on trailing garbage ("12x"), no number at all ("abc"), or a
  // value out of range (ERANGE).
  [[nodiscard]] long long int_or(const std::string& flag,
                                 long long fallback) const;
  [[nodiscard]] double double_or(const std::string& flag,
                                 double fallback) const;

  // Arguments that did not belong to any flag, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;  // flag -> value ("" if none)
  std::vector<std::string> positional_;
};

}  // namespace raxh
