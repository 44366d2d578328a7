// Declared-flag command lines. Each binary declares one constexpr table of
// Flag rows, and Cli parses its argv against that table: RAxML-style
// single-dash flags ("-N 100 -f a"), GNU-style ones ("--trace-out=FILE"),
// and `-name` / `--name` as two spellings of the same row. The table alone
// decides what is accepted, each row's default, range, choices, value check
// and environment default, and the text of --help.
#pragma once

#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace raxh {

// Input the table does not admit. what() names the flag as typed.
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FlagKind { kSwitch, kInt, kDouble, kString, kChoice, kRemoved };

inline constexpr long long kNoMinimum = std::numeric_limits<long long>::min();
// The default maximum of an integer row: the binaries keep counts in an int.
inline constexpr long long kIntMaximum = std::numeric_limits<int>::max();
inline constexpr long long kIntMinimum = std::numeric_limits<int>::min();
// For rows kept in 64 bits (seeds).
inline constexpr long long kNoMaximum = std::numeric_limits<long long>::max();

// One declared flag. Rows are built with the named constructors below.
struct Flag {
  const char* name;                // without dashes
  FlagKind kind;
  const char* help;                // --help text; kRemoved: the error message
  const char* fallback = nullptr;  // value when absent; nullptr = none
  long long min = kNoMinimum;      // kInt: smallest accepted value
  long long max = kIntMaximum;     // kInt: largest accepted value
  const char* choices = nullptr;   // kChoice: "a|b|c"
  const char* env = nullptr;       // environment variable supplying a default
  // kString: throws a std::exception on a value the row does not admit.
  void (*check)(const std::string&) = nullptr;

  static constexpr Flag toggle(const char* name, const char* help) {
    return {name, FlagKind::kSwitch, help};
  }
  static constexpr Flag integer(const char* name, const char* fallback,
                                long long min, const char* help,
                                long long max = kIntMaximum) {
    return {name, FlagKind::kInt, help, fallback, min, max};
  }
  static constexpr Flag real(const char* name, const char* fallback,
                             const char* help) {
    return {name, FlagKind::kDouble, help, fallback};
  }
  static constexpr Flag text(const char* name, const char* fallback,
                             const char* help, const char* env = nullptr,
                             void (*check)(const std::string&) = nullptr) {
    return {.name = name, .kind = FlagKind::kString, .help = help,
            .fallback = fallback, .env = env, .check = check};
  }
  static constexpr Flag choice(const char* name, const char* choices,
                               const char* fallback, const char* help,
                               const char* env = nullptr) {
    return {.name = name, .kind = FlagKind::kChoice, .help = help,
            .fallback = fallback, .choices = choices, .env = env};
  }
  static constexpr Flag removed(const char* name, const char* message) {
    return {name, FlagKind::kRemoved, message};
  }
};

// A binary's command line: its flag table, whether it takes positional
// arguments, and the text --help prints around the flag list.
struct CliSpec {
  const char* synopsis;  // after the program name: "-s FILE [flags]"
  std::span<const Flag> flags;
  bool positionals = false;
  const char* about = nullptr;  // printed after the flag list
};

class Cli {
 public:
  // Parses argv against `spec` (whose flag table must outlive the Cli), then
  // fills absent rows from their environment variables. Throws CliError on an
  // undeclared or removed flag, a missing, malformed, out-of-range,
  // undeclared-choice or check-failing value, a value given to a switch, or a
  // positional argument when the spec declares none. -h / --help sets help().
  Cli(const CliSpec& spec, int argc, const char* const* argv);

  // For a main(): prints the usage and exits 0 on --help, prints the error
  // and exits 2 on CliError.
  static Cli parse_or_exit(const CliSpec& spec, int argc,
                           const char* const* argv);

  // Prints "error: <message>" and the synopsis to stderr, then exits 2.
  [[noreturn]] void fail(const std::string& message) const;

  // True if the flag was given on the command line or by its env variable.
  [[nodiscard]] bool has(std::string_view name) const;
  // The value given, else the row's default ("" when it has none).
  [[nodiscard]] const std::string& text(std::string_view name) const;
  [[nodiscard]] long long integer(std::string_view name) const;
  [[nodiscard]] double real(std::string_view name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] bool help() const { return help_; }
  [[nodiscard]] std::string usage() const;

 private:
  struct Value {
    bool given = false;
    std::string text;
    long long integer = 0;
    double real = 0.0;
  };

  // The row named `name`, or flags.size() when there is none.
  [[nodiscard]] std::size_t find(std::string_view name) const;
  [[nodiscard]] const Value& at(std::string_view name) const;
  // Checks `text` against the row; `spelled` names the flag in errors.
  void set(std::size_t row, const std::string& spelled, std::string text);

  CliSpec spec_;
  std::string program_;
  std::vector<Value> values_;  // one per row of spec_.flags
  std::vector<std::string> positional_;
  bool help_ = false;
};

}  // namespace raxh
