#include "util/cli.h"

#include <cerrno>
#include <cstdlib>

namespace raxh {

namespace {

// Parses all of `text` with strtoll/strtod-style `parse`; anything left
// over, nothing parsed, or ERANGE is a CliError naming the flag.
template <typename T, typename Parse>
T parse_number(const std::string& flag, const std::string& text,
               const char* expected, Parse parse) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const T value = parse(begin, &end);
  if (end == begin || *end != '\0')
    throw CliError("-" + flag + "=" + text + ": expected " + expected);
  if (errno == ERANGE)
    throw CliError("-" + flag + "=" + text + ": out of range");
  return value;
}

}  // namespace

CliParser::CliParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() >= 2 && arg[0] == '-' &&
        !(arg.size() > 1 && (std::isdigit(arg[1]) || arg[1] == '.'))) {
      const std::string flag = arg.substr(1);
      // GNU-style inline value: "--flag=value" (or "-flag=value").
      const std::size_t eq = flag.find('=');
      if (eq != std::string::npos) {
        options_[flag.substr(0, eq)] = flag.substr(eq + 1);
        continue;
      }
      // A following token that is not itself a flag is this option's value.
      if (i + 1 < argc) {
        const std::string next = argv[i + 1];
        const bool next_is_flag =
            next.size() >= 2 && next[0] == '-' &&
            !(std::isdigit(next[1]) || next[1] == '.');
        if (!next_is_flag) {
          options_[flag] = next;
          ++i;
          continue;
        }
      }
      options_[flag] = "";
    } else {
      positional_.push_back(arg);
    }
  }
}

bool CliParser::has(const std::string& flag) const {
  return options_.count(flag) != 0;
}

std::optional<std::string> CliParser::value(const std::string& flag) const {
  auto it = options_.find(flag);
  if (it == options_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string CliParser::value_or(const std::string& flag,
                                std::string fallback) const {
  auto v = value(flag);
  return v ? *v : std::move(fallback);
}

long long CliParser::int_or(const std::string& flag, long long fallback) const {
  auto v = value(flag);
  if (!v) return fallback;
  return parse_number<long long>(
      flag, *v, "an integer",
      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

double CliParser::double_or(const std::string& flag, double fallback) const {
  auto v = value(flag);
  if (!v) return fallback;
  return parse_number<double>(flag, *v, "a number", [](const char* s,
                                                       char** end) {
    return std::strtod(s, end);
  });
}

}  // namespace raxh
