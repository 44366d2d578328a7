#include "util/cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace raxh {

namespace {

// Parses all of `text`; anything left over, nothing parsed, or a value out
// of T's range is a CliError naming `shown` (the flag as typed, "=", the
// value).
template <typename T>
T parse_number(const std::string& shown, const std::string& text,
               const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range)
    throw CliError(shown + ": out of range");
  if (ec != std::errc() || ptr != end)
    throw CliError(shown + ": expected " + expected);
  return value;
}

bool is_choice(std::string_view choices, std::string_view value) {
  for (std::size_t begin = 0;;) {
    const std::size_t bar = choices.find('|', begin);
    if (choices.substr(begin, bar - begin) == value) return true;
    if (bar == std::string_view::npos) return false;
    begin = bar + 1;
  }
}

// RAxML-style names ("-N", "-np") print with one dash, the rest with two.
std::string spelling(const Flag& flag) {
  return (std::string_view(flag.name).size() <= 2 ? "-" : "--") +
         std::string(flag.name);
}

void print_error(const std::string& program, const CliSpec& spec,
                 const std::string& message) {
  std::fprintf(stderr, "error: %s\nusage: %s %s; --help lists the flags\n",
               message.c_str(), program.c_str(), spec.synopsis);
}

}  // namespace

Cli::Cli(const CliSpec& spec, int argc, const char* const* argv)
    : spec_(spec), values_(spec.flags.size()) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (!spec_.positionals)
        throw CliError("unexpected argument '" + arg + "'");
      positional_.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string spelled = arg.substr(0, eq);
    const std::string_view name =
        std::string_view(spelled).substr(arg[1] == '-' ? 2 : 1);
    if ((name == "h" || name == "help") && eq == std::string::npos) {
      help_ = true;
      continue;
    }
    const std::size_t row = find(name);
    if (row == spec_.flags.size()) throw CliError("unknown flag " + spelled);
    const Flag& flag = spec_.flags[row];
    if (flag.kind == FlagKind::kRemoved)
      throw CliError(spelled + " was removed; " + flag.help);
    if (flag.kind == FlagKind::kSwitch) {
      if (eq != std::string::npos) throw CliError(spelled + " takes no value");
      set(row, spelled, "");
    } else if (eq != std::string::npos) {
      set(row, spelled, arg.substr(eq + 1));
    } else if (i + 1 < argc) {
      set(row, spelled, argv[++i]);
    } else {
      throw CliError(spelled + ": expected a value");
    }
  }
  if (help_) return;
  for (std::size_t row = 0; row < spec_.flags.size(); ++row) {
    const Flag& flag = spec_.flags[row];
    if (values_[row].given) continue;
    if (const char* env = flag.env ? std::getenv(flag.env) : nullptr;
        env != nullptr && *env != '\0') {
      set(row, flag.env, env);
    } else if (flag.fallback != nullptr) {
      set(row, flag.name, flag.fallback);
      values_[row].given = false;
    }
  }
}

void Cli::set(std::size_t row, const std::string& spelled, std::string text) {
  const Flag& flag = spec_.flags[row];
  Value& v = values_[row];
  const std::string shown = spelled + "=" + text;
  switch (flag.kind) {
    case FlagKind::kInt:
      v.integer = parse_number<long long>(shown, text, "an integer");
      if (v.integer < flag.min)
        throw CliError(shown + ": below the minimum " +
                       std::to_string(flag.min));
      if (v.integer > flag.max)
        throw CliError(shown + ": above the maximum " +
                       std::to_string(flag.max));
      break;
    case FlagKind::kDouble:
      v.real = parse_number<double>(shown, text, "a number");
      if (!std::isfinite(v.real)) throw CliError(shown + ": expected a number");
      break;
    case FlagKind::kChoice:
      if (!is_choice(flag.choices, text))
        throw CliError(shown + ": expected one of " + flag.choices);
      break;
    case FlagKind::kString:
      if (text.empty()) throw CliError(spelled + ": expected a value");
      if (flag.check != nullptr) {
        try {
          flag.check(text);
        } catch (const std::exception& e) {
          throw CliError(shown + ": " + e.what());
        }
      }
      break;
    case FlagKind::kSwitch:
    case FlagKind::kRemoved:
      break;
  }
  v.given = true;
  v.text = std::move(text);
}

Cli Cli::parse_or_exit(const CliSpec& spec, int argc,
                       const char* const* argv) {
  try {
    Cli cli(spec, argc, argv);
    if (cli.help()) {
      std::fputs(cli.usage().c_str(), stdout);
      std::exit(0);
    }
    return cli;
  } catch (const CliError& e) {
    print_error(argc > 0 ? argv[0] : "", spec, e.what());
    std::exit(2);
  }
}

void Cli::fail(const std::string& message) const {
  print_error(program_, spec_, message);
  std::exit(2);
}

std::size_t Cli::find(std::string_view name) const {
  std::size_t row = 0;
  while (row < spec_.flags.size() && name != spec_.flags[row].name) ++row;
  return row;
}

const Cli::Value& Cli::at(std::string_view name) const {
  const std::size_t row = find(name);
  if (row == spec_.flags.size())
    throw std::logic_error("flag not in the table: " + std::string(name));
  return values_[row];
}

bool Cli::has(std::string_view name) const { return at(name).given; }

const std::string& Cli::text(std::string_view name) const {
  return at(name).text;
}

long long Cli::integer(std::string_view name) const {
  return at(name).integer;
}

double Cli::real(std::string_view name) const { return at(name).real; }

std::string Cli::usage() const {
  std::string out = "usage: " + program_ + " " + spec_.synopsis +
                    "\nflags (-name and --name are the same flag):\n";
  const auto line = [&out](std::string left, const std::string& right) {
    left.resize(std::max<std::size_t>(left.size() + 2, 26), ' ');
    out += "  " + left + right + "\n";
  };
  for (const Flag& flag : spec_.flags) {
    std::string left = spelling(flag);
    const char* sep = left[1] == '-' ? "=" : " ";
    std::string right = flag.help;
    switch (flag.kind) {
      case FlagKind::kInt: left += sep + std::string("N"); break;
      case FlagKind::kDouble: left += sep + std::string("X"); break;
      case FlagKind::kString: left += sep + std::string("VALUE"); break;
      case FlagKind::kChoice: left += sep + std::string(flag.choices); break;
      case FlagKind::kRemoved: right = "removed: " + right; break;
      case FlagKind::kSwitch: break;
    }
    if (flag.fallback != nullptr)
      right += " [default " + std::string(flag.fallback) + "]";
    if (flag.min != kNoMinimum)
      right += " [min " + std::to_string(flag.min) + "]";
    if (flag.kind == FlagKind::kInt && flag.max < kIntMaximum)
      right += " [max " + std::to_string(flag.max) + "]";
    if (flag.env != nullptr) right += " [env " + std::string(flag.env) + "]";
    line(std::move(left), right);
  }
  line("-h, --help", "print this help");
  if (spec_.about != nullptr) out += std::string(spec_.about);
  return out;
}

}  // namespace raxh
