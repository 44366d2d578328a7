#include "e2e.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "tree/tree.h"

namespace raxh::e2e {

// Why each workload exists is in BENCHMARK.json and README.md. Every one
// keeps p x T <= 2, leaving two of the 4-vCPU dev host's vCPUs to the
// benchmark itself and to other tenants. -N is small so that a benchmark
// run covers several alignments: the median over them is what stays steady
// from seed to seed.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      // name, taxa, distinct sites, sites, branch scale, -N, -np, -T, ops
      {"fa_serial_std", 40, 810, 1300, 0.12, 4, 1, 1, false},
      {"fa_crew_wide", 16, 3000, 5000, 0.12, 4, 1, 2, false},
      {"fa_ranks_tall", 64, 400, 600, 0.12, 4, 2, 1, false},
      {"fa_ops_dup", 32, 1200, 2000, 0.005, 6, 1, 2, true},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

namespace {

// The generating tree shared by all alignments of a workload: a Yule tree
// from a fixed seed at the workload's taxon count and branch scale.
std::string generating_tree(const Workload& w) {
  SimConfig cfg;
  cfg.taxa = w.taxa;
  cfg.distinct_sites = cfg.total_sites = 1;
  cfg.mean_branch_length = w.mean_branch_length;
  cfg.seed = 1;
  return simulate_alignment(cfg).true_tree_newick;
}

}  // namespace

SimConfig alignment_config(const Workload& w, std::uint64_t seed, int index) {
  SimConfig cfg;
  cfg.taxa = w.taxa;
  cfg.distinct_sites = w.distinct_sites;
  cfg.total_sites = w.total_sites;
  cfg.mean_branch_length = w.mean_branch_length;
  cfg.tree_newick = generating_tree(w);
  cfg.seed = seed * 1000 + static_cast<std::uint64_t>(index);
  return cfg;
}

std::vector<std::string> raxh_args(const Workload& w,
                                   const std::string& alignment_path,
                                   Telemetry telemetry) {
  std::vector<std::string> args = {
      "-s", alignment_path, "-f", "a", "-p", "12345", "-x", "12345",
      "-N", std::to_string(w.bootstraps), "-np", std::to_string(w.ranks),
      "-T", std::to_string(w.threads), "-n", kRunName};
  if (w.ops) args.push_back(std::string("--checkpoint-dir=") + kCheckpointDir);
  if (telemetry != Telemetry::kOff)
    args.push_back(std::string("--metrics-out=") + kMetricsFile);
  if (telemetry == Telemetry::kFull) {
    args.push_back(std::string("--trace-out=") + kTraceFile);
    args.push_back(std::string("--heartbeat-out=") + kHeartbeatDir);
  }
  return args;
}

Telemetry run_telemetry(const Workload& w, bool traced) {
  if (w.ops) return Telemetry::kFull;
  return traced ? Telemetry::kMetrics : Telemetry::kOff;
}

// --- raxh stdout ---------------------------------------------------------

namespace {

// The whitespace-delimited word right before `pos` in `line`.
std::string_view word_before(std::string_view line, std::size_t pos) {
  std::size_t end = pos;
  while (end > 0 && line[end - 1] == ' ') --end;
  std::size_t begin = end;
  while (begin > 0 && line[begin - 1] != ' ') --begin;
  return line.substr(begin, end - begin);
}

std::string_view word_after(std::string_view line, std::size_t pos) {
  while (pos < line.size() && line[pos] == ' ') ++pos;
  std::size_t end = pos;
  while (end < line.size() && line[end] != ' ' && line[end] != ',') ++end;
  return line.substr(pos, end - pos);
}

template <typename T>
std::optional<T> to_number(std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

}  // namespace

RaxhStdout parse_raxh_stdout(std::string_view text) {
  RaxhStdout out;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view() : text.substr(eol + 1);

    if (std::size_t at = line.find("final GAMMA lnL "); at != line.npos)
      out.lnl = to_number<double>(word_after(line, at + 16));
    if (line.rfind("raxh: ", 0) == 0) {
      if (std::size_t at = line.find(" patterns"); at != line.npos)
        out.patterns = to_number<std::size_t>(word_before(line, at)).value_or(0);
      if (std::size_t at = line.find(" kernels,"); at != line.npos)
        out.kernel_isa = std::string(word_before(line, at));
      if (std::size_t at = line.find("site repeats "); at != line.npos)
        out.repeats = std::string(word_after(line, at + 13));
    }
    // Fault-tolerant runs report a resume on stdout; plain runs only log
    // "[INF] rank R resuming bootstraps from checkpoint (D/G done)".
    if (line.rfind("resumed ", 0) == 0)
      out.resumed_replicates += to_number<int>(word_after(line, 8)).value_or(0);
    constexpr std::string_view kResuming = "resuming bootstraps from checkpoint (";
    if (std::size_t at = line.find(kResuming); at != line.npos) {
      const std::string_view done = line.substr(at + kResuming.size());
      out.resumed_replicates +=
          to_number<int>(done.substr(0, done.find('/'))).value_or(0);
    }
  }
  return out;
}

// --- JSON ----------------------------------------------------------------

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at offset " +
                             std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t'))
      ++pos_;
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value() {
    if (++depth_ > 64) fail("nesting too deep");
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end");
    Json value;
    const char c = text_[pos_];
    if (c == '{') {
      value.type = Json::Type::kObject;
      ++pos_;
      if (!consume('}')) {
        do {
          skip_space();
          std::string key = parse_string();
          expect(':');
          value.object.emplace_back(std::move(key), parse_value());
        } while (consume(','));
        expect('}');
      }
    } else if (c == '[') {
      value.type = Json::Type::kArray;
      ++pos_;
      if (!consume(']')) {
        do {
          value.array.push_back(parse_value());
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      value.type = Json::Type::kString;
      value.string = parse_string();
    } else if (consume_word("true")) {
      value.type = Json::Type::kBool;
      value.boolean = true;
    } else if (consume_word("false")) {
      value.type = Json::Type::kBool;
    } else if (consume_word("null")) {
      value.type = Json::Type::kNull;
    } else {
      value.type = Json::Type::kNumber;
      std::size_t end = pos_;
      while (end < text_.size() &&
             std::string_view("+-0123456789.eE").find(text_[end]) !=
                 std::string_view::npos)
        ++end;
      const auto number = to_number<double>(text_.substr(pos_, end - pos_));
      if (!number) fail("malformed number");
      value.number = *number;
      pos_ = end;
    }
    --depth_;
    return value;
  }

  std::string parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          // Telemetry escapes only control characters this way.
          const auto code = text_.substr(pos_, 4);
          unsigned value = 0;
          const auto [ptr, ec] =
              std::from_chars(code.data(), code.data() + code.size(), value, 16);
          if (ec != std::errc() || ptr != code.data() + 4 || value > 0x7f)
            fail("unsupported \\u escape");
          out += static_cast<char>(value);
          pos_ += 4;
          break;
        }
        default: out += e;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void flatten(const Json& value, const std::string& path, FlatMetrics& out) {
  if (value.type == Json::Type::kNumber) {
    out[path] = value.number;
  } else if (value.type == Json::Type::kObject) {
    for (const auto& [key, child] : value.object)
      flatten(child, path.empty() ? key : path + "." + key, out);
  }
}

}  // namespace

Json parse_json(std::string_view text) { return JsonParser(text).parse_document(); }

std::vector<FlatMetrics> parse_metrics_out(std::string_view text) {
  const Json doc = parse_json(text);
  if (doc.type != Json::Type::kArray)
    throw std::runtime_error("metrics: expected an array of rank objects");
  std::vector<FlatMetrics> ranks;
  for (const Json& rank : doc.array) {
    if (rank.type != Json::Type::kObject)
      throw std::runtime_error("metrics: expected an object per rank");
    FlatMetrics flat;
    flatten(rank, "", flat);
    ranks.push_back(std::move(flat));
  }
  return ranks;
}

double sum_over_ranks(const std::vector<FlatMetrics>& ranks,
                      const std::string& key) {
  double total = 0.0;
  for (const FlatMetrics& r : ranks)
    if (const auto it = r.find(key); it != r.end()) total += it->second;
  return total;
}

double max_over_ranks(const std::vector<FlatMetrics>& ranks,
                      const std::string& key) {
  double best = 0.0;
  for (const FlatMetrics& r : ranks)
    if (const auto it = r.find(key); it != r.end()) best = std::max(best, it->second);
  return best;
}

// --- checks --------------------------------------------------------------

namespace {

std::string_view trim(std::string_view s) {
  const auto space = [](char c) {
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
  };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

}  // namespace

std::string check_tree(const std::string& newick,
                       const std::vector<std::string>& taxa) {
  const std::string_view text = trim(newick);
  if (text.empty()) return "empty tree file";
  if (text.back() != ';') return "tree is not terminated by ';'";
  try {
    (void)Tree::parse_newick(std::string(text), taxa);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

std::vector<std::string> check_run(const RunOutput& run,
                                   const std::vector<std::string>& taxa,
                                   std::optional<double> expected_lnl) {
  std::vector<std::string> failures;
  if (run.exit_code != 0)
    failures.push_back("exit status " + std::to_string(run.exit_code));
  const RaxhStdout out = parse_raxh_stdout(run.stdout_text);
  if (!out.lnl) failures.push_back("no final lnL line");
  if (out.resumed_replicates > 0)
    failures.push_back("resumed " + std::to_string(out.resumed_replicates) +
                       " replicates from a stale checkpoint");
  if (const std::string why = check_tree(run.best_tree, taxa); !why.empty())
    failures.push_back("best tree: " + why);
  if (const std::string why = check_tree(run.bipartitions_tree, taxa);
      !why.empty())
    failures.push_back("bipartitions tree: " + why);
  if (out.lnl && expected_lnl && *out.lnl != *expected_lnl)
    failures.push_back("lnL " + format_number(*out.lnl) + " differs from " +
                       format_number(*expected_lnl) +
                       " on the same alignment");
  return failures;
}

std::string tree_hash(std::string_view newick) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (const char c : trim(newick)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- statistics ----------------------------------------------------------

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(n);
  s.median = n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method="exclusive"): cut points at i*(n+1)/4,
  // interpolated, clamped to the sample range.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ec == std::errc() ? ptr : buf);
}

}  // namespace raxh::e2e
