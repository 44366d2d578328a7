// The end-to-end benchmark's testable core: the workload table, the raxh
// command line each workload runs, the parsers for raxh's stdout and its
// --metrics-out JSON, the run checker, and the run statistics. bench_e2e.cpp
// adds the process spawning, the in-process layer probes and the report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bio/seqsim.h"

namespace raxh::e2e {

// One benchmark workload: the shape of the alignments it simulates and the
// `raxh -f a` invocation it times on each of them.
struct Workload {
  const char* name;
  std::size_t taxa;
  std::size_t distinct_sites;
  std::size_t total_sites;
  double mean_branch_length;
  int bootstraps;  // -N
  int ranks;       // -np
  int threads;     // -T
  // The production-ops run: every run writes a checkpoint per replicate and
  // full telemetry (metrics, Chrome trace, heartbeats).
  bool ops;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

// Alignment `index` of the sequence a benchmark seed generates for `w`. All
// alignments of a workload evolve on one fixed Yule tree, so the seed varies
// the sequence data but not the problem's shape.
[[nodiscard]] SimConfig alignment_config(const Workload& w, std::uint64_t seed,
                                         int index);

enum class Telemetry {
  kOff,      // no telemetry flags (the flight recorder stays at its default)
  kMetrics,  // --metrics-out only: the traced pass
  kFull,     // --metrics-out, --trace-out and --heartbeat-out
};

// Output files a run leaves in its working directory.
inline constexpr const char* kRunName = "e2e";
inline constexpr const char* kBestTreeFile = "e2e_bestTree.tre";
inline constexpr const char* kBipartitionsFile = "e2e_bipartitions.tre";
inline constexpr const char* kMetricsFile = "metrics.json";
inline constexpr const char* kTraceFile = "trace.json";
inline constexpr const char* kCheckpointDir = "ckpt";
inline constexpr const char* kHeartbeatDir = "heartbeat";

// The raxh arguments (argv[1..]) for one run of `w` on `alignment_path`,
// with output paths relative to the run's working directory.
[[nodiscard]] std::vector<std::string> raxh_args(const Workload& w,
                                                 const std::string& alignment_path,
                                                 Telemetry telemetry);

// The telemetry a run of `w` carries: ops workloads always write everything;
// the others write metrics only on the traced pass.
[[nodiscard]] Telemetry run_telemetry(const Workload& w, bool traced);

// --- raxh stdout ---------------------------------------------------------

struct RaxhStdout {
  std::optional<double> lnl;  // "final GAMMA lnL <x>"
  std::size_t patterns = 0;   // "<n> patterns"
  std::string kernel_isa;     // "raxh: <isa> kernels, ..."
  std::string repeats;        // "... site repeats <on|off>"
  int resumed_replicates = 0; // bootstraps restored from a checkpoint
};
// `text` is the run's stdout and stderr together.
[[nodiscard]] RaxhStdout parse_raxh_stdout(std::string_view text);

// --- JSON (just enough for --metrics-out and the goldens) ----------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* find(std::string_view key) const;
};
// Throws std::runtime_error on malformed input.
[[nodiscard]] Json parse_json(std::string_view text);

// One rank's --metrics-out object flattened to its numeric leaves under
// dotted paths: "counters.newview_calls", "phases.bootstrap",
// "latency.collective.mean_ns", "comm.p2p.msgs_sent", ...
using FlatMetrics = std::map<std::string, double>;
// The whole --metrics-out document (an array, one object per rank). Throws
// std::runtime_error if it is not an array of objects.
[[nodiscard]] std::vector<FlatMetrics> parse_metrics_out(std::string_view text);
[[nodiscard]] double sum_over_ranks(const std::vector<FlatMetrics>& ranks,
                                    const std::string& key);
[[nodiscard]] double max_over_ranks(const std::vector<FlatMetrics>& ranks,
                                    const std::string& key);

// --- checks --------------------------------------------------------------

// Empty when `newick` is a complete tree (';'-terminated) over exactly
// `taxa`; otherwise why not.
[[nodiscard]] std::string check_tree(const std::string& newick,
                                     const std::vector<std::string>& taxa);

// What one finished raxh run left behind.
struct RunOutput {
  int exit_code = 0;  // 128 + signal number when killed
  std::string stdout_text;
  std::string best_tree;
  std::string bipartitions_tree;
};

// Every reason the run failed: a nonzero exit, a missing lnL line, a run
// that resumed from a stale checkpoint, a best or bipartitions tree that is
// not a tree over `taxa`, or an lnL other than `expected_lnl` (the lnL of an
// earlier run on the same alignment). Empty when the run passed.
[[nodiscard]] std::vector<std::string> check_run(
    const RunOutput& run, const std::vector<std::string>& taxa,
    std::optional<double> expected_lnl);

// FNV-1a 64 of the tree text without surrounding whitespace, as hex: the
// best-tree fingerprint the goldens pin.
[[nodiscard]] std::string tree_hash(std::string_view newick);

// --- statistics ----------------------------------------------------------

struct Summary {
  double median = 0.0;
  double mean = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
// Quartiles as Python's statistics.quantiles(values, n=4) computes them
// (the "exclusive" method); one value is its own median and quartiles.
[[nodiscard]] Summary summarize(std::vector<double> values);

// Shortest text that reads back as exactly `value`.
[[nodiscard]] std::string format_number(double value);

}  // namespace raxh::e2e
