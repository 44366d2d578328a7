// Shared helpers for the table/figure benches: formatted printing plus CSV
// output under <build>/bench_out/.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace raxh::bench {

// Write `content` to bench_out/<name> (created next to the binary's CWD).
inline void write_output(const std::string& name, const std::string& content) {
  std::filesystem::create_directories("bench_out");
  std::ofstream out("bench_out/" + name);
  out << content;
  std::printf("  [csv written to bench_out/%s]\n", name.c_str());
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==================================================================\n");
}

// ---------------------------------------------------------------------------
// Machine-readable bench summaries
// ---------------------------------------------------------------------------
//
// Every bench also emits BENCH_<name>.json into the CWD: one small object
// carrying the bench's headline metric. CI runs the benches from the repo
// root, so successive runs of the same tree leave a greppable, diffable perf
// trajectory (unlike the human-oriented tables above and the CSVs under
// bench_out/, which carry full detail but no stable headline).

// Write `content` (a complete JSON document) to BENCH_<name>.json.
inline void write_json(const std::string& name, const std::string& content) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  out << content << '\n';
  std::printf("  [json summary written to %s]\n", path.c_str());
}

// The standard one-metric summary. `extra` is appended verbatim as extra
// JSON members, e.g. "\"rows\":12,\"mismatches\":0".
inline void write_summary(const std::string& name, const std::string& metric,
                          double value, const std::string& units,
                          const std::string& extra = std::string()) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::string json = "{\"bench\":\"" + name + "\",\"metric\":\"" + metric +
                     "\",\"value\":" + buf + ",\"units\":\"" + units + "\"";
  if (!extra.empty()) {
    json += ',';
    json += extra;
  }
  json += '}';
  write_json(name, json);
}

}  // namespace raxh::bench

// --- google-benchmark integration (only for targets that link it) ---------
#ifdef RAXH_BENCH_WITH_GBENCH
#include <benchmark/benchmark.h>

namespace raxh::bench {

// Console reporter that additionally captures each benchmark's per-iteration
// real time, so the gbench binaries emit the same BENCH_<name>.json
// summaries as the table/figure benches. A benchmark that sets a "patterns"
// counter also gets its real time per pattern.
class CapturingReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.iterations <= 0) continue;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f",
                    run.real_accumulated_time /
                        static_cast<double>(run.iterations) * 1e9);
      if (!rows_.empty()) rows_ += ',';
      rows_ += "{\"name\":\"" + run.benchmark_name() +
               "\",\"real_time_ns\":" + buf;
      const auto patterns = run.counters.find("patterns");
      if (patterns != run.counters.end() && patterns->second.value > 0) {
        std::snprintf(buf, sizeof(buf), "%.2f",
                      run.real_accumulated_time /
                          static_cast<double>(run.iterations) * 1e9 /
                          patterns->second.value);
        rows_ += ",\"ns_per_pattern\":" + std::string(buf);
      }
      rows_ += '}';
    }
  }

  [[nodiscard]] const std::string& rows() const { return rows_; }

 private:
  std::string rows_;
};

// `extra` is appended verbatim as additional JSON members — gated headline
// metrics computed before the gbench suites land in the same summary file.
inline int gbench_main_with_summary(const std::string& name, int argc,
                                    char** argv,
                                    const std::string& extra = std::string()) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  write_json(name, "{\"bench\":\"" + name +
                       "\",\"metric\":\"per_benchmark_real_time\","
                       "\"units\":\"ns\"," +
                       (extra.empty() ? std::string() : extra + ",") +
                       "\"runs\":[" + reporter.rows() + "]}");
  return 0;
}

}  // namespace raxh::bench
#endif  // RAXH_BENCH_WITH_GBENCH
