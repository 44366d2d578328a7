// bench_e2e: the repository's end-to-end benchmark. It times the real raxh
// binary running the comprehensive analysis (`raxh -f a`) and splits the
// time into the layers of the code base.
//
//   bench_e2e --raxh PATH [--workload NAME|all] [--seed N] [--seconds S]
//             [--trace 0|1] [--out FILE] [--workdir DIR] [--commit SHA]
//             [--goldens FILE]
//
// One closed-loop client: the benchmark spawns one raxh at a time
// (posix_spawn + wait4) and starts the next run only when the last one has
// exited. Every run gets a fresh working directory, so checkpoint and
// heartbeat directories never carry over from an earlier run (a reused
// checkpoint directory silently resumes the bootstraps).
//
// --trace 0 measures the end-to-end metrics: raxh runs on successive
// alignments generated from --seed until --seconds have passed, and the
// metrics are medians over those runs. --trace 1 measures the per-layer
// metrics: in-process probes time public layer calls on the workload's own
// alignment and thread count, then the same raxh command runs alternately
// without and with --metrics-out until --seconds have passed. --workload all
// runs both passes on every workload (a full invocation, for compare.py).
//
// Prints `workload metric value unit` for every metric, then one JSON line
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a run failed
// a check, 2 on bad usage.
#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bio/io.h"
#include "bio/patterns.h"
#include "core/checkpoint.h"
#include "core/comprehensive.h"
#include "e2e.h"
#include "likelihood/engine.h"
#include "likelihood/evaluator.h"
#include "parallel/workforce.h"
#include "search/bootstrap.h"
#include "search/parsimony.h"
#include "search/spr.h"

extern char** environ;

namespace {

using namespace raxh;
using namespace raxh::e2e;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Setup is parse + compress of one alignment, about half a millisecond. On
// the shared dev host its speed flips between a fast and a ~1.5x slower
// state every 0.2-1 s, so setup is sampled in short bursts at this interval
// for the whole pass: a median over many moments, not over a few.
constexpr std::chrono::milliseconds kSetupInterval{200};
constexpr int kSetupBurst = 3;  // back to back; the fastest one counts
constexpr std::size_t kMinSetupSamples = 51;
// A hung raxh is killed (and counted as failed) after this long.
constexpr double kRunTimeoutS = 60.0;
// The end-to-end pass never reports a median of fewer runs than this.
constexpr int kMinEndToEndRuns = 3;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 11;
  double seconds = 20.0;
  int trace = 0;
  std::string raxh;
  std::string out;
  std::string workdir = ".bench_build/e2e_runs";
  std::string commit = "unknown";
  std::string goldens = "bench/e2e/goldens.json";
};

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t file_bytes(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

// --- spawning raxh ------------------------------------------------------

struct ProcessResult {
  int exit_code = 0;  // 128 + signal when killed
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
};

// Runs `program args...` in `cwd` with stdout and stderr in cwd/stdout.txt,
// in a process group of its own so a timeout kills forked ranks too.
ProcessResult spawn_and_wait(const std::string& program,
                             const std::vector<std::string>& args,
                             const fs::path& cwd) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(program.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addchdir_np(&actions, cwd.c_str());
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "stdout.txt",
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);

  // The kernel carries a process's peak RSS across exec, and the spawned
  // child starts out sharing this process's memory. Shrink this process to
  // what it uses and reset its peak to that, so the child's ru_maxrss is
  // raxh's own (it cannot read below this process's few-MB footprint).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";

  ProcessResult result;
  const Clock::time_point start = Clock::now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, program.c_str(), &actions, &attr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  if (rc != 0) {
    result.exit_code = 127;
    return result;
  }

  // The watchdog kills the group on timeout. The child is waited for with
  // WNOWAIT first, so its pid (and group id) cannot be reused before the
  // watchdog has stopped.
  std::mutex mu;
  std::condition_variable cv;
  bool exited = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::duration<double>(kRunTimeoutS),
                     [&] { return exited; }))
      kill(-pid, SIGKILL);
  });
  siginfo_t info{};
  while (waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) != 0 &&
         errno == EINTR) {
  }
  result.wall_s = since(start);
  {
    std::lock_guard<std::mutex> lock(mu);
    exited = true;
  }
  cv.notify_all();
  watchdog.join();
  kill(-pid, SIGKILL);  // any rank the run left behind

  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
  result.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  result.rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

// --- setup timing -------------------------------------------------------

struct SetupTimes {
  std::vector<double> parse, compress, total;  // seconds per sample
  std::size_t patterns = 0;
};

// Times raxh's setup phase (read_phylip_file + PatternAlignment::compress)
// on one alignment from a thread of its own, one burst every kSetupInterval
// until stop(). A burst takes about 1.5 ms, so it barely touches the two
// vCPUs a raxh run leaves spare.
class SetupSampler {
 public:
  explicit SetupSampler(std::string path)
      : path_(std::move(path)), thread_([this] { loop(); }) {}
  ~SetupSampler() { halt(); }
  SetupSampler(const SetupSampler&) = delete;
  SetupSampler& operator=(const SetupSampler&) = delete;

  // Stops sampling, tops up to kMinSetupSamples, and returns the samples.
  // Rethrows what a burst threw.
  SetupTimes stop() {
    halt();
    if (error_) std::rethrow_exception(error_);
    while (times_.total.size() < kMinSetupSamples) burst();
    return std::move(times_);
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      lock.unlock();
      try {
        burst();
      } catch (...) {
        error_ = std::current_exception();
        return;
      }
      lock.lock();
      cv_.wait_for(lock, kSetupInterval, [&] { return stopping_; });
    }
  }

  void halt() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void burst() {
    double parse = 0.0, compress = 0.0, total = 0.0;
    for (int i = 0; i < kSetupBurst; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Alignment a = read_phylip_file(path_);
      const Clock::time_point t1 = Clock::now();
      const PatternAlignment patterns = PatternAlignment::compress(a);
      const Clock::time_point t2 = Clock::now();
      const double seconds = std::chrono::duration<double>(t2 - t0).count();
      if (i == 0 || seconds < total) {
        parse = std::chrono::duration<double>(t1 - t0).count();
        compress = std::chrono::duration<double>(t2 - t1).count();
        total = seconds;
      }
      times_.patterns = patterns.num_patterns();
    }
    times_.parse.push_back(parse);
    times_.compress.push_back(compress);
    times_.total.push_back(total);
  }

  const std::string path_;
  SetupTimes times_;  // written by the sampling thread until it is joined
  std::exception_ptr error_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;  // guarded by mu_
  std::thread thread_;     // last: it starts with every member above in place
};

// --- goldens ------------------------------------------------------------

struct Golden {
  double lnl = 0.0;
  std::string tree;
};

// bench/e2e/goldens.json: {"seed": 11, "workloads": {name: [{"lnl",
// "tree_fnv1a"} per alignment index]}}. Only runs at that seed are checked.
std::map<std::string, std::vector<Golden>> load_goldens(const std::string& path,
                                                        std::uint64_t seed) {
  const Json doc = parse_json(read_file(path));
  const Json* golden_seed = doc.find("seed");
  const Json* table = doc.find("workloads");
  if (!golden_seed || !table) throw std::runtime_error(path + ": missing keys");
  std::map<std::string, std::vector<Golden>> goldens;
  if (golden_seed->number != static_cast<double>(seed)) return goldens;
  for (const auto& [name, runs] : table->object)
    for (const Json& run : runs.array) {
      const Json* lnl = run.find("lnl");
      const Json* tree = run.find("tree_fnv1a");
      if (!lnl || !tree) throw std::runtime_error(path + ": malformed entry");
      goldens[name].push_back(Golden{lnl->number, tree->string});
    }
  return goldens;
}

// --- one raxh run -------------------------------------------------------

struct Run {
  int alignment = 0;
  Telemetry telemetry = Telemetry::kOff;
  ProcessResult process;
  RaxhStdout out;
  std::string tree;  // best-tree hash
  std::vector<std::string> failures;
  std::vector<FlatMetrics> metrics;  // when the run wrote --metrics-out
  std::uint64_t metrics_bytes = 0;
  std::uint64_t trace_bytes = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// An end-to-end metric with the per-run samples it summarizes.
struct EndToEnd {
  Metric metric;
  Summary summary;
  std::vector<double> samples;
};

// Everything one workload's passes measured.
struct WorkloadReport {
  const Workload* workload = nullptr;
  std::string command;  // the untraced raxh command line, for the record
  std::vector<Run> runs;
  std::vector<EndToEnd> end_to_end;
  std::vector<Metric> per_layer;

  [[nodiscard]] int failed() const {
    int n = 0;
    for (const Run& r : runs) n += r.failures.empty() ? 0 : 1;
    return n;
  }
};

class WorkloadBench {
 public:
  WorkloadBench(const Options& options, const Workload& w,
                const std::vector<Golden>* goldens)
      : options_(options), w_(w), goldens_(goldens),
        dir_(fs::path(options.workdir) / w.name) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    report_.workload = &w;
  }
  ~WorkloadBench() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  WorkloadBench(const WorkloadBench&) = delete;
  WorkloadBench& operator=(const WorkloadBench&) = delete;

  void end_to_end_pass();
  void traced_pass();
  WorkloadReport take_report() { return std::move(report_); }

 private:
  // Writes alignment `index` (once) and returns its absolute path.
  std::string alignment(int index);
  std::vector<std::string> taxa() const;
  Run run(int index, Telemetry telemetry, std::optional<double> expected_lnl);
  void run_probes(std::vector<Metric>& out);
  std::vector<Metric> program_layers(const Run& traced) const;

  const Options& options_;
  const Workload& w_;
  const std::vector<Golden>* goldens_;
  fs::path dir_;
  int next_run_dir_ = 0;
  std::map<int, std::string> alignments_;
  WorkloadReport report_;
};

std::string WorkloadBench::alignment(int index) {
  if (auto it = alignments_.find(index); it != alignments_.end()) return it->second;
  const fs::path path =
      fs::absolute(dir_ / ("alignment" + std::to_string(index) + ".phy"));
  write_phylip_file(path.string(),
                    simulate_alignment(alignment_config(w_, options_.seed, index))
                        .alignment);
  return alignments_[index] = path.string();
}

std::vector<std::string> WorkloadBench::taxa() const {
  std::vector<std::string> names;
  for (std::size_t t = 0; t < w_.taxa; ++t)
    names.push_back("taxon" + std::to_string(t + 1));
  return names;
}

Run WorkloadBench::run(int index, Telemetry telemetry,
                       std::optional<double> expected_lnl) {
  Run r;
  r.alignment = index;
  r.telemetry = telemetry;
  const std::vector<std::string> args = raxh_args(w_, alignment(index), telemetry);
  if (report_.command.empty() && telemetry == run_telemetry(w_, false)) {
    report_.command = "raxh";
    for (const std::string& a : args)
      report_.command += " " + fs::path(a).filename().string();
  }

  const fs::path cwd = dir_ / ("run" + std::to_string(next_run_dir_++));
  fs::remove_all(cwd);
  fs::create_directories(cwd);
  r.process = spawn_and_wait(options_.raxh, args, cwd);

  RunOutput output;
  output.exit_code = r.process.exit_code;
  output.stdout_text = read_file(cwd / "stdout.txt");
  output.best_tree = read_file(cwd / kBestTreeFile);
  output.bipartitions_tree = read_file(cwd / kBipartitionsFile);
  r.failures = check_run(output, taxa(), expected_lnl);
  r.out = parse_raxh_stdout(output.stdout_text);
  r.tree = tree_hash(output.best_tree);

  if (telemetry != Telemetry::kOff) {
    r.metrics_bytes = file_bytes(cwd / kMetricsFile);
    try {
      r.metrics = parse_metrics_out(read_file(cwd / kMetricsFile));
    } catch (const std::exception& e) {
      r.failures.push_back(std::string("--metrics-out: ") + e.what());
    }
    if (sum_over_ranks(r.metrics, "counters.kernel_fallbacks") > 0)
      r.failures.push_back("likelihood kernels fell back to scalar");
  }
  if (telemetry == Telemetry::kFull) r.trace_bytes = file_bytes(cwd / kTraceFile);

  if (goldens_ && index < static_cast<int>(goldens_->size()) && r.out.lnl) {
    const Golden& g = (*goldens_)[static_cast<std::size_t>(index)];
    if (*r.out.lnl != g.lnl || r.tree != g.tree)
      r.failures.push_back("alignment " + std::to_string(index) + ": lnL " +
                           format_number(*r.out.lnl) + " tree " + r.tree +
                           " differ from the golden lnL " +
                           format_number(g.lnl) + " tree " + g.tree);
  }
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "bench_e2e: %s run %d FAILED: %s\n", w_.name,
                 next_run_dir_ - 1, f.c_str());
  fs::remove_all(cwd);
  return r;
}

void WorkloadBench::end_to_end_pass() {
  SetupSampler sampler(alignment(0));
  // Untimed warm-up: after an idle spell the first 2-thread run on the
  // 4-vCPU dev host ran ~40% slower than the rest. It also gives alignment
  // 0 the lnL its timed repetition must reproduce.
  Run warm_up = run(0, run_telemetry(w_, false), std::nullopt);
  const std::optional<double> lnl0 = warm_up.out.lnl;
  report_.runs.push_back(std::move(warm_up));

  std::vector<double> wall, cpu, rss;
  const Clock::time_point start = Clock::now();
  for (int index = 0;
       index < kMinEndToEndRuns || since(start) < options_.seconds; ++index) {
    Run r = run(index, run_telemetry(w_, false),
                index == 0 ? lnl0 : std::nullopt);
    if (r.failures.empty()) {
      wall.push_back(r.process.wall_s);
      cpu.push_back(r.process.cpu_s);
      rss.push_back(r.process.rss_mb);
    }
    report_.runs.push_back(std::move(r));
  }
  SetupTimes setup = sampler.stop();

  const auto add = [&](const char* name, std::vector<double> samples,
                       const char* unit, bool mean) {
    const Summary s = summarize(samples);
    report_.end_to_end.push_back(
        {{name, mean ? s.mean : s.median, unit}, s, std::move(samples)});
  };
  add("wall_s", std::move(wall), "s", false);
  add("cpu_s", std::move(cpu), "s", false);
  add("setup_s", std::move(setup.total), "s", false);
  // Each alignment's peak is deterministic (no outliers to guard against),
  // so the mean over alignments is the steadier summary.
  add("peak_rss_mb", std::move(rss), "MB", true);
}

// Layer metrics read from one traced run's --metrics-out and its files.
std::vector<Metric> WorkloadBench::program_layers(const Run& traced) const {
  const std::vector<FlatMetrics>& ranks = traced.metrics;
  const auto sum = [&](const std::string& key) { return sum_over_ranks(ranks, key); };
  const auto max = [&](const std::string& key) { return max_over_ranks(ranks, key); };
  const double wall = traced.process.wall_s;

  // Rank 0 is on the critical path from start to exit; its phases (setup,
  // stages, syncs, finalize) leave out process start, fork and teardown.
  double rank0_phases = 0.0;
  if (!ranks.empty())
    for (const auto& [key, value] : ranks.front())
      if (key.rfind("phases.", 0) == 0) rank0_phases += value;
  double work_max = 0.0, work_sum = 0.0;
  for (const FlatMetrics& r : ranks) {
    double work = 0.0;
    for (const char* stage : {"bootstrap", "fast", "slow", "thorough"})
      if (const auto it = r.find(std::string("phases.") + stage); it != r.end())
        work += it->second;
    work_max = std::max(work_max, work);
    work_sum += work;
  }
  const double nranks = static_cast<double>(std::max<std::size_t>(1, ranks.size()));
  double msgs = 0.0, bytes = 0.0;
  for (const char* op : {"p2p", "barrier", "bcast", "reduce", "gather"}) {
    msgs += sum(std::string("comm.") + op + ".msgs_sent");
    bytes += sum(std::string("comm.") + op + ".bytes_sent");
  }
  double collective_ns = 0.0;
  for (const FlatMetrics& r : ranks) {
    const auto count = r.find("latency.collective.count");
    const auto mean = r.find("latency.collective.mean_ns");
    if (count != r.end() && mean != r.end()) collective_ns += count->second * mean->second;
  }
  const double collectives = sum("latency.collective.count");
  const double repeat_computed = sum("counters.repeat_patterns_computed");
  const double repeat_copied = sum("counters.repeat_patterns_copied");

  return {
      {"core.bootstrap_s", max("phases.bootstrap"), "s"},
      {"core.fast_s", max("phases.fast"), "s"},
      {"core.slow_s", max("phases.slow"), "s"},
      {"core.thorough_s", max("phases.thorough"), "s"},
      {"core.sync_s", max("phases.sync"), "s"},
      {"core.outside_stages_s", wall - rank0_phases, "s"},
      {"core.rank_imbalance", work_sum > 0 ? work_max * nranks / work_sum : 1.0,
       "ratio"},
      {"likelihood.newview_calls", sum("counters.newview_calls"), "count"},
      {"likelihood.evaluate_calls", sum("counters.evaluate_calls"), "count"},
      {"likelihood.derivative_calls", sum("counters.derivative_calls"), "count"},
      {"likelihood.patterns_evaluated", sum("counters.patterns_evaluated"), "count"},
      {"likelihood.repeat_hit_ratio",
       repeat_computed + repeat_copied > 0
           ? repeat_copied / (repeat_computed + repeat_copied)
           : 0.0,
       "ratio"},
      {"likelihood.kernel_fallbacks", sum("counters.kernel_fallbacks"), "count"},
      {"parallel.crew_jobs", sum("counters.workforce_jobs"), "count"},
      {"parallel.barrier_wait_share",
       sum("counters.barrier_wait_ns") / 1e9 / (wall * nranks), "ratio"},
      {"minimpi.msgs", msgs, "count"},
      {"minimpi.bytes", bytes, "bytes"},
      {"minimpi.barrier_wait_s", max("comm.barrier_wait_ns") / 1e9, "s"},
      {"minimpi.collective_mean_us",
       collectives > 0 ? collective_ns / collectives / 1e3 : 0.0, "us"},
      {"obs.metrics_bytes", static_cast<double>(traced.metrics_bytes), "bytes"},
      {"obs.trace_bytes", static_cast<double>(traced.trace_bytes), "bytes"},
  };
}

void WorkloadBench::traced_pass() {
  std::vector<Metric> layers;
  run_probes(layers);

  // The same command without and with the traced pass's telemetry, in
  // turn, on alignment 0: every lnL must agree.
  SetupSampler sampler(alignment(0));
  std::optional<double> lnl;
  std::vector<double> plain_wall, traced_wall;
  std::map<std::string, std::vector<double>> program;
  std::map<std::string, std::string> units;
  const Clock::time_point start = Clock::now();
  do {
    for (const bool traced : {false, true}) {
      Run r = run(0, traced ? run_telemetry(w_, true) : Telemetry::kOff, lnl);
      if (!lnl) lnl = r.out.lnl;
      if (r.failures.empty()) {
        (traced ? traced_wall : plain_wall).push_back(r.process.wall_s);
        if (traced)
          for (const Metric& m : program_layers(r)) {
            program[m.name].push_back(m.value);
            units[m.name] = m.unit;
          }
      }
      report_.runs.push_back(std::move(r));
    }
  } while (since(start) < options_.seconds);
  const SetupTimes setup = sampler.stop();

  layers.insert(layers.end(),
                {{"bio.parse_s", summarize(setup.parse).median, "s"},
                 {"bio.compress_s", summarize(setup.compress).median, "s"},
                 {"bio.patterns", static_cast<double>(setup.patterns), "count"}});
  for (const auto& [name, values] : program)
    layers.push_back({name, summarize(values).median, units[name]});
  layers.push_back({"obs.traced_wall_ratio",
                    plain_wall.empty() || traced_wall.empty()
                        ? 0.0
                        : summarize(traced_wall).median / summarize(plain_wall).median,
                    "ratio"});
  std::sort(layers.begin(), layers.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  report_.per_layer = std::move(layers);
}

// --- in-process layer probes ---------------------------------------------

// Time spent in each kind of call the search makes through the Evaluator.
struct CallTimes {
  double evaluate_s = 0.0, branch_s = 0.0, smooth_s = 0.0, model_s = 0.0;
  long evaluate_calls = 0, branch_calls = 0;
};

// An Evaluator decorator that times every call the search makes into the
// likelihood layer (evaluate, branch optimisation, smoothing) and into model
// optimisation.
class TimedEvaluator final : public Evaluator {
 public:
  TimedEvaluator(Evaluator& inner, CallTimes& times)
      : inner_(&inner), times_(&times) {}
  using Evaluator::evaluate;

  double evaluate(const Tree& tree, int rec) override {
    ++times_->evaluate_calls;
    return timed(times_->evaluate_s, [&] { return inner_->evaluate(tree, rec); });
  }
  double optimize_branch(Tree& tree, int rec) override {
    ++times_->branch_calls;
    return timed(times_->branch_s,
                 [&] { return inner_->optimize_branch(tree, rec); });
  }
  double smooth_branches(Tree& tree, int passes) override {
    return timed(times_->smooth_s,
                 [&] { return inner_->smooth_branches(tree, passes); });
  }
  double optimize_model(Tree& tree) override {
    return timed(times_->model_s, [&] { return inner_->optimize_model(tree); });
  }

 private:
  template <typename F>
  static double timed(double& seconds, F&& f) {
    const Clock::time_point t0 = Clock::now();
    const double result = f();
    seconds += since(t0);
    return result;
  }

  Evaluator* inner_;
  CallTimes* times_;
};

struct SearchProbe {
  Tree tree;
  GtrParams gtr;
  double seconds = 0.0;
  CallTimes calls;
  SearchStats stats;
};

// The CAT engine the comprehensive analysis searches with.
LikelihoodEngine cat_engine(const PatternAlignment& patterns, Workforce* crew) {
  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  return LikelihoodEngine(patterns, gtr, RateModel::cat(patterns.num_patterns()),
                          crew);
}

// One slow-stage SPR search on the CAT engine from a randomized stepwise
// addition tree, as stages 2-3 run it.
SearchProbe probe_search(const PatternAlignment& patterns, std::uint64_t seed,
                         Workforce* crew) {
  LikelihoodEngine cat = cat_engine(patterns, crew);
  Lcg rng(static_cast<std::int64_t>(seed));
  SearchProbe probe{randomized_stepwise_addition(patterns, cat.weights(), rng),
                    {}, 0.0, {}, {}};
  cat.optimize_cat_rates(probe.tree);
  EngineEvaluator engine(cat);
  TimedEvaluator timed(engine, probe.calls);
  SprSearch spr(timed, slow_settings());
  const Clock::time_point t0 = Clock::now();
  spr.run(probe.tree);
  probe.seconds = since(t0);
  probe.gtr = cat.gtr();
  probe.stats = spr.stats();
  return probe;
}

void WorkloadBench::run_probes(std::vector<Metric>& out) {
  const PatternAlignment patterns =
      PatternAlignment::compress(read_phylip_file(alignment(0)));
  std::unique_ptr<Workforce> crew;
  if (w_.threads > 1) crew = std::make_unique<Workforce>(w_.threads);

  SearchProbe probe = probe_search(patterns, options_.seed, crew.get());
  // At T = 1 the crew is bypassed and there is nothing to speed up.
  const double speedup =
      crew ? probe_search(patterns, options_.seed, nullptr).seconds / probe.seconds
           : 1.0;

  // The GAMMA optimize_all call that ends stage 4.
  LikelihoodEngine gamma(patterns, probe.gtr,
                         RateModel::gamma(ComprehensiveOptions{}.initial_alpha),
                         crew.get());
  const Clock::time_point g0 = Clock::now();
  gamma.optimize_all(probe.tree, 0.02, 5);
  const double gamma_s = since(g0);

  // Workforce::run with an empty job: the crew's dispatch round trip.
  std::vector<double> dispatch_ns;
  {
    Workforce dispatch_crew(w_.threads);
    const std::function<void(int, int)> empty = [](int, int) {};
    constexpr int kBatch = 1000;
    for (int i = 0; i < kBatch; ++i) dispatch_crew.run(empty);
    for (int b = 0; b < 15; ++b) {
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) dispatch_crew.run(empty);
      dispatch_ns.push_back(since(t0) * 1e9 / kBatch);
    }
  }

  // save_bootstrap_checkpoint of a two-replicate snapshot.
  std::vector<double> save_us;
  std::uint64_t checkpoint_bytes = 0;
  {
    LikelihoodEngine cat = cat_engine(patterns, crew.get());
    RapidBootstrap bootstrap(cat, patterns, 12345, 12345);
    BootstrapSnapshot snapshot;
    bootstrap.run_resumable(2, snapshot);
    const fs::path path = dir_ / "probe.ckpt";
    for (int i = 0; i < 21; ++i) {
      const Clock::time_point t0 = Clock::now();
      save_bootstrap_checkpoint(path.string(), snapshot);
      save_us.push_back(since(t0) * 1e6);
    }
    checkpoint_bytes = file_bytes(path);
  }

  const CallTimes& c = probe.calls;
  const double likelihood_s = c.evaluate_s + c.branch_s + c.smooth_s;
  const double moves = static_cast<double>(probe.stats.moves_tried);
  const auto per_call_us = [](double s, long calls) {
    return calls > 0 ? s * 1e6 / static_cast<double>(calls) : 0.0;
  };
  out.insert(out.end(), {
      {"core.checkpoint_bytes", static_cast<double>(checkpoint_bytes), "bytes"},
      {"core.checkpoint_save_us", summarize(save_us).median, "us"},
      {"likelihood.evaluate_us", per_call_us(c.evaluate_s, c.evaluate_calls), "us"},
      {"likelihood.optimize_branch_us", per_call_us(c.branch_s, c.branch_calls), "us"},
      {"likelihood.probe_share", likelihood_s / probe.seconds, "ratio"},
      {"search.probe_s", probe.seconds, "s"},
      {"search.self_share", 1.0 - (likelihood_s + c.model_s) / probe.seconds, "ratio"},
      {"search.moves_tried", moves, "count"},
      {"search.accept_ratio",
       moves > 0 ? static_cast<double>(probe.stats.moves_accepted) / moves : 0.0,
       "ratio"},
      {"model.optimize_model_s", c.model_s, "s"},
      {"model.gamma_final_s", gamma_s, "s"},
      {"parallel.dispatch_empty_ns", summarize(dispatch_ns).median, "ns"},
      {"parallel.probe_speedup", speedup, "ratio"},
  });
}

// --- report --------------------------------------------------------------

const char* telemetry_name(Telemetry t) {
  switch (t) {
    case Telemetry::kOff: return "off";
    case Telemetry::kMetrics: return "metrics";
    case Telemetry::kFull: return "full";
  }
  return "?";
}

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? "," : "") + format_number(values[i]);
  return out + "]";
}

// The full record compare.py reads: stamps, every run, every sample.
std::string detail_json(const Options& o, const std::vector<WorkloadReport>& reports) {
  std::string isa = "unknown", repeats = "unknown";
  for (const WorkloadReport& w : reports)
    for (const Run& r : w.runs)
      if (!r.out.kernel_isa.empty()) {
        isa = r.out.kernel_isa;
        repeats = r.out.repeats;
      }
  std::ostringstream j;
  j << "{\n\"stamp\": {\"commit\": " << json_string(o.commit)
    << ", \"build_type\": " << json_string(RAXH_E2E_BUILD_TYPE)
    << ", \"cxx_flags\": " << json_string(RAXH_E2E_CXX_FLAGS)
    << ", \"kernel_isa\": " << json_string(isa)
    << ", \"repeats\": " << json_string(repeats)
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"seed\": " << o.seed << ", \"seconds\": " << format_number(o.seconds)
    << "},\n\"workloads\": {";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& w = reports[i];
    j << (i ? ",\n" : "\n") << json_string(w.workload->name) << ": {\"command\": "
      << json_string(w.command) << ", \"attempted\": " << w.runs.size()
      << ", \"failed\": " << w.failed() << ",\n \"end_to_end\": {";
    for (std::size_t m = 0; m < w.end_to_end.size(); ++m) {
      const Metric& metric = w.end_to_end[m].metric;
      const Summary& s = w.end_to_end[m].summary;
      j << (m ? ", " : "") << json_string(metric.name) << ": {\"unit\": "
        << json_string(metric.unit) << ", \"value\": " << format_number(metric.value)
        << ", \"median\": " << format_number(s.median)
        << ", \"mean\": " << format_number(s.mean)
        << ", \"q1\": " << format_number(s.q1) << ", \"q3\": " << format_number(s.q3)
        << ", \"n\": " << s.n << ", \"samples\": "
        << number_list(w.end_to_end[m].samples) << "}";
    }
    j << "},\n \"per_layer\": {";
    for (std::size_t m = 0; m < w.per_layer.size(); ++m)
      j << (m ? ", " : "") << json_string(w.per_layer[m].name) << ": {\"value\": "
        << format_number(w.per_layer[m].value)
        << ", \"unit\": " << json_string(w.per_layer[m].unit) << "}";
    j << "},\n \"runs\": [";
    for (std::size_t r = 0; r < w.runs.size(); ++r) {
      const Run& run = w.runs[r];
      j << (r ? ",\n  " : "\n  ") << "{\"alignment\": " << run.alignment
        << ", \"telemetry\": \"" << telemetry_name(run.telemetry)
        << "\", \"exit\": " << run.process.exit_code
        << ", \"wall_s\": " << format_number(run.process.wall_s)
        << ", \"cpu_s\": " << format_number(run.process.cpu_s)
        << ", \"rss_mb\": " << format_number(run.process.rss_mb)
        << ", \"patterns\": " << run.out.patterns
        << ", \"lnl\": " << (run.out.lnl ? format_number(*run.out.lnl) : "null")
        << ", \"tree_fnv1a\": " << json_string(run.tree) << ", \"failures\": [";
      for (std::size_t f = 0; f < run.failures.size(); ++f)
        j << (f ? ", " : "") << json_string(run.failures[f]);
      j << "]}";
    }
    j << "]}";
  }
  j << "\n}}\n";
  return j.str();
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (!(o.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value[0] - '0';
    } else if (key == "--raxh") {
      o.raxh = value;
    } else if (key == "--out") {
      o.out = value;
    } else if (key == "--workdir") {
      o.workdir = value;
    } else if (key == "--commit") {
      o.commit = value;
    } else if (key == "--goldens") {
      o.goldens = value;
    } else {
      return false;
    }
    if (end && (*end != '\0' || end == value.c_str())) return false;
  }
  return !o.raxh.empty() &&
         (o.workload == "all" || find_workload(o.workload) != nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --raxh PATH [--workload NAME|all] [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out FILE] [--workdir DIR] "
                 "[--commit SHA] [--goldens FILE]\nworkloads:",
                 argv[0]);
    for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (access(options.raxh.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "bench_e2e: %s is not an executable\n", options.raxh.c_str());
    return 2;
  }
  options.raxh = fs::absolute(options.raxh).string();  // runs start in their own dir

  std::vector<WorkloadReport> reports;
  try {
    const auto goldens = load_goldens(options.goldens, options.seed);
    for (const Workload& w : workloads()) {
      if (options.workload != "all" && options.workload != w.name) continue;
      const auto golden = goldens.find(w.name);
      WorkloadBench bench(options, w,
                          golden == goldens.end() ? nullptr : &golden->second);
      if (options.workload == "all" || options.trace == 0) bench.end_to_end_pass();
      if (options.workload == "all" || options.trace == 1) bench.traced_pass();
      reports.push_back(bench.take_report());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }

  std::size_t attempted = 0, failed = 0;
  std::string metrics;
  for (const WorkloadReport& w : reports) {
    attempted += w.runs.size();
    failed += static_cast<std::size_t>(w.failed());
    const std::string prefix =
        options.workload == "all" ? std::string(w.workload->name) + "." : "";
    std::vector<Metric> all;
    for (const EndToEnd& e : w.end_to_end) all.push_back(e.metric);
    all.insert(all.end(), w.per_layer.begin(), w.per_layer.end());
    for (const Metric& m : all) {
      std::printf("%s %s %s %s\n", w.workload->name, m.name.c_str(),
                  format_number(m.value).c_str(), m.unit.c_str());
      metrics += (metrics.empty() ? "" : ", ") + json_string(prefix + m.name) +
                 ": {\"value\": " + format_number(m.value) +
                 ", \"unit\": " + json_string(m.unit) + "}";
    }
  }
  if (!options.out.empty()) {
    std::ofstream out(options.out);
    out << detail_json(options, reports);
    if (!out) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", options.out.c_str());
      return 2;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed, metrics.c_str());
  return failed == 0 ? 0 : 1;
}
