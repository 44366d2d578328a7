// End-to-end REAL hybrid runs at laptop scale: the full comprehensive
// analysis over a (processes x threads) grid on a synthetic stand-in,
// reporting wall time per stage and the final likelihood for each shape.
// On a single-core host the wall times show no parallel speedup (ranks are
// time-shared); what this bench demonstrates is the real code running the
// paper's exact stage structure and communication pattern at every grid
// point, with identical-or-better final lnL at p > 1.
#include <cstdio>
#include <mutex>
#include <sstream>

#include "bench_util.h"
#include "bio/datasets.h"
#include "bio/patterns.h"
#include "core/hybrid.h"
#include "minimpi/comm.h"
#include "util/timer.h"

int main() {
  using namespace raxh;
  bench::print_header(
      "HYBRID (real runs) - comprehensive analysis over a p x T grid",
      "end-to-end check of the stage structure behind Figs. 1-4");

  const auto& spec = paper_dataset_by_patterns(1130);
  const Alignment alignment = generate_dataset(spec, 0.06, 11);
  const auto patterns = PatternAlignment::compress(alignment);
  std::printf("stand-in for the %zu-pattern set at scale 0.06: %zu taxa, %zu "
              "patterns\n\n",
              spec.patterns, patterns.num_taxa(), patterns.num_patterns());

  std::printf("%3s %3s | %9s %9s %9s %9s | %9s | %12s\n", "p", "T",
              "bootstrap", "fast", "slow", "thorough", "wall(s)", "final lnL");
  std::ostringstream csv;
  csv << "processes,threads,bootstrap_s,fast_s,slow_s,thorough_s,wall_s,"
         "final_lnl\n";

  double serial_wall_s = 0.0;
  for (const auto& [p, t] :
       std::initializer_list<std::pair<int, int>>{
           {1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 1}}) {
    HybridOptions options;
    options.analysis.specified_bootstraps = 10;
    options.analysis.num_threads = t;
    options.analysis.fast.max_rounds = 1;
    options.analysis.slow.max_rounds = 1;
    options.analysis.thorough.max_rounds = 2;
    options.compute_support = false;

    WallTimer wall;
    std::mutex mu;
    StageTimes stage_times;
    double lnl = 0.0;
    mpi::run_thread_ranks(p, [&](mpi::Comm& comm) {
      const auto result = run_hybrid_comprehensive({}, comm, patterns, options);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        lnl = result.best_lnl;
        // Slowest rank per stage, as the paper reports.
        for (const auto& rt : result.rank_times) {
          stage_times.bootstrap = std::max(stage_times.bootstrap, rt.bootstrap);
          stage_times.fast = std::max(stage_times.fast, rt.fast);
          stage_times.slow = std::max(stage_times.slow, rt.slow);
          stage_times.thorough = std::max(stage_times.thorough, rt.thorough);
        }
      }
    });
    const double seconds = wall.seconds();
    if (p == 1 && t == 1) serial_wall_s = seconds;
    std::printf("%3d %3d | %9.2f %9.2f %9.2f %9.2f | %9.2f | %12.4f\n", p, t,
                stage_times.bootstrap, stage_times.fast, stage_times.slow,
                stage_times.thorough, seconds, lnl);
    csv << p << ',' << t << ',' << stage_times.bootstrap << ','
        << stage_times.fast << ',' << stage_times.slow << ','
        << stage_times.thorough << ',' << seconds << ',' << lnl << '\n';
  }
  bench::write_output("hybrid_small.csv", csv.str());
  bench::write_summary("hybrid_small", "serial_1p1t_wall_time", serial_wall_s,
                       "seconds");
  std::printf("\n(one-core host: ranks/threads are time-shared, so wall times"
              " grow with p*T;\n on a real cluster each rank binds its own "
              "cores — the simsched benches model that.)\n");
  return 0;
}
