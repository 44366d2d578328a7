// core/: the Table 2 schedule law (asserted against every row of the paper's
// table), autotuning heuristics, the per-rank comprehensive analysis, and the
// full hybrid driver over thread-backed and process-backed ranks.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>

#include "bio/datasets.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/autotune.h"
#include "core/comprehensive.h"
#include "core/hybrid.h"
#include "core/schedule.h"
#include "minimpi/comm.h"
#include "tree/bipartition.h"

namespace raxh {
namespace {

// --- Table 2 (the whole table, exactly) ---

struct Table2Row {
  int processes;
  int specified;
  int bootstraps;
  int fast;
  int slow;
  int thorough;
  int bs_per_proc;
  int fast_per_proc;
  int slow_per_proc;
  int thorough_per_proc;
};

class ScheduleTable2 : public ::testing::TestWithParam<Table2Row> {};

TEST_P(ScheduleTable2, MatchesPaperRow) {
  const Table2Row& row = GetParam();
  const HybridSchedule s = make_schedule(row.specified, row.processes);
  EXPECT_EQ(s.per_rank.bootstraps, row.bs_per_proc);
  EXPECT_EQ(s.per_rank.fast_searches, row.fast_per_proc);
  EXPECT_EQ(s.per_rank.slow_searches, row.slow_per_proc);
  EXPECT_EQ(s.per_rank.thorough_searches, row.thorough_per_proc);
  const StageCounts totals = s.totals();
  EXPECT_EQ(totals.bootstraps, row.bootstraps);
  EXPECT_EQ(totals.fast_searches, row.fast);
  EXPECT_EQ(totals.slow_searches, row.slow);
  EXPECT_EQ(totals.thorough_searches, row.thorough);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, ScheduleTable2,
    ::testing::Values(
        // processes, N, bootstraps, fast, slow, thorough, then per-process.
        Table2Row{1, 100, 100, 20, 10, 1, 100, 20, 10, 1},
        Table2Row{2, 100, 100, 20, 10, 2, 50, 10, 5, 1},
        Table2Row{4, 100, 100, 20, 12, 4, 25, 5, 3, 1},
        Table2Row{5, 100, 100, 20, 10, 5, 20, 4, 2, 1},
        Table2Row{8, 100, 104, 24, 16, 8, 13, 3, 2, 1},
        Table2Row{10, 100, 100, 20, 10, 10, 10, 2, 1, 1},
        Table2Row{16, 100, 112, 32, 16, 16, 7, 2, 1, 1},
        Table2Row{20, 100, 100, 20, 20, 20, 5, 1, 1, 1},
        Table2Row{10, 500, 500, 100, 10, 10, 50, 10, 1, 1},
        Table2Row{20, 500, 500, 100, 20, 20, 25, 5, 1, 1}),
    [](const ::testing::TestParamInfo<Table2Row>& param_info) {
      return "p" + std::to_string(param_info.param.processes) + "_N" +
             std::to_string(param_info.param.specified);
    });

TEST(Schedule, TinyBootstrapCountsStayConsistent) {
  const HybridSchedule s = make_schedule(3, 2);
  EXPECT_GE(s.per_rank.fast_searches, 1);
  EXPECT_GE(s.per_rank.slow_searches, 1);
  EXPECT_LE(s.per_rank.slow_searches, s.per_rank.fast_searches);
  EXPECT_LE(s.per_rank.fast_searches, s.per_rank.bootstraps);
}

TEST(Schedule, ThoroughAlwaysOnePerRank) {
  for (int p : {1, 3, 7, 32})
    EXPECT_EQ(make_schedule(100, p).per_rank.thorough_searches, 1);
}

TEST(Autotune, ThreadsGrowWithPatterns) {
  // Paper observation: 348 patterns want few threads; 19,436 want a full
  // 32-core node.
  EXPECT_LE(suggest_threads(348, 8), 4);
  EXPECT_EQ(suggest_threads(1846, 8), 8);     // rounded up to a node divisor
  EXPECT_EQ(suggest_threads(19436, 8), 8);    // capped by the node
  EXPECT_EQ(suggest_threads(19436, 32), 32);  // Triton PDAF case
  EXPECT_EQ(suggest_threads(700, 8), 2);
}

TEST(Autotune, ShapeRespectsCoreBudget) {
  const auto shape = suggest_shape(1846, 80, 8, 100);
  EXPECT_LE(shape.processes * shape.threads, 80);
  EXPECT_GE(shape.processes, 1);
  EXPECT_GE(shape.threads, 1);
  EXPECT_LE(shape.processes, 20);
}

// --- the comprehensive analysis, full stack, small data ---

struct SmallData {
  SmallData() {
    SimConfig cfg;
    cfg.taxa = 8;
    cfg.distinct_sites = 90;
    cfg.total_sites = 120;
    cfg.seed = 2026;
    sim = simulate_alignment(cfg);
    patterns = PatternAlignment::compress(sim.alignment);
  }
  SimResult sim;
  PatternAlignment patterns;
};

ComprehensiveOptions quick_options(int bootstraps = 5) {
  ComprehensiveOptions o;
  o.specified_bootstraps = bootstraps;
  // Keep runtimes test-friendly.
  o.fast.max_rounds = 1;
  o.slow.max_rounds = 1;
  o.thorough.max_rounds = 2;
  o.slow.optimize_model = false;
  o.thorough.optimize_model = false;
  return o;
}

TEST(Comprehensive, SerialRankProducesValidReport) {
  const SmallData data;
  const auto report =
      run_comprehensive_rank({}, data.patterns, quick_options(), 0, 1, nullptr);
  EXPECT_EQ(report.counts.bootstraps, 5);
  EXPECT_EQ(report.counts.thorough_searches, 1);
  EXPECT_EQ(report.bootstrap_newicks.size(), 5u);
  EXPECT_TRUE(std::isfinite(report.best_lnl));
  EXPECT_LT(report.best_lnl, 0.0);
  // The final tree parses and covers all taxa.
  const Tree best =
      Tree::parse_newick(report.best_tree_newick, data.patterns.names());
  EXPECT_TRUE(best.is_complete());
  // Stage times were recorded.
  EXPECT_GT(report.times.total(), 0.0);
  EXPECT_GT(report.times.bootstrap, 0.0);
}

TEST(Comprehensive, ReproducibleForFixedSeedsAndRankCount) {
  // Paper §2.4: identical results for a given seed set and process count.
  const SmallData data;
  const auto a =
      run_comprehensive_rank({}, data.patterns, quick_options(), 1, 2, nullptr);
  const auto b =
      run_comprehensive_rank({}, data.patterns, quick_options(), 1, 2, nullptr);
  EXPECT_EQ(a.best_tree_newick, b.best_tree_newick);
  EXPECT_DOUBLE_EQ(a.best_lnl, b.best_lnl);
  EXPECT_EQ(a.bootstrap_newicks, b.bootstrap_newicks);
}

TEST(Comprehensive, RanksDoDifferentWork) {
  const SmallData data;
  const auto r0 =
      run_comprehensive_rank({}, data.patterns, quick_options(), 0, 2, nullptr);
  const auto r1 =
      run_comprehensive_rank({}, data.patterns, quick_options(), 1, 2, nullptr);
  // Different seeds -> different bootstrap replicate sets.
  EXPECT_NE(r0.bootstrap_newicks, r1.bootstrap_newicks);
}

TEST(Comprehensive, AfterBootstrapsHookFires) {
  const SmallData data;
  int fired = 0;
  run_comprehensive_rank({}, data.patterns, quick_options(), 0, 1, nullptr,
                         [&] { ++fired; });
  EXPECT_EQ(fired, 1);
}

TEST(Comprehensive, ThreadedCrewMatchesSerial) {
  const SmallData data;
  const auto serial =
      run_comprehensive_rank({}, data.patterns, quick_options(), 0, 1, nullptr);
  Workforce crew(3);
  const auto threaded =
      run_comprehensive_rank({}, data.patterns, quick_options(), 0, 1, &crew);
  // Fine-grained parallelism must not change the result, only the speed
  // (branch lengths may differ in the last ulps from reduction order).
  const Tree a =
      Tree::parse_newick(serial.best_tree_newick, data.patterns.names());
  const Tree b =
      Tree::parse_newick(threaded.best_tree_newick, data.patterns.names());
  EXPECT_EQ(rf_distance(a, b), 0);
  EXPECT_NEAR(serial.best_lnl, threaded.best_lnl,
              std::fabs(serial.best_lnl) * 1e-8);
}

// --- hybrid driver over thread-backed ranks ---

TEST(Hybrid, SelectsGlobalBestAndBroadcasts) {
  const SmallData data;
  HybridOptions options;
  options.analysis = quick_options(6);
  options.compute_support = true;

  std::mutex mu;
  std::vector<HybridResult> results;
  mpi::run_thread_ranks(3, [&](mpi::Comm& comm) {
    const auto result =
        run_hybrid_comprehensive({}, comm, data.patterns, options);
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(result);
  });

  ASSERT_EQ(results.size(), 3u);
  // Every rank got the same winner.
  for (const auto& r : results) {
    EXPECT_EQ(r.best_tree_newick, results[0].best_tree_newick);
    EXPECT_DOUBLE_EQ(r.best_lnl, results[0].best_lnl);
    EXPECT_EQ(r.winner_rank, results[0].winner_rank);
  }
  // Exactly one rank produced rank-0 report data.
  int with_times = 0;
  for (const auto& r : results)
    if (!r.rank_times.empty()) ++with_times;
  EXPECT_EQ(with_times, 1);
  // Rank 0 aggregated 3 ranks x ceil(6/3)=2 bootstraps.
  for (const auto& r : results) {
    if (r.rank_times.empty()) continue;
    EXPECT_EQ(r.rank_times.size(), 3u);
    EXPECT_EQ(r.total_bootstrap_trees, 6);
    EXPECT_FALSE(r.support_tree_newick.empty());
    // The winner's lnL is the max over gathered per-rank lnls.
    double max_lnl = -1e300;
    for (double l : r.rank_lnls) max_lnl = std::max(max_lnl, l);
    EXPECT_DOUBLE_EQ(max_lnl, r.best_lnl);
  }
}

TEST(Hybrid, MultiProcessQualityAtLeastSerial) {
  // Paper Table 6: the multi-process solutions are as good as or better than
  // the serial ones (p thorough searches instead of 1).
  const SmallData data;
  HybridOptions options;
  options.analysis = quick_options(6);
  options.compute_support = false;

  double serial_lnl = 0.0;
  mpi::run_thread_ranks(1, [&](mpi::Comm& comm) {
    serial_lnl =
        run_hybrid_comprehensive({}, comm, data.patterns, options).best_lnl;
  });

  double hybrid_lnl = 0.0;
  std::mutex mu;
  mpi::run_thread_ranks(3, [&](mpi::Comm& comm) {
    const auto r = run_hybrid_comprehensive({}, comm, data.patterns, options);
    std::lock_guard<std::mutex> lock(mu);
    hybrid_lnl = r.best_lnl;
  });

  EXPECT_GE(hybrid_lnl, serial_lnl - 0.5);
}

TEST(Hybrid, BootstoppingReportRuns) {
  const SmallData data;
  HybridOptions options;
  options.analysis = quick_options(8);
  options.compute_support = false;
  options.run_bootstopping = true;

  mpi::run_thread_ranks(2, [&](mpi::Comm& comm) {
    const auto r = run_hybrid_comprehensive({}, comm, data.patterns, options);
    if (comm.rank() == 0) {
      // 8 replicates of a tiny clean data set: the FC statistic exists.
      EXPECT_GE(r.bootstop.mean_correlation, -1.0);
      EXPECT_LE(r.bootstop.mean_correlation, 1.0);
    }
  });
}

}  // namespace
}  // namespace raxh
