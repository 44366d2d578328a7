// core/analyses + core/checkpoint + core/evaluate_mode + standard bootstrap:
// the paper's analysis types 1 and 2, checkpoint/resume, and fixed-topology
// evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/analyses.h"
#include "core/checkpoint.h"
#include "core/evaluate_mode.h"
#include "minimpi/comm.h"
#include "search/bootstrap.h"
#include "tree/bipartition.h"

namespace raxh {
namespace {

struct SmallData {
  SmallData() {
    SimConfig cfg;
    cfg.taxa = 9;
    cfg.distinct_sites = 120;
    cfg.total_sites = 150;
    cfg.seed = 4242;
    sim = simulate_alignment(cfg);
    patterns = PatternAlignment::compress(sim.alignment);
    gtr.freqs = patterns.empirical_frequencies();
  }
  SimResult sim;
  PatternAlignment patterns;
  GtrParams gtr;
};

MultistartOptions quick_multistart(int searches) {
  MultistartOptions o;
  o.searches = searches;
  o.search = fast_settings();
  return o;
}

TEST(Multistart, FindsBestAcrossRanks) {
  const SmallData data;
  std::mutex mu;
  std::vector<MultistartResult> results;
  mpi::run_thread_ranks(3, [&](mpi::Comm& comm) {
    const auto r = run_multistart_ml(comm, data.patterns, quick_multistart(6));
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(r);
  });
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.best_tree_newick, results[0].best_tree_newick);
    EXPECT_DOUBLE_EQ(r.best_lnl, results[0].best_lnl);
  }
  // Rank 0 gathered every search's lnL (3 ranks x 2 searches).
  int with_all = 0;
  for (const auto& r : results) {
    if (r.all_lnls.empty()) continue;
    ++with_all;
    EXPECT_EQ(r.all_lnls.size(), 6u);
    double best = -1e300;
    for (double l : r.all_lnls) best = std::max(best, l);
    EXPECT_DOUBLE_EQ(best, r.best_lnl);
  }
  EXPECT_EQ(with_all, 1);
}

TEST(Multistart, SerialEqualsSingleRank) {
  const SmallData data;
  double a = 0.0, b = 0.0;
  mpi::run_thread_ranks(1, [&](mpi::Comm& comm) {
    a = run_multistart_ml(comm, data.patterns, quick_multistart(3)).best_lnl;
  });
  mpi::run_thread_ranks(1, [&](mpi::Comm& comm) {
    b = run_multistart_ml(comm, data.patterns, quick_multistart(3)).best_lnl;
  });
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Multistart, MoreSearchesNeverWorse) {
  const SmallData data;
  double few = 0.0, many = 0.0;
  mpi::run_thread_ranks(1, [&](mpi::Comm& comm) {
    few = run_multistart_ml(comm, data.patterns, quick_multistart(1)).best_lnl;
  });
  mpi::run_thread_ranks(1, [&](mpi::Comm& comm) {
    many = run_multistart_ml(comm, data.patterns, quick_multistart(5)).best_lnl;
  });
  EXPECT_GE(many, few - 1e-6);
}

TEST(BootstrapAnalysis, GathersAllReplicatesAndConsensus) {
  const SmallData data;
  BootstrapRunOptions options;
  options.replicates = 6;
  std::mutex mu;
  std::vector<BootstrapRunResult> results;
  mpi::run_thread_ranks(3, [&](mpi::Comm& comm) {
    const auto r = run_bootstrap_analysis(comm, data.patterns, options);
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(r);
  });
  int rank0 = 0;
  for (const auto& r : results) {
    EXPECT_EQ(r.total_replicates, 6);
    if (r.replicate_newicks.empty()) continue;
    ++rank0;
    EXPECT_EQ(r.replicate_newicks.size(), 6u);
    EXPECT_FALSE(r.consensus_newick.empty());
    // Every gathered replicate parses.
    for (const auto& nwk : r.replicate_newicks)
      EXPECT_NO_THROW(Tree::parse_newick(nwk, data.patterns.names()));
  }
  EXPECT_EQ(rank0, 1);
}

TEST(BootstrapAnalysis, RanksProduceDistinctReplicates) {
  const SmallData data;
  BootstrapRunOptions options;
  options.replicates = 4;
  options.build_consensus = false;
  mpi::run_thread_ranks(2, [&](mpi::Comm& comm) {
    const auto r = run_bootstrap_analysis(comm, data.patterns, options);
    if (comm.rank() == 0) {
      ASSERT_EQ(r.replicate_newicks.size(), 4u);
      // First two came from rank 0, last two from rank 1 (different seeds).
      EXPECT_NE(r.replicate_newicks[0], r.replicate_newicks[2]);
    }
  });
}

TEST(StandardBootstrap, IndependentReplicates) {
  const SmallData data;
  LikelihoodEngine engine(data.patterns, data.gtr,
                          RateModel::cat(data.patterns.num_patterns()));
  const auto reps =
      standard_bootstrap(engine, data.patterns, 5, 12345, 54321);
  ASSERT_EQ(reps.size(), 5u);
  for (const auto& rep : reps) {
    rep.tree.check_invariants();
    EXPECT_TRUE(std::isfinite(rep.lnl));
  }
  // Weights restored.
  EXPECT_EQ(std::vector<int>(engine.weights().begin(), engine.weights().end()),
            std::vector<int>(data.patterns.weights().begin(),
                             data.patterns.weights().end()));
}

TEST(StandardBootstrap, DeterministicInSeeds) {
  const SmallData data;
  LikelihoodEngine e1(data.patterns, data.gtr,
                      RateModel::cat(data.patterns.num_patterns()));
  LikelihoodEngine e2(data.patterns, data.gtr,
                      RateModel::cat(data.patterns.num_patterns()));
  const auto a = standard_bootstrap(e1, data.patterns, 3, 7, 8);
  const auto b = standard_bootstrap(e2, data.patterns, 3, 7, 8);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(a[i].tree.to_newick(data.patterns.names()),
              b[i].tree.to_newick(data.patterns.names()));
}

// --- checkpoint / resume ---

TEST(Checkpoint, SaveLoadRoundTrip) {
  BootstrapSnapshot snapshot;
  snapshot.next_replicate = 2;
  snapshot.bootstrap_rng_state = 987654321;
  snapshot.parsimony_rng_state = 123456789;
  snapshot.current_tree =
      Tree::parse_newick("((a:1,b:2):0.5,c:1,d:2);", {"a", "b", "c", "d"})
          .export_raw();
  snapshot.cat_rates = {0.5, 1.5};
  snapshot.cat_categories = {0, 1, 1, 0};
  snapshot.replicate_trees = {
      Tree::parse_newick("((a:1,b:1):1,c:1,d:1);", {"a", "b", "c", "d"})
          .export_raw(),
      Tree::parse_newick("((a:2,c:1):1,b:1,d:1);", {"a", "b", "c", "d"})
          .export_raw()};
  snapshot.replicate_lnls = {-123.456, -234.567};

  const std::string path = "/tmp/raxh_ckpt_test.txt";
  save_bootstrap_checkpoint(path, snapshot);
  const auto loaded = load_bootstrap_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->next_replicate, 2);
  EXPECT_EQ(loaded->bootstrap_rng_state, 987654321);
  EXPECT_EQ(loaded->parsimony_rng_state, 123456789);
  EXPECT_EQ(loaded->current_tree.back, snapshot.current_tree.back);
  EXPECT_EQ(loaded->current_tree.length, snapshot.current_tree.length);
  EXPECT_EQ(loaded->current_tree.internal_used,
            snapshot.current_tree.internal_used);
  EXPECT_EQ(loaded->cat_rates, snapshot.cat_rates);
  EXPECT_EQ(loaded->cat_categories, snapshot.cat_categories);
  ASSERT_EQ(loaded->replicate_trees.size(), 2u);
  EXPECT_EQ(loaded->replicate_trees[0].back, snapshot.replicate_trees[0].back);
  EXPECT_EQ(loaded->replicate_trees[0].length,
            snapshot.replicate_trees[0].length);
  EXPECT_EQ(loaded->replicate_trees[1].back, snapshot.replicate_trees[1].back);
  EXPECT_DOUBLE_EQ(loaded->replicate_lnls[0], -123.456);
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileIsNullopt) {
  EXPECT_FALSE(load_bootstrap_checkpoint("/tmp/raxh_no_such_ckpt").has_value());
}

TEST(Checkpoint, CorruptFileThrows) {
  const std::string path = "/tmp/raxh_ckpt_corrupt.txt";
  {
    std::ofstream out(path);
    out << "not a checkpoint\n";
  }
  EXPECT_THROW(load_bootstrap_checkpoint(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeContinuesReplicateSet) {
  const SmallData data;

  // Uninterrupted reference run.
  LikelihoodEngine ref_engine(data.patterns, data.gtr,
                              RateModel::cat(data.patterns.num_patterns()));
  RapidBootstrap ref(ref_engine, data.patterns, 42, 43);
  const auto full = ref.run(6);

  // Interrupted run: 3 replicates, snapshot, then resume for the rest.
  const std::string path = "/tmp/raxh_ckpt_resume.txt";
  {
    LikelihoodEngine engine(data.patterns, data.gtr,
                            RateModel::cat(data.patterns.num_patterns()));
    RapidBootstrap first(engine, data.patterns, 42, 43);
    BootstrapSnapshot snapshot;
    first.run_resumable(3, snapshot, checkpoint_to(path));
  }
  {
    LikelihoodEngine engine(data.patterns, data.gtr,
                            RateModel::cat(data.patterns.num_patterns()));
    RapidBootstrap second(engine, data.patterns, 42, 43);
    auto snapshot = load_bootstrap_checkpoint(path);
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_EQ(snapshot->next_replicate, 3);
    const auto resumed = second.run_resumable(6, *snapshot);
    ASSERT_EQ(resumed.size(), 6u);
    // Bit-exact continuation: topologies identical and lnLs equal.
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(rf_distance(resumed[i].tree, full[i].tree), 0)
          << "replicate " << i;
      EXPECT_DOUBLE_EQ(resumed[i].lnl, full[i].lnl) << "replicate " << i;
    }
  }
  std::filesystem::remove(path);
}

// A job id names a file inside the checkpoint directory, never a path: every
// character outside [A-Za-z0-9._-] (the '/' of a traversal above all) is
// replaced, so the result is one file name directly under `dir`.
TEST(Checkpoint, JobIdPathCannotEscapeDirectory) {
  EXPECT_EQ(rank_checkpoint_path("d", "", 2), "d/rank2.ckpt");
  EXPECT_EQ(rank_checkpoint_path("d", "j7", 2), "d/jobj7.rank2.ckpt");

  const std::string escaped = rank_checkpoint_path("d", "../x/y", 2);
  ASSERT_EQ(escaped.rfind("d/", 0), 0u) << escaped;
  const std::string file = escaped.substr(2);
  EXPECT_EQ(file.find('/'), std::string::npos) << escaped;
  EXPECT_EQ(std::filesystem::path(escaped).parent_path(), "d") << escaped;
  EXPECT_EQ(file.rfind("job", 0), 0u) << escaped;
  EXPECT_NE(file.find(".rank2.ckpt"), std::string::npos) << escaped;
}

// --- fixed-topology evaluation ---

TEST(EvaluateMode, OptimizesFixedTopology) {
  const SmallData data;
  const auto result =
      evaluate_fixed_topology(data.patterns, data.sim.true_tree_newick);
  EXPECT_TRUE(std::isfinite(result.lnl));
  EXPECT_GT(result.alpha, 0.0);
  EXPECT_EQ(result.per_pattern_lnl.size(), data.patterns.num_patterns());
  // Weighted per-pattern lnLs sum to the total.
  double sum = 0.0;
  const auto w = data.patterns.weights();
  for (std::size_t p = 0; p < w.size(); ++p)
    sum += w[p] * result.per_pattern_lnl[p];
  EXPECT_NEAR(sum, result.lnl, std::fabs(result.lnl) * 1e-6);
  // Topology unchanged.
  const Tree in = Tree::parse_newick(data.sim.true_tree_newick,
                                     data.patterns.names());
  const Tree out = Tree::parse_newick(result.optimized_tree_newick,
                                      data.patterns.names());
  EXPECT_EQ(rf_distance(in, out), 0);
}

TEST(EvaluateMode, RanksCompetingTopologiesSensibly) {
  const SmallData data;
  // The generating topology must outscore a heavily perturbed one.
  Tree bad = Tree::parse_newick(data.sim.true_tree_newick,
                                data.patterns.names());
  // Move several subtrees around.
  Lcg rng(5);
  int moved = 0;
  for (int attempt = 0; attempt < 50 && moved < 3; ++attempt) {
    const auto internals = bad.internal_records();
    const int p = internals[static_cast<std::size_t>(
        rng.next_below(static_cast<int>(internals.size())))];
    Tree::SprMove move = bad.prune(p);
    const auto edges = bad.edges();
    int target = -1;
    for (int e : edges) {
      if (e != move.q && e != move.r && e != p && !bad.in_subtree(p, e)) {
        target = e;
        break;
      }
    }
    if (target < 0) {
      bad.undo(move);
      continue;
    }
    bad.regraft(move, target);
    ++moved;
  }
  ASSERT_GT(rf_distance(
                bad, Tree::parse_newick(data.sim.true_tree_newick,
                                        data.patterns.names())),
            0);

  EvaluateOptions options;
  const auto good_result =
      evaluate_fixed_topology(data.patterns, data.sim.true_tree_newick,
                              options);
  const auto bad_result = evaluate_fixed_topology(
      data.patterns, bad.to_newick(data.patterns.names()), options);
  EXPECT_GT(good_result.lnl, bad_result.lnl);
}

TEST(EvaluateMode, CatVariantRuns) {
  const SmallData data;
  EvaluateOptions options;
  options.use_gamma = false;
  const auto result = evaluate_fixed_topology(
      data.patterns, data.sim.true_tree_newick, options);
  EXPECT_TRUE(std::isfinite(result.lnl));
  EXPECT_DOUBLE_EQ(result.alpha, 0.0);
}

TEST(EvaluateMode, RejectsForeignTaxa) {
  const SmallData data;
  EXPECT_THROW(
      evaluate_fixed_topology(data.patterns, "((x,y),(z,w));"),
      std::runtime_error);
}

}  // namespace
}  // namespace raxh
