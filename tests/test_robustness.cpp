// Robustness and failure-injection tests: malformed inputs across every
// parser, contract-violation death tests, cross-backend equivalence of the
// coarse-grained runtime, and kernel-level scaling behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <sstream>

#include "bio/io.h"
#include "bio/partitions.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/hybrid.h"
#include "core/schedule.h"
#include "model/gtr.h"
#include "search/parsimony.h"
#include "likelihood/engine.h"
#include "likelihood/kernels.h"
#include "minimpi/comm.h"
#include "tree/tree.h"
#include "util/check.h"
#include "util/prng.h"

namespace raxh {
namespace {

// ---------- parser fuzzing: every malformed input must throw, not crash ----

class NewickRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(NewickRejects, Throws) {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  EXPECT_THROW(Tree::parse_newick(GetParam(), names), std::runtime_error)
      << "input: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, NewickRejects,
    ::testing::Values("", ";", "();", "(a;", "(a,b;", "(a,b,c", "a;",
                      "(a,b,(c,);", "(a,b,c,);", "(a,b,qq,d);",
                      "(a,b,(c,d)):::;", "(a,a,b,c);", "(a,b);",
                      "((a,b),(c,d),(a,b));"));

class PhylipRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(PhylipRejects, Throws) {
  std::stringstream in(GetParam());
  EXPECT_THROW(read_phylip(in), std::runtime_error)
      << "input: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, PhylipRejects,
    ::testing::Values("", "x y\n", "0 10\n", "2 0\n", "2 4\nt1 ACGT\n",
                      "2 4\nt1 ACGT\nt2 ACG\n", "1 4\nt1 AC!T\n",
                      "2 4\nt1 ACGT\nt2 ACGTA\n"));

TEST(PhylipAccepts, InterleavedFormat) {
  std::stringstream in("2 8\nt1 ACGT\nt2 TGCA\nACGT\nTGCA\n");
  const Alignment a = read_phylip(in);
  EXPECT_EQ(a.num_sites(), 8u);
  EXPECT_EQ(a.at(0, 4), encode_dna('A'));
  EXPECT_EQ(a.at(1, 7), encode_dna('A'));
}

// ---------- contract violations abort (death tests) ----------

using RobustnessDeath = ::testing::Test;

TEST(RobustnessDeath, LcgRejectsNonPositiveSeed) {
  EXPECT_DEATH(Lcg rng(0), "precondition");
  EXPECT_DEATH(Lcg rng(-5), "precondition");
}

TEST(RobustnessDeath, TreeRejectsTinyTaxa) {
  EXPECT_DEATH(Tree tree(2), "precondition");
}

TEST(RobustnessDeath, ScheduleRejectsZeroProcesses) {
  EXPECT_DEATH(make_schedule(100, 0), "precondition");
  EXPECT_DEATH(make_schedule(0, 4), "precondition");
}

TEST(RobustnessDeath, RegraftIntoPrunedSubtreeRefused) {
  Tree tree(6);
  tree.make_triplet(0, 1, 2);
  for (int k = 3; k < 6; ++k) tree.insert_tip(k, 0);
  const int p = tree.internal_records()[4];
  Tree::SprMove move = tree.prune(p);
  // Find an edge inside the pruned component.
  int inside = -1;
  for (int rec = 0; rec < 6; ++rec) {
    if (tree.in_subtree(p, rec)) {
      inside = rec;
      break;
    }
  }
  if (inside >= 0) {
    EXPECT_DEATH(tree.regraft(move, inside), "precondition");
  } else {
    SUCCEED() << "pruned component had no tip edge to test";
  }
}

// ---------- kernel-level behaviour ----------

TEST(Kernels, TipLookupSumsMaskColumns) {
  // lookup[mask][i] must equal the sum over set bits j of P[i][j].
  GtrParams params;
  params.rates = {1.5, 2.5, 0.5, 1.2, 3.0, 1.0};
  params.freqs = {0.3, 0.2, 0.3, 0.2};
  const GtrModel model(params);
  const auto p = model.transition_matrix(0.17);
  std::vector<double> pmat(p.begin(), p.end());
  std::vector<double> lookup(64);
  kern::build_tip_lookup(pmat.data(), 1, lookup.data());

  for (int mask = 0; mask < 16; ++mask) {
    for (int i = 0; i < 4; ++i) {
      double want = 0.0;
      for (int j = 0; j < 4; ++j)
        if ((mask >> j) & 1) want += p[static_cast<std::size_t>(i * 4 + j)];
      EXPECT_NEAR(lookup[static_cast<std::size_t>(mask * 4 + i)], want, 1e-15);
    }
  }
}

TEST(Kernels, GapTipIsNeutralForLikelihoodShape) {
  // A taxon of all gaps contributes a constant factor: adding it must not
  // change which of two topologies scores better.
  SimConfig cfg;
  cfg.taxa = 6;
  cfg.distinct_sites = 60;
  cfg.total_sites = 60;
  cfg.seed = 12;
  const auto sim = simulate_alignment(cfg);

  // Replace one taxon's row with all gaps.
  std::vector<std::vector<DnaState>> rows;
  for (std::size_t t = 0; t < 6; ++t)
    rows.emplace_back(sim.alignment.row(t).begin(),
                      sim.alignment.row(t).end());
  rows[5].assign(60, kStateGap);
  const Alignment gapped(sim.alignment.names(), std::move(rows));
  const auto patterns = PatternAlignment::compress(gapped);

  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  LikelihoodEngine engine(patterns, gtr, RateModel::uniform());
  const Tree truth = Tree::parse_newick(sim.true_tree_newick,
                                        patterns.names());
  Lcg rng(3);
  const Tree rand_tree = random_topology(6, rng);
  // The generating topology still wins on the 5 informative taxa.
  Tree t1 = truth, t2 = rand_tree;
  const double l1 = engine.smooth_branches(t1, 2);
  const double l2 = engine.smooth_branches(t2, 2);
  EXPECT_TRUE(std::isfinite(l1));
  EXPECT_GE(l1, l2 - 1e-6);
}

TEST(Kernels, ScalingCountsPropagate) {
  // Long branches on many taxa force scale events; the per-pattern scaled
  // lnL must match an unscaled computation done in log space via a tiny
  // tree where both are feasible.
  SimConfig cfg;
  cfg.taxa = 40;
  cfg.distinct_sites = 20;
  cfg.total_sites = 20;
  cfg.seed = 77;
  const auto sim = simulate_alignment(cfg);
  const auto patterns = PatternAlignment::compress(sim.alignment);
  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  Tree tree = Tree::parse_newick(sim.true_tree_newick, patterns.names());
  for (int e : tree.edges()) tree.set_length(e, 4.0);

  LikelihoodEngine engine(patterns, gtr, RateModel::uniform());
  const double lnl = engine.evaluate(tree);
  EXPECT_TRUE(std::isfinite(lnl));
  // At saturation every site's likelihood approaches the product of the
  // stationary frequencies: lnL ~ sum_p w_p * log(pi-average) per site; just
  // bound it loosely but finitely.
  EXPECT_LT(lnl, -20.0 * 1.0);
  EXPECT_GT(lnl, -20.0 * 60.0);
}

// ---------- cross-backend equivalence ----------

TEST(CrossBackend, ThreadAndProcessRanksAgreeOnHybridResult) {
  SimConfig cfg;
  cfg.taxa = 7;
  cfg.distinct_sites = 80;
  cfg.total_sites = 100;
  cfg.seed = 2027;
  const auto sim = simulate_alignment(cfg);
  const auto patterns = PatternAlignment::compress(sim.alignment);

  HybridOptions options;
  options.analysis.specified_bootstraps = 4;
  options.analysis.fast.max_rounds = 1;
  options.analysis.slow.max_rounds = 1;
  options.analysis.thorough.max_rounds = 1;
  options.compute_support = false;

  std::string thread_tree;
  double thread_lnl = 0.0;
  {
    std::mutex mu;
    mpi::run_thread_ranks(2, [&](mpi::Comm& comm) {
      const auto r = run_hybrid_comprehensive({}, comm, patterns, options);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        thread_tree = r.best_tree_newick;
        thread_lnl = r.best_lnl;
      }
    });
  }

  std::string process_tree;
  double process_lnl = 0.0;
  mpi::run_process_ranks(2, [&](mpi::Comm& comm) {
    const auto r = run_hybrid_comprehensive({}, comm, patterns, options);
    if (comm.rank() == 0) {
      process_tree = r.best_tree_newick;  // rank 0 == this process
      process_lnl = r.best_lnl;
    }
  });

  // The backends carry identical payloads; the analysis is deterministic, so
  // thread-backed and forked ranks must produce the identical winner.
  EXPECT_EQ(thread_tree, process_tree);
  EXPECT_DOUBLE_EQ(thread_lnl, process_lnl);
}

}  // namespace
}  // namespace raxh
