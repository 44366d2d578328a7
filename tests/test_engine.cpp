// likelihood/: the engine validated against an independent, simple reference
// implementation of Felsenstein pruning (no scaling, no memoization, no
// shared code path beyond GtrModel) under every kernel member this machine
// runs, plus derivative checks, scaling, CLV revalidation after topology
// changes, and serial==threaded equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bio/patterns.h"
#include "bio/resample.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "model/gtr.h"
#include "model/rates.h"
#include "parallel/workforce.h"
#include "search/parsimony.h"
#include "tree/tree.h"
#include "util/prng.h"

namespace raxh {
namespace {

// --- independent reference likelihood (recursion over std::vector) ---

struct RefCtx {
  const Tree* tree = nullptr;
  const PatternAlignment* patterns = nullptr;
  const GtrModel* model = nullptr;
  std::vector<double> rates;    // category rates
  std::vector<double> weights;  // category weights (sum 1)
  const RateModel* rate_model = nullptr;  // for CAT per-pattern categories
};

// Likelihood vector of the subtree behind `rec`, for pattern p and category c.
std::vector<double> ref_partial(const RefCtx& ctx, int rec, std::size_t p,
                                int cat) {
  if (ctx.tree->is_tip_record(rec)) {
    const DnaState mask = ctx.patterns->at(static_cast<std::size_t>(rec), p);
    std::vector<double> v(4);
    for (int i = 0; i < 4; ++i) v[static_cast<std::size_t>(i)] = (mask >> i) & 1;
    return v;
  }
  const auto [c1, c2] = ctx.tree->children(rec);
  const auto left = ref_partial(ctx, c1, p, cat);
  const auto right = ref_partial(ctx, c2, p, cat);
  const double rate = ctx.rates[static_cast<std::size_t>(cat)];
  const auto p1 = ctx.model->transition_matrix(
      ctx.tree->length(ctx.tree->next(rec)), rate);
  const auto p2 = ctx.model->transition_matrix(
      ctx.tree->length(ctx.tree->next(ctx.tree->next(rec))), rate);
  std::vector<double> v(4);
  for (int i = 0; i < 4; ++i) {
    double a = 0.0, b = 0.0;
    for (int j = 0; j < 4; ++j) {
      a += p1[static_cast<std::size_t>(i * 4 + j)] * left[static_cast<std::size_t>(j)];
      b += p2[static_cast<std::size_t>(i * 4 + j)] * right[static_cast<std::size_t>(j)];
    }
    v[static_cast<std::size_t>(i)] = a * b;
  }
  return v;
}

double ref_lnl(const RefCtx& ctx, std::span<const int> weights) {
  // Evaluate at tip 0's edge: combine tip 0 with the rest of the tree.
  const Tree& tree = *ctx.tree;
  const int rest = tree.back(0);
  const double t = tree.length(0);
  double total = 0.0;
  for (std::size_t p = 0; p < ctx.patterns->num_patterns(); ++p) {
    if (weights[p] == 0) continue;
    double site = 0.0;
    const int cat_begin =
        ctx.rate_model != nullptr ? ctx.rate_model->pattern_category(p) : 0;
    const int cat_end = ctx.rate_model != nullptr
                            ? cat_begin + 1
                            : static_cast<int>(ctx.rates.size());
    for (int c = cat_begin; c < cat_end; ++c) {
      const auto rest_v = ref_partial(ctx, rest, p, c);
      const auto pm =
          ctx.model->transition_matrix(t, ctx.rates[static_cast<std::size_t>(c)]);
      const DnaState mask = ctx.patterns->at(0, p);
      double cat_l = 0.0;
      for (int i = 0; i < 4; ++i) {
        if (!((mask >> i) & 1)) continue;
        double px = 0.0;
        for (int j = 0; j < 4; ++j)
          px += pm[static_cast<std::size_t>(i * 4 + j)] *
                rest_v[static_cast<std::size_t>(j)];
        cat_l += ctx.model->freqs()[static_cast<std::size_t>(i)] * px;
      }
      site += ctx.weights[static_cast<std::size_t>(c)] * cat_l;
    }
    total += weights[p] * std::log(site);
  }
  return total;
}

struct Fixture {
  Fixture(std::size_t taxa, std::size_t sites, std::uint64_t seed) {
    SimConfig cfg;
    cfg.taxa = taxa;
    cfg.distinct_sites = sites;
    cfg.total_sites = sites;
    cfg.seed = seed;
    sim = simulate_alignment(cfg);
    patterns = PatternAlignment::compress(sim.alignment);
    gtr.freqs = patterns.empirical_frequencies();
    gtr.rates = {1.2, 2.8, 0.9, 1.4, 3.1, 1.0};
    tree = std::make_unique<Tree>(
        Tree::parse_newick(sim.true_tree_newick, patterns.names()));
  }

  SimResult sim;
  PatternAlignment patterns;
  GtrParams gtr;
  std::unique_ptr<Tree> tree;
};

// The fixture's true tree plus `extra` seeded random topologies with random
// branch lengths.
std::vector<Tree> oracle_trees(const Fixture& f, int extra) {
  std::vector<Tree> trees{*f.tree};
  for (int k = 0; k < extra; ++k) {
    Lcg rng(1000 + k);
    Tree t = random_topology(f.patterns.num_taxa(), rng);
    for (int e : t.edges()) t.set_length(e, 0.01 + 0.5 * rng.next_double());
    trees.push_back(std::move(t));
  }
  return trees;
}

// Evaluates each oracle tree under every supported kernel member and checks
// it against the independent reference (ctx.tree is set per tree). The
// members must also agree with each other bitwise. Restores the active
// member.
void expect_members_match_reference(const Fixture& f, const RateModel& rm,
                                    RefCtx ctx) {
  struct RestoreIsa {
    kern::KernelIsa prev = kern::kernel_isa();
    ~RestoreIsa() { kern::set_kernel_isa(prev); }
  } restore;
  for (const Tree& tree : oracle_trees(f, 4)) {
    ctx.tree = &tree;
    const std::string nwk = tree.to_newick(f.patterns.names());
    double expected = 0.0, first = 0.0;
    bool have_first = false;
    for (int i = 0; i < kern::kNumKernelIsas; ++i) {
      const auto isa = static_cast<kern::KernelIsa>(i);
      if (!kern::kernel_isa_supported(isa)) continue;
      EXPECT_TRUE(kern::set_kernel_isa(isa));
      LikelihoodEngine engine(f.patterns, f.gtr, rm);
      const double got = engine.evaluate(tree);
      if (!have_first) {
        expected = ref_lnl(ctx, engine.weights());
        first = got;
        have_first = true;
      }
      EXPECT_NEAR(got, expected, std::fabs(expected) * 1e-10)
          << kern::kernel_isa_name(isa) << ' ' << nwk;
      EXPECT_EQ(got, first) << kern::kernel_isa_name(isa) << ' ' << nwk;
    }
  }
}

TEST(Engine, MatchesReferenceUniformRates) {
  Fixture f(8, 60, 17);
  const GtrModel model(f.gtr);
  RefCtx ctx{nullptr, &f.patterns, &model, {1.0}, {1.0}, nullptr};
  expect_members_match_reference(f, RateModel::uniform(), ctx);
}

TEST(Engine, MatchesReferenceGamma) {
  Fixture f(7, 50, 23);
  const RateModel rm = RateModel::gamma(0.6);
  const GtrModel model(f.gtr);
  RefCtx ctx;
  ctx.patterns = &f.patterns;
  ctx.model = &model;
  ctx.rates.assign(rm.rates().begin(), rm.rates().end());
  ctx.weights.assign(4, 0.25);
  expect_members_match_reference(f, rm, ctx);
}

TEST(Engine, MatchesReferenceCatWithCategories) {
  Fixture f(6, 40, 31);
  auto rm = RateModel::cat(f.patterns.num_patterns());
  // Hand-build a 3-category assignment.
  std::vector<int> cats(f.patterns.num_patterns());
  for (std::size_t p = 0; p < cats.size(); ++p)
    cats[p] = static_cast<int>(p % 3);
  rm.set_categories({0.2, 1.0, 2.1}, cats);
  const GtrModel model(f.gtr);
  RefCtx ctx;
  ctx.patterns = &f.patterns;
  ctx.model = &model;
  ctx.rates = {0.2, 1.0, 2.1};
  ctx.weights = {1.0, 1.0, 1.0};
  ctx.rate_model = &rm;
  expect_members_match_reference(f, rm, ctx);
}

TEST(Engine, EvaluationEdgeInvariant) {
  // The lnL must not depend on which edge it is evaluated at.
  Fixture f(9, 70, 41);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7));
  const double ref = engine.evaluate(*f.tree, 0);
  for (int e : f.tree->edges()) {
    EXPECT_NEAR(engine.evaluate(*f.tree, e), ref, std::fabs(ref) * 1e-9)
        << "edge " << e;
  }
}

TEST(Engine, ScalingKicksInOnDeepTreeAndKeepsLnlFinite) {
  // A caterpillar of 60 taxa with long branches forces CLV underflow without
  // scaling.
  SimConfig cfg;
  cfg.taxa = 60;
  cfg.distinct_sites = 30;
  cfg.total_sites = 30;
  cfg.seed = 3;
  cfg.mean_branch_length = 0.9;
  const auto sim = simulate_alignment(cfg);
  const auto patterns = PatternAlignment::compress(sim.alignment);
  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  Tree tree = Tree::parse_newick(sim.true_tree_newick, patterns.names());
  // Stretch all branches.
  for (int e : tree.edges()) tree.set_length(e, 2.5);

  LikelihoodEngine engine(patterns, gtr, RateModel::gamma(0.5));
  const double lnl = engine.evaluate(tree);
  EXPECT_TRUE(std::isfinite(lnl));
  EXPECT_LT(lnl, 0.0);
}

TEST(Engine, WeightsChangeAffectsLnl) {
  Fixture f(6, 50, 53);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::uniform());
  const double base = engine.evaluate(*f.tree);

  Lcg rng(12345);
  const auto bw = bootstrap_weights(f.patterns, rng);
  engine.set_weights(bw);
  const double boot = engine.evaluate(*f.tree);
  EXPECT_NE(base, boot);

  engine.reset_weights();
  EXPECT_NEAR(engine.evaluate(*f.tree), base, 1e-9);
}

TEST(Engine, ZeroWeightPatternsDropOut) {
  Fixture f(5, 30, 71);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::uniform());
  std::vector<int> w(f.patterns.num_patterns(), 0);
  w[0] = 5;
  engine.set_weights(w);
  // Equals 5 * per-pattern lnl of pattern 0.
  std::vector<double> pp(f.patterns.num_patterns());
  engine.per_pattern_lnl(*f.tree, pp);
  EXPECT_NEAR(engine.evaluate(*f.tree), 5.0 * pp[0], 1e-9);
}

TEST(Engine, BranchDerivativeMatchesFiniteDifference) {
  Fixture f(8, 60, 83);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.8));
  Tree& tree = *f.tree;
  // Spot-check the optimizer's fixed point: after optimize_branch, moving the
  // branch either way must not improve the likelihood.
  for (int e : {tree.edges()[0], tree.edges()[3], tree.edges()[5]}) {
    const double t = engine.optimize_branch(tree, e);
    const double at = engine.evaluate(tree, e);
    for (double eps : {1e-4, 1e-3}) {
      tree.set_length(e, std::max(t - eps, kMinBranchLength));
      EXPECT_LE(engine.evaluate(tree, e), at + 1e-6);
      tree.set_length(e, t + eps);
      EXPECT_LE(engine.evaluate(tree, e), at + 1e-6);
      tree.set_length(e, t);
    }
  }
}

// Central differences of evaluate() at edge `rec` around length t: the NR
// derivatives' oracle, built from the pruning lnL alone (P(t) products, no
// eigen-decomposed sumtable). Leaves the edge at length t.
kern::Derivatives central_differences(LikelihoodEngine& engine, Tree& tree,
                                      int rec, double t, double h) {
  tree.set_length(rec, t - h);
  const double lo = engine.evaluate(tree, rec);
  tree.set_length(rec, t + h);
  const double hi = engine.evaluate(tree, rec);
  tree.set_length(rec, t);
  const double mid = engine.evaluate(tree, rec);
  return {(hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / (h * h)};
}

TEST(Engine, NrDerivativesMatchFiniteDifferences) {
  // Seeded random GTR rates, frequencies and rate parameters under GAMMA and
  // CAT, on random topologies with random lengths, at T=1 and T=2: d1/d2 of
  // every other edge must match central differences of evaluate().
  Fixture f(12, 150, 307);
  const std::size_t npat = f.patterns.num_patterns();
  Lcg rng(4242);
  for (const bool gamma : {true, false}) {
    for (int k = 0; k < 3; ++k) {
      GtrParams gtr;
      for (double& r : gtr.rates) r = 0.2 + 4.0 * rng.next_double();
      double fsum = 0.0;
      for (double& q : gtr.freqs) {
        q = 0.1 + rng.next_double();
        fsum += q;
      }
      for (double& q : gtr.freqs) q /= fsum;
      RateModel rm = RateModel::gamma(0.1 + 2.0 * rng.next_double());
      if (!gamma) {
        rm = RateModel::cat(npat);
        std::vector<int> cats(npat);
        for (int& c : cats) c = rng.next_below(4);
        rm.set_categories({0.1 + 0.4 * rng.next_double(), 1.0,
                           1.5 + rng.next_double(),
                           3.0 + 2.0 * rng.next_double()},
                          cats);
      }
      Tree tree = random_topology(f.patterns.num_taxa(), rng);
      for (int e : tree.edges())
        tree.set_length(e, 0.02 + 0.5 * rng.next_double());
      for (const int threads : {1, 2}) {
        Workforce crew(threads);
        LikelihoodEngine engine(f.patterns, gtr, rm, &crew);
        const auto edges = tree.edges();
        for (std::size_t i = 0; i < edges.size(); i += 2) {
          const int e = edges[i];
          const double t = tree.length(e);
          engine.prepare_branch(tree, e);
          const kern::Derivatives d = engine.branch_derivatives(t);
          const kern::Derivatives fd =
              central_differences(engine, tree, e, t, 1e-3 * t);
          // Step h = t/1000, so the truncation error is about (h/t)^2 = 1e-6.
          // Either derivative may sit near zero, so each is bounded relative
          // to its natural scale, |d1| + |d2|*t and |d2| + |d1|/t: the bound
          // is 1e-5 of that scale (the worst case seen is 1.4e-6).
          const std::string what = std::string(gamma ? "GAMMA" : "CAT") +
                                   " tree " + std::to_string(k) + " T=" +
                                   std::to_string(threads) + " edge " +
                                   std::to_string(e);
          const double scale1 = std::fabs(d.d1) + std::fabs(d.d2) * t;
          const double scale2 = std::fabs(d.d2) + std::fabs(d.d1) / t;
          EXPECT_NEAR(d.d1, fd.d1, 1e-5 * scale1) << what;
          EXPECT_NEAR(d.d2, fd.d2, 1e-5 * scale2) << what;
        }
      }
    }
  }
}

TEST(Engine, SmoothBranchesImprovesLnl) {
  Fixture f(10, 80, 97);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7));
  Tree& tree = *f.tree;
  // Perturb all branch lengths badly.
  for (int e : tree.edges()) tree.set_length(e, 0.9);
  const double before = engine.evaluate(tree);
  const double after = engine.smooth_branches(tree, 2);
  EXPECT_GT(after, before + 1.0);
}

TEST(Engine, ClvRevalidationAfterSpr) {
  // The engine must give the same lnL for the same topology whether reached
  // directly or via prune/regraft/undo churn.
  Fixture f(10, 60, 111);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::uniform());
  Tree& tree = *f.tree;
  const double before = engine.evaluate(tree);

  const int p = tree.internal_records()[5];
  Tree::SprMove move = tree.prune(p);
  const auto edges = tree.edges();
  for (int s : edges) {
    if (s == move.q || s == move.r || s == p || tree.in_subtree(p, s))
      continue;
    tree.regraft(move, s);
    (void)engine.evaluate(tree, move.p);  // fill CLVs for the variant
    tree.undo_regraft(move);
  }
  tree.undo(move);
  EXPECT_NEAR(engine.evaluate(tree), before, std::fabs(before) * 1e-10);
}

TEST(Engine, ModelChangeInvalidatesClvs) {
  Fixture f(7, 50, 131);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::uniform());
  const double base = engine.evaluate(*f.tree);
  GtrParams changed = f.gtr;
  changed.rates[1] = 9.0;
  engine.set_gtr(changed);
  const double after = engine.evaluate(*f.tree);
  EXPECT_NE(base, after);
  engine.set_gtr(f.gtr);
  EXPECT_NEAR(engine.evaluate(*f.tree), base, std::fabs(base) * 1e-10);
}

TEST(Engine, ThreadedMatchesSerial) {
  Fixture f(12, 90, 139);
  LikelihoodEngine serial(f.patterns, f.gtr, RateModel::gamma(0.6));
  const double want = serial.evaluate(*f.tree);

  for (int threads : {2, 3, 4, 7}) {
    Workforce crew(threads);
    LikelihoodEngine par(f.patterns, f.gtr, RateModel::gamma(0.6), &crew);
    EXPECT_NEAR(par.evaluate(*f.tree), want, std::fabs(want) * 1e-12)
        << threads << " threads";
  }
}

TEST(Engine, ThreadedOptimizationMatchesSerial) {
  Fixture f(8, 70, 149);
  Tree tree_a = *f.tree;
  Tree tree_b = *f.tree;

  LikelihoodEngine serial(f.patterns, f.gtr, RateModel::gamma(0.6));
  const double lnl_a = serial.smooth_branches(tree_a, 2);

  Workforce crew(4);
  LikelihoodEngine par(f.patterns, f.gtr, RateModel::gamma(0.6), &crew);
  const double lnl_b = par.smooth_branches(tree_b, 2);

  EXPECT_NEAR(lnl_a, lnl_b, std::fabs(lnl_a) * 1e-9);
  EXPECT_NEAR(tree_a.total_length(), tree_b.total_length(), 1e-6);
}

TEST(Engine, OptimizeAlphaImprovesAndSticks) {
  Fixture f(9, 80, 157);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(7.0));
  const double before = engine.evaluate(*f.tree);
  const double after = engine.optimize_alpha(*f.tree);
  EXPECT_GE(after, before - 1e-9);
  // Data were simulated with alpha ~0.8-ish heterogeneity; the optimum
  // should move away from the bad 7.0 start.
  EXPECT_NE(engine.rates().alpha(), 7.0);
}

TEST(Engine, OptimizeGtrImproves) {
  Fixture f(7, 60, 163);
  GtrParams bad = f.gtr;
  bad.rates = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};  // JC start, data are GTR-ish
  LikelihoodEngine engine(f.patterns, bad, RateModel::uniform());
  const double before = engine.evaluate(*f.tree);
  const double after = engine.optimize_gtr(*f.tree);
  EXPECT_GE(after, before);
}

TEST(Engine, OptimizeCatRatesImproves) {
  Fixture f(8, 100, 171);
  LikelihoodEngine engine(f.patterns, f.gtr,
                          RateModel::cat(f.patterns.num_patterns()));
  const double before = engine.evaluate(*f.tree);
  const double after = engine.optimize_cat_rates(*f.tree);
  EXPECT_GE(after, before - 1e-9);
  // The simulated data have strong rate heterogeneity; CAT must pick it up.
  EXPECT_GT(engine.rates().num_categories(), 1);
}

TEST(Engine, CatCategoriesCappedAt25) {
  Fixture f(6, 400, 177);
  LikelihoodEngine engine(f.patterns, f.gtr,
                          RateModel::cat(f.patterns.num_patterns()));
  engine.optimize_cat_rates(*f.tree);
  EXPECT_LE(engine.rates().num_categories(), kMaxCatCategories);
}

TEST(Engine, NewviewCountGrowsWithWork) {
  Fixture f(8, 50, 191);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::uniform());
  engine.evaluate(*f.tree);
  const auto first = engine.newview_count();
  EXPECT_GE(first, f.patterns.num_taxa() - 2);
  // Cached second evaluation does no new newviews.
  engine.evaluate(*f.tree);
  EXPECT_EQ(engine.newview_count(), first);
  // Invalidation forces recomputation.
  engine.invalidate_all();
  engine.evaluate(*f.tree);
  EXPECT_GT(engine.newview_count(), first);
}

TEST(Engine, CrewSplitIsBitwiseInvisible) {
  // Low divergence: compress() puts the heavy constant columns first, so a
  // weight-balanced cut and an even stripe of the patterns differ most here.
  // Newview and sumtable results are per pattern, so how the crew splits
  // them must not move a bit; the reductions keep the weighted cut as their
  // fixed summation grouping, pinned by the hex literals at T=2.
  SimConfig cfg;
  cfg.taxa = 10;
  cfg.distinct_sites = 400;
  cfg.total_sites = 1200;
  cfg.seed = 211;
  cfg.mean_branch_length = 0.01;
  const auto sim = simulate_alignment(cfg);
  const auto patterns = PatternAlignment::compress(sim.alignment);
  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  gtr.rates = {1.2, 2.8, 0.9, 1.4, 3.1, 1.0};
  const Tree tree = Tree::parse_newick(sim.true_tree_newick, patterns.names());
  Lcg rng(97);
  const std::vector<int> boot = bootstrap_weights(patterns, rng);
  const std::size_t npat = patterns.num_patterns();

  const auto per_pattern = [&](int threads, bool reweight) {
    Workforce crew(threads);
    LikelihoodEngine engine(patterns, gtr, RateModel::gamma(0.6), &crew);
    if (reweight) engine.set_weights(boot);
    std::vector<double> out(npat);
    engine.per_pattern_lnl(tree, out);
    return out;
  };
  for (const bool reweight : {false, true}) {
    const std::vector<double> want = per_pattern(1, reweight);
    for (const int threads : {2, 3}) {
      const std::vector<double> got = per_pattern(threads, reweight);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), npat * sizeof(double)), 0)
          << threads << " threads, reweight " << reweight;
    }
  }

  Workforce crew(2);
  LikelihoodEngine engine(patterns, gtr, RateModel::gamma(0.6), &crew);
  const double lnl = engine.evaluate(tree);
  engine.prepare_branch(tree, 5);
  const kern::Derivatives d = engine.branch_derivatives(0.05);
  engine.set_weights(boot);
  const double boot_lnl = engine.evaluate(tree);
  // The T=1 sums differ from these in the last bits, so the literals also
  // pin the reductions' weighted-cut grouping.
  EXPECT_EQ(lnl, -0x1.bbcb518ce939ap+11);
  EXPECT_EQ(d.d1, -0x1.bbf65e5f3f62ap+8);
  EXPECT_EQ(d.d2, -0x1.2c6b281f691dp+13);
  EXPECT_EQ(boot_lnl, -0x1.b4f87a01fad84p+11);
}

}  // namespace
}  // namespace raxh
