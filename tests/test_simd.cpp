// Kernel-family equivalence at the engine level: every compiled-and-supported
// SIMD member must be BITWISE-identical to the scalar reference across rate
// models, data shapes, and whole-search trajectories. The family keeps the
// scalar operation order per lane and every kernel TU is built with
// -ffp-contract=off, so the assertions here are exact equality, not
// tolerances — if a member drifts by one ulp the design contract is broken
// (golden trees would move when dispatch picks a different member).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "likelihood/kernels.h"
#include "search/parsimony.h"
#include "search/spr.h"
#include "util/prng.h"

namespace raxh {
namespace {

// RAII guard: select a family member, restore the previous one after.
struct ScopedIsa {
  explicit ScopedIsa(kern::KernelIsa isa) : prev(kern::kernel_isa()) {
    EXPECT_TRUE(kern::set_kernel_isa(isa))
        << kern::kernel_isa_name(isa) << " not supported";
  }
  ~ScopedIsa() { kern::set_kernel_isa(prev); }
  kern::KernelIsa prev;
};

std::vector<kern::KernelIsa> supported_simd_isas() {
  std::vector<kern::KernelIsa> out;
  for (int i = 1; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    if (kern::kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
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
    gtr.rates = {1.3, 2.1, 0.7, 1.1, 2.9, 1.0};
    tree = std::make_unique<Tree>(
        Tree::parse_newick(sim.true_tree_newick, patterns.names()));
  }
  SimResult sim;
  PatternAlignment patterns;
  GtrParams gtr;
  std::unique_ptr<Tree> tree;
};

TEST(Simd, FamilyRosterIsSane) {
  // Scalar is always there; the effective member is always a supported one.
  EXPECT_TRUE(kern::kernel_isa_compiled(kern::KernelIsa::kScalar));
  EXPECT_TRUE(kern::kernel_isa_supported(kern::KernelIsa::kScalar));
  EXPECT_TRUE(kern::kernel_isa_supported(kern::kernel_isa()));
  EXPECT_TRUE(kern::kernel_isa_supported(kern::best_kernel_isa()));
  // The generic member is GCC-vector code at baseline arch: whenever it is
  // compiled in (-DRAXH_SIMD=OFF builds leave it out), it runs anywhere.
  if (kern::kernel_isa_compiled(kern::KernelIsa::kGeneric)) {
    EXPECT_TRUE(kern::kernel_isa_supported(kern::KernelIsa::kGeneric));
  }
}

TEST(Simd, IsaToggleRoundTrips) {
  const kern::KernelIsa before = kern::kernel_isa();
  {
    ScopedIsa guard(kern::KernelIsa::kScalar);
    EXPECT_EQ(kern::kernel_isa(), kern::KernelIsa::kScalar);
  }
  EXPECT_EQ(kern::kernel_isa(), before);
}

TEST(Simd, EvaluateMatchesScalarAllRateModels) {
  Fixture f(12, 150, 33);
  for (int model = 0; model < 3; ++model) {
    RateModel rates = model == 0   ? RateModel::uniform()
                      : model == 1 ? RateModel::gamma(0.6)
                                   : RateModel::cat(f.patterns.num_patterns());
    const double want = [&] {
      ScopedIsa guard(kern::KernelIsa::kScalar);
      LikelihoodEngine scalar_engine(f.patterns, f.gtr, rates);
      if (model == 2) scalar_engine.optimize_cat_rates(*f.tree);
      return scalar_engine.evaluate(*f.tree);
    }();

    for (const auto isa : supported_simd_isas()) {
      ScopedIsa guard(isa);
      LikelihoodEngine engine(f.patterns, f.gtr, rates);
      if (model == 2) engine.optimize_cat_rates(*f.tree);
      const double got = engine.evaluate(*f.tree);
      EXPECT_EQ(got, want) << "model " << model << " isa "
                           << kern::kernel_isa_name(isa);
    }
  }
}

TEST(Simd, EvaluateMatchesAtEveryEdge) {
  Fixture f(10, 100, 41);
  LikelihoodEngine scalar_engine(f.patterns, f.gtr, RateModel::gamma(0.7));
  for (const auto isa : supported_simd_isas()) {
    LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7));
    for (const int e : f.tree->edges()) {
      const double want = [&] {
        ScopedIsa guard(kern::KernelIsa::kScalar);
        return scalar_engine.evaluate(*f.tree, e);
      }();
      ScopedIsa guard(isa);
      const double got = engine.evaluate(*f.tree, e);
      EXPECT_EQ(got, want) << "edge " << e << " isa "
                           << kern::kernel_isa_name(isa);
    }
  }
}

TEST(Simd, SearchTrajectoryMatchesScalar) {
  // The strongest equivalence check: a whole SPR search makes identical
  // accept/reject decisions under the scalar reference and the best
  // dispatched member.
  Fixture f(10, 120, 57);
  Lcg rng_a(7), rng_b(7);
  Tree tree_a =
      randomized_stepwise_addition(f.patterns, f.patterns.weights(), rng_a);
  Tree tree_b =
      randomized_stepwise_addition(f.patterns, f.patterns.weights(), rng_b);

  double scalar_lnl = 0.0;
  std::uint64_t scalar_accepted = 0;
  {
    ScopedIsa guard(kern::KernelIsa::kScalar);
    LikelihoodEngine scalar_engine(f.patterns, f.gtr,
                                   RateModel::cat(f.patterns.num_patterns()));
    SprSearch scalar_search(scalar_engine, fast_settings());
    scalar_lnl = scalar_search.run(tree_a);
    scalar_accepted = scalar_search.stats().moves_accepted;
  }

  ScopedIsa guard(kern::best_kernel_isa());
  LikelihoodEngine engine(f.patterns, f.gtr,
                          RateModel::cat(f.patterns.num_patterns()));
  SprSearch search(engine, fast_settings());
  const double lnl = search.run(tree_b);

  EXPECT_EQ(tree_a.to_newick(f.patterns.names()),
            tree_b.to_newick(f.patterns.names()));
  EXPECT_EQ(scalar_lnl, lnl);
  EXPECT_EQ(scalar_accepted, search.stats().moves_accepted);
}

TEST(Simd, ScalingPathsAgreeOnDeepTree) {
  // Scale events must fire identically in every member.
  SimConfig cfg;
  cfg.taxa = 50;
  cfg.distinct_sites = 40;
  cfg.total_sites = 40;
  cfg.seed = 3;
  const auto sim = simulate_alignment(cfg);
  const auto patterns = PatternAlignment::compress(sim.alignment);
  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  Tree tree = Tree::parse_newick(sim.true_tree_newick, patterns.names());
  for (int e : tree.edges()) tree.set_length(e, 3.0);

  const double want = [&] {
    ScopedIsa guard(kern::KernelIsa::kScalar);
    LikelihoodEngine scalar_engine(patterns, gtr, RateModel::gamma(0.5));
    return scalar_engine.evaluate(tree);
  }();
  ASSERT_TRUE(std::isfinite(want));

  for (const auto isa : supported_simd_isas()) {
    ScopedIsa guard(isa);
    LikelihoodEngine engine(patterns, gtr, RateModel::gamma(0.5));
    EXPECT_EQ(engine.evaluate(tree), want)
        << "isa " << kern::kernel_isa_name(isa);
  }
}

}  // namespace
}  // namespace raxh
