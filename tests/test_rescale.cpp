// Rescale-boundary suite (S4): the maybe_rescale edge cases — all-zero CLVs
// (the vmax == 0.0 early-out), patterns straddling kScaleThreshold exactly,
// and accumulated scale counts along a deep caterpillar chain — run against
// every member of the kernel family, asserting scalar-vs-SIMD parity
// bitwise at exactly these edge patterns. Plus the NR derivatives on a tree
// deep enough to actually rescale: the scale factors cancel out of d1 and
// d2, so they must match finite differences of evaluate() there.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "likelihood/kernels.h"
#include "tree/tree.h"

namespace raxh {
namespace {

struct ScopedIsa {
  explicit ScopedIsa(kern::KernelIsa isa) : prev(kern::kernel_isa()) {
    EXPECT_TRUE(kern::set_kernel_isa(isa))
        << kern::kernel_isa_name(isa) << " not supported";
  }
  ~ScopedIsa() { kern::set_kernel_isa(prev); }
  kern::KernelIsa prev;
};

std::vector<kern::KernelIsa> family_members() {
  std::vector<kern::KernelIsa> out = {kern::KernelIsa::kScalar};
  for (int i = 1; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    if (kern::kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

// GAMMA-4 layout.
kern::RateLayout gamma_layout(const std::vector<double>& cw) {
  kern::RateLayout l;
  l.ncat_model = 4;
  l.clv_cats = 4;
  l.cat_weights = cw.data();
  return l;
}

TEST(Rescale, AllZeroClvEarlyOutsWithoutScaling) {
  // A fully-masked tip (state mask 0) zeroes the pattern's CLV; vmax == 0.0
  // must early-out: no scale increment (which would otherwise spin forever),
  // CLV stays exactly zero. Identical across every member.
  const std::size_t npat = 24;
  const std::vector<double> cw(4, 0.25);
  std::vector<DnaState> tipA(npat), tipB(npat);
  for (std::size_t p = 0; p < npat; ++p) {
    tipA[p] = static_cast<DnaState>(p % 4 == 0 ? 0 : (p % 15) + 1);
    tipB[p] = static_cast<DnaState>((p * 3) % 15 + 1);
  }
  std::vector<double> pmat(4 * 16, 0.25);
  std::vector<double> lookup(4 * 64);
  kern::build_tip_lookup(pmat.data(), 4, lookup.data());

  const auto l = gamma_layout(cw);
  std::vector<double> want_clv;
  std::vector<int> want_scale;
  for (const auto isa : family_members()) {
    ScopedIsa guard(isa);
    std::vector<double> clv(l.clv_stride(npat), -1.0);
    std::vector<int> scale(npat, -1);
    kern::newview_tip_tip(l, 0, npat, tipA.data(), tipB.data(),
                          lookup.data(), lookup.data(), clv.data(),
                          scale.data());
    for (std::size_t p = 0; p < npat; p += 4) {
      EXPECT_EQ(scale[p], 0) << "pattern " << p;
      for (int c = 0; c < 4; ++c)
        for (int s = 0; s < 4; ++s)
          EXPECT_EQ(clv[l.clv_index(p, c, s)], 0.0)
              << "pattern " << p << " cat " << c << " state " << s;
    }
    if (want_clv.empty()) {
      want_clv = clv;
      want_scale = scale;
    } else {
      EXPECT_EQ(clv, want_clv) << kern::kernel_isa_name(isa);
      EXPECT_EQ(scale, want_scale) << kern::kernel_isa_name(isa);
    }
  }
}

TEST(Rescale, ThresholdStraddlingPatterns) {
  // Four per-pattern cases cycled across 32 patterns:
  //   p%4==0: all values just ABOVE the threshold  -> no rescale
  //   p%4==1: all values just BELOW                -> rescale, count +1
  //   p%4==2: one value above, the rest below      -> vmax above, no rescale
  //   p%4==3: all values exactly AT the threshold  -> >= means no rescale
  const std::size_t npat = 32;
  const std::vector<double> cw(4, 0.25);
  const double thr = kern::kScaleThreshold;

  // Identity P and all-state tip masks make newview_tip_inner the identity:
  // out[p] = clv_right[p], so the values straddle exactly as constructed.
  std::vector<double> pmat(4 * 16, 0.0);
  for (int c = 0; c < 4; ++c)
    for (int i = 0; i < 4; ++i) pmat[c * 16 + i * 4 + i] = 1.0;
  std::vector<double> lookup(4 * 64);
  kern::build_tip_lookup(pmat.data(), 4, lookup.data());
  std::vector<DnaState> tip(npat, static_cast<DnaState>(15));

  const auto l = gamma_layout(cw);
  std::vector<double> clv_right(l.clv_stride(npat), 0.0);
  std::vector<int> scale_right(npat);
  for (std::size_t p = 0; p < npat; ++p) {
    scale_right[p] = static_cast<int>(p % 2);  // accumulation carries over
    for (int c = 0; c < 4; ++c)
      for (int s = 0; s < 4; ++s) {
        double v = 0.0;
        switch (p % 4) {
          case 0: v = 2.0 * thr; break;
          case 1: v = 0.5 * thr; break;
          case 2: v = (c == 0 && s == 0) ? 2.0 * thr : 0.25 * thr; break;
          case 3: v = thr; break;
        }
        clv_right[l.clv_index(p, c, s)] = v;
      }
  }

  std::vector<double> want_clv;
  std::vector<int> want_scale;
  for (const auto isa : family_members()) {
    ScopedIsa guard(isa);
    std::vector<double> clv(l.clv_stride(npat), 0.0);
    std::vector<int> scale(npat, 0);
    kern::newview_tip_inner(l, 0, npat, tip.data(), lookup.data(),
                            clv_right.data(), scale_right.data(),
                            pmat.data(), clv.data(), scale.data());
    for (std::size_t p = 0; p < npat; ++p) {
      const int event = p % 4 == 1 ? 1 : 0;
      EXPECT_EQ(scale[p], scale_right[p] + event) << "pattern " << p;
      const double got = clv[l.clv_index(p, 1, 2)];
      switch (p % 4) {
        case 0: EXPECT_EQ(got, 2.0 * thr) << p; break;
        // Rescaled: 0.5 * thr * kScaleFactor == 0.5 exactly (powers of 2).
        case 1: EXPECT_EQ(got, 0.5) << p; break;
        case 2: EXPECT_EQ(got, 0.25 * thr) << p; break;
        case 3: EXPECT_EQ(got, thr) << p; break;
      }
    }
    if (want_clv.empty()) {
      want_clv = clv;
      want_scale = scale;
    } else {
      EXPECT_EQ(clv, want_clv) << kern::kernel_isa_name(isa);
      EXPECT_EQ(scale, want_scale) << kern::kernel_isa_name(isa);
    }
  }
}

TEST(Rescale, DeepChainAccumulatesScaleCounts) {
  // A caterpillar-like chain of tip_inner newviews whose P matrix shrinks
  // the CLV by 1e-150 per step: every step must trigger exactly one rescale,
  // so after `depth` steps the scale count is exactly `depth` — for every
  // member, with bitwise-identical values.
  const std::size_t npat = 16;
  const int depth = 12;
  const std::vector<double> cw(4, 0.25);

  std::vector<double> pmat_shrink(4 * 16, 0.0);
  for (int c = 0; c < 4; ++c)
    for (int i = 0; i < 4; ++i) pmat_shrink[c * 16 + i * 4 + i] = 1e-150;
  std::vector<double> pmat_id(4 * 16, 0.0);
  for (int c = 0; c < 4; ++c)
    for (int i = 0; i < 4; ++i) pmat_id[c * 16 + i * 4 + i] = 1.0;
  std::vector<double> lookup_ones(4 * 64);
  kern::build_tip_lookup(pmat_id.data(), 4, lookup_ones.data());
  std::vector<DnaState> tip(npat, static_cast<DnaState>(15));
  std::vector<int> weights(npat, 1);
  const double freqs[4] = {0.25, 0.25, 0.25, 0.25};

  const auto l = gamma_layout(cw);
  std::vector<double> want_clv;
  std::vector<int> want_scale;
  double want_lnl = 0.0;
  for (const auto isa : family_members()) {
    ScopedIsa guard(isa);
    std::vector<double> cur(l.clv_stride(npat), 1.0);
    std::vector<double> next(l.clv_stride(npat), 0.0);
    std::vector<int> s_cur(npat, 0), s_next(npat, 0);
    for (int d = 0; d < depth; ++d) {
      kern::newview_tip_inner(l, 0, npat, tip.data(), lookup_ones.data(),
                              cur.data(), s_cur.data(), pmat_shrink.data(),
                              next.data(), s_next.data());
      cur.swap(next);
      s_cur.swap(s_next);
    }
    for (std::size_t p = 0; p < npat; ++p)
      EXPECT_EQ(s_cur[p], depth) << "pattern " << p;
    const double lnl = kern::evaluate_tip_inner(
        l, 0, npat, freqs, tip.data(), lookup_ones.data(), cur.data(),
        s_cur.data(), weights.data(), nullptr);
    EXPECT_TRUE(std::isfinite(lnl));
    // Each accumulated scale count subtracts kLogScaleFactor per site.
    EXPECT_LT(lnl, -static_cast<double>(npat) * (depth - 1) *
                       kern::kLogScaleFactor);
    if (want_clv.empty()) {
      want_clv = cur;
      want_scale = s_cur;
      want_lnl = lnl;
    } else {
      EXPECT_EQ(cur, want_clv) << kern::kernel_isa_name(isa);
      EXPECT_EQ(s_cur, want_scale) << kern::kernel_isa_name(isa);
      EXPECT_EQ(lnl, want_lnl) << kern::kernel_isa_name(isa);
    }
  }
}

TEST(Rescale, NrDerivativesMatchEvaluateOnDeepTree) {
  // The sumtable is built from CLVs that carry scale counts; d1 and d2 are
  // ratios in which the scale factors cancel. Build a caterpillar deep
  // enough to rescale (asserted, not assumed), then require the derivatives
  // to match central differences of evaluate(), which applies the scale
  // corrections itself.
  SimConfig cfg;
  cfg.taxa = 500;
  cfg.distinct_sites = 50;
  cfg.total_sites = 50;
  cfg.seed = 11;
  const auto sim = simulate_alignment(cfg);
  const auto patterns = PatternAlignment::compress(sim.alignment);

  // Caterpillar: (t1,t2,(t3,(t4,(...)))) — depth grows linearly in taxa.
  const auto& names = patterns.names();
  std::string nwk = "(" + names[0] + "," + names[1] + ",";
  for (std::size_t i = 2; i + 1 < names.size(); ++i) nwk += "(" + names[i] + ",";
  nwk += names.back();
  nwk.append(names.size() - 3, ')');
  nwk += ");";
  Tree tree = Tree::parse_newick(nwk, names);
  for (int e : tree.edges()) tree.set_length(e, 3.0);

  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  LikelihoodEngine engine(patterns, gtr, RateModel::uniform());

  const int rec = 0;  // the canonical tip-0 edge sits atop the whole chain
  ASSERT_GT(engine.edge_scale_total(tree, rec), std::uint64_t{0})
      << "tree not deep enough to rescale; the test has no teeth";

  for (const double t : {3.0, 0.3, 0.03}) {
    engine.prepare_branch(tree, rec);
    const auto d = engine.branch_derivatives(t);
    // Central differences with step h = 3t/1000. The 500-taxon lnL is so
    // large that rounding in the second difference outgrows the (h/t)^2
    // truncation error at smaller steps. Each derivative is bounded relative
    // to its natural scale, |d1| + |d2|*t and |d2| + |d1|/t: 1e-4 for d1 and
    // 1e-3 for d2 (the worst cases seen are 4.8e-6 and 9.1e-5).
    const double h = 3e-3 * t;
    tree.set_length(rec, t - h);
    const double lo = engine.evaluate(tree, rec);
    tree.set_length(rec, t + h);
    const double hi = engine.evaluate(tree, rec);
    tree.set_length(rec, t);
    const double mid = engine.evaluate(tree, rec);
    ASSERT_TRUE(std::isfinite(mid));
    const double scale1 = std::fabs(d.d1) + std::fabs(d.d2) * t;
    const double scale2 = std::fabs(d.d2) + std::fabs(d.d1) / t;
    EXPECT_NEAR(d.d1, (hi - lo) / (2.0 * h), 1e-4 * scale1) << "t " << t;
    EXPECT_NEAR(d.d2, (hi - 2.0 * mid + lo) / (h * h), 1e-3 * scale2)
        << "t " << t;
  }
}

}  // namespace
}  // namespace raxh
