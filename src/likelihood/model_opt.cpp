// Model-parameter optimization for LikelihoodEngine: GTR exchangeabilities
// (Brent per rate, GT fixed as reference), GAMMA shape (Brent), and the CAT
// per-pattern rate re-estimation + clustering of RAxML's
// optimizeRateCategories.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "likelihood/brent.h"
#include "likelihood/engine.h"
#include "util/check.h"

namespace raxh {

namespace {

constexpr double kRateLo = 1e-2;
constexpr double kRateHi = 100.0;
constexpr double kAlphaLo = 0.02;
constexpr double kAlphaHi = 100.0;

// CAT per-pattern rate search grid (log-spaced, RAxML's bounds are similar).
std::vector<double> cat_rate_grid() {
  std::vector<double> grid;
  const double lo = 1.0 / 32.0, hi = 32.0;
  const int steps = 28;
  for (int i = 0; i <= steps; ++i)
    grid.push_back(lo * std::pow(hi / lo, static_cast<double>(i) / steps));
  return grid;
}

}  // namespace

double LikelihoodEngine::optimize_gtr(Tree& tree, double epsilon) {
  double lnl = evaluate(tree);
  // One Brent sweep over the five free exchangeabilities (GT == 1 reference).
  for (int round = 0; round < 3; ++round) {
    const double before = lnl;
    for (std::size_t r = 0; r < 5; ++r) {
      GtrParams params = gtr();
      const auto result = brent_maximize(
          [&](double value) {
            params.rates[r] = value;
            set_gtr(params);
            return evaluate(tree);
          },
          kRateLo, kRateHi, 1e-3);
      params.rates[r] = result.x;
      set_gtr(params);
      lnl = result.fx;
    }
    if (lnl - before < epsilon) break;
  }
  return lnl;
}

double LikelihoodEngine::optimize_alpha(Tree& tree, double epsilon) {
  RAXH_EXPECTS(rates_.kind() == RateKind::kGamma);
  const auto result = brent_maximize(
      [&](double alpha) {
        set_alpha(alpha);
        return evaluate(tree);
      },
      kAlphaLo, kAlphaHi, epsilon);
  set_alpha(result.x);
  return result.fx;
}

double LikelihoodEngine::optimize_cat_rates(Tree& tree) {
  RAXH_EXPECTS(rates_.kind() == RateKind::kCat);
  const std::size_t npat = patterns_->num_patterns();

  // Patterns are independent, so pattern p's lnL when the *global* rate is r
  // equals its lnL when only p's rate is r. Probe the whole grid with
  // single-category models and take the per-pattern argmax.
  const std::vector<double> grid = cat_rate_grid();
  std::vector<double> best_rate(npat, 1.0);
  std::vector<double> best_lnl(npat, -std::numeric_limits<double>::infinity());

  const RateModel saved = rates_;
  std::vector<double> per_pattern(npat);
  for (const double r : grid) {
    rates_.set_categories({r}, std::vector<int>(npat, 0));
    ++model_epoch_;
    per_pattern_lnl(tree, per_pattern);
    for (std::size_t p = 0; p < npat; ++p) {
      if (per_pattern[p] > best_lnl[p]) {
        best_lnl[p] = per_pattern[p];
        best_rate[p] = r;
      }
    }
  }
  rates_ = saved;

  rates_.assign_categories_from_rates(best_rate, weights_);
  size_pmat_scratch();
  ++model_epoch_;
  return evaluate(tree);
}

}  // namespace raxh
