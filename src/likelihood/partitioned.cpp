#include "likelihood/partitioned.h"

#include "bio/resample.h"
#include "util/check.h"

namespace raxh {

// --- EngineEvaluator (declared in evaluator.h) ---

double EngineEvaluator::evaluate(const Tree& tree, int rec) {
  return engine_->evaluate(tree, rec);
}

double EngineEvaluator::optimize_branch(Tree& tree, int rec) {
  return engine_->optimize_branch(tree, rec);
}

double EngineEvaluator::smooth_branches(Tree& tree, int passes) {
  return engine_->smooth_branches(tree, passes);
}

double EngineEvaluator::optimize_model(Tree& tree) {
  double lnl = engine_->optimize_gtr(tree);
  switch (engine_->rates().kind()) {
    case RateKind::kGamma:
      lnl = engine_->optimize_alpha(tree);
      break;
    case RateKind::kCat:
      lnl = engine_->optimize_cat_rates(tree);
      lnl = engine_->smooth_branches(tree, 1);
      break;
    case RateKind::kUniform:
      break;
  }
  return lnl;
}

// --- PartitionedEngine ---

PartitionedEngine::PartitionedEngine(const Alignment& alignment,
                                     const PartitionScheme& scheme,
                                     RateScheme rates, Workforce* crew)
    : rate_scheme_(rates) {
  RAXH_EXPECTS(scheme.size() >= 1);
  const auto parts = scheme.split(alignment);
  patterns_.reserve(parts.size());
  for (const auto& part : parts)
    patterns_.push_back(PatternAlignment::compress(part));
  engines_.reserve(patterns_.size());
  for (const auto& patterns : patterns_) {
    GtrParams gtr;
    gtr.freqs = patterns.empirical_frequencies();
    RateModel model = rates == RateScheme::kGamma
                          ? RateModel::gamma(0.5)
                          : RateModel::cat(patterns.num_patterns());
    engines_.push_back(std::make_unique<LikelihoodEngine>(
        patterns, gtr, std::move(model), crew));
  }
}

double PartitionedEngine::evaluate(const Tree& tree, int rec) {
  double total = 0.0;
  for (auto& engine : engines_) total += engine->evaluate(tree, rec);
  return total;
}

double PartitionedEngine::optimize_branch(Tree& tree, int rec) {
  // Joint branch length: each partition contributes derivatives. The
  // prepared sumtables stay valid through the Newton iteration because
  // branch_derivatives does not touch the engines' CLV/scratch state.
  for (auto& engine : engines_) engine->prepare_branch(tree, rec);
  const double t = newton_branch_length(
      [this](double candidate) {
        kern::Derivatives sum;
        for (auto& engine : engines_) {
          const auto d = engine->branch_derivatives(candidate);
          sum.d1 += d.d1;
          sum.d2 += d.d2;
        }
        return sum;
      },
      tree.length(rec));
  tree.set_length(rec, t);
  return t;
}

double PartitionedEngine::smooth_branches(Tree& tree, int passes) {
  RAXH_EXPECTS(passes >= 1);
  for (int pass = 0; pass < passes; ++pass)
    for (const int e : tree.edges()) optimize_branch(tree, e);
  return evaluate(tree);
}

double PartitionedEngine::optimize_model(Tree& tree) {
  for (auto& engine : engines_) {
    engine->optimize_gtr(tree);
    if (rate_scheme_ == RateScheme::kGamma) {
      engine->optimize_alpha(tree);
    } else {
      engine->optimize_cat_rates(tree);
    }
  }
  return smooth_branches(tree, 1);
}

std::vector<double> PartitionedEngine::per_partition_lnl(const Tree& tree) {
  std::vector<double> out;
  out.reserve(engines_.size());
  for (auto& engine : engines_) out.push_back(engine->evaluate(tree));
  return out;
}

void PartitionedEngine::set_bootstrap_weights(Lcg& rng) {
  for (std::size_t i = 0; i < engines_.size(); ++i)
    engines_[i]->set_weights(bootstrap_weights(patterns_[i], rng));
}

void PartitionedEngine::reset_weights() {
  for (auto& engine : engines_) engine->reset_weights();
}

}  // namespace raxh
