#include "likelihood/engine.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/obs.h"
#include "util/check.h"

namespace raxh {

LikelihoodEngine::LikelihoodEngine(const PatternAlignment& patterns,
                                   const GtrParams& gtr, RateModel rates,
                                   Workforce* crew)
    : patterns_(&patterns),
      model_(gtr),
      rates_(std::move(rates)),
      crew_(crew) {
  const std::size_t npat = patterns_->num_patterns();
  RAXH_EXPECTS(npat > 0);
  if (rates_.kind() == RateKind::kCat)
    RAXH_EXPECTS(rates_.pattern_categories().size() == npat);

  reset_weights();

  const std::size_t slots = patterns_->num_taxa() - 2;
  clv_stride_ = layout().clv_stride(npat);
  clvs_.resize(slots * clv_stride_);
  scales_.resize(slots * npat);
  slots_.resize(slots);

  if (rates_.kind() == RateKind::kGamma) {
    cat_weights_.assign(static_cast<std::size_t>(rates_.num_categories()),
                        1.0 / rates_.num_categories());
  }

  size_pmat_scratch();
  sumtable_.resize(layout().sumtable_stride(npat));  // padding stays 0.0
}

void LikelihoodEngine::size_pmat_scratch() {
  const auto ncat = static_cast<std::size_t>(rates_.num_categories());
  pmat_a_.resize(ncat * 16);
  pmat_b_.resize(ncat * 16);
  lookup_a_.resize(ncat * 64);
  lookup_b_.resize(ncat * 64);
}

int LikelihoodEngine::clv_cats() const {
  return rates_.kind() == RateKind::kGamma ? rates_.num_categories() : 1;
}

kern::RateLayout LikelihoodEngine::layout() const {
  kern::RateLayout l;
  l.ncat_model = rates_.num_categories();
  l.clv_cats = clv_cats();
  if (rates_.kind() == RateKind::kCat)
    l.pattern_cat = rates_.pattern_categories().data();
  if (rates_.kind() == RateKind::kGamma) l.cat_weights = cat_weights_.data();
  return l;
}

double* LikelihoodEngine::clv(int slot) {
  return clvs_.data() + static_cast<std::size_t>(slot) * clv_stride_;
}

int* LikelihoodEngine::scale(int slot) {
  return scales_.data() +
         static_cast<std::size_t>(slot) * patterns_->num_patterns();
}

void LikelihoodEngine::set_weights(std::span<const int> weights) {
  RAXH_EXPECTS(weights.size() == patterns_->num_patterns());
  weights_.assign(weights.begin(), weights.end());
  // Weights only enter weighted sums, not CLVs; no model-epoch bump needed.
  // They do fix the reductions' partition, though.
  ++weights_epoch_;
}

void LikelihoodEngine::reset_weights() {
  const auto w = patterns_->weights();
  weights_.assign(w.begin(), w.end());
  ++weights_epoch_;
}

void LikelihoodEngine::set_gtr(const GtrParams& params) {
  model_ = GtrModel(params);
  ++model_epoch_;
}

void LikelihoodEngine::set_alpha(double alpha) {
  RAXH_EXPECTS(rates_.kind() == RateKind::kGamma);
  rates_.set_alpha(alpha);
  ++model_epoch_;
}

void LikelihoodEngine::set_cat_assignment(std::vector<double> category_rates,
                                          std::vector<int> pattern_categories) {
  RAXH_EXPECTS(rates_.kind() == RateKind::kCat);
  rates_.set_categories(std::move(category_rates),
                        std::move(pattern_categories));
  // The number of model categories may have changed.
  size_pmat_scratch();
  ++model_epoch_;
}

std::uint64_t LikelihoodEngine::content_version(const Tree& tree,
                                                int rec) const {
  if (tree.is_tip_record(rec)) return 0;  // tips never change content
  return slots_[static_cast<std::size_t>(tree.clv_slot(rec))].version;
}

void LikelihoodEngine::refresh_partition() {
  const auto nthreads = static_cast<std::size_t>(crew_->num_threads());
  if (part_epoch_ == weights_epoch_ && part_bounds_.size() == nthreads + 1)
    return;
  const std::size_t npat = patterns_->num_patterns();
  const auto cats = static_cast<std::uint64_t>(clv_cats());
  std::vector<std::uint64_t> costs(npat);
  for (std::size_t p = 0; p < npat; ++p)
    costs[p] = static_cast<std::uint64_t>(weights_[p]) * cats;
  part_bounds_ = weighted_partition(costs, crew_->num_threads());
  part_epoch_ = weights_epoch_;
}

template <typename Fn>
void LikelihoodEngine::dispatch(Fn&& fn) {
  const std::size_t npat = patterns_->num_patterns();
  if (crew_ == nullptr || crew_->num_threads() == 1) {
    obs::count(obs::Counter::kPatternsEvaluated, npat);
    fn(std::size_t{0}, npat);
    return;
  }
  crew_->run([&](int tid, int nthreads) {
    const Stripe s = stripe(npat, tid, nthreads);
    obs::count(obs::Counter::kPatternsEvaluated, s.end - s.begin);
    fn(s.begin, s.end);
  });
}

template <typename Fn>
auto LikelihoodEngine::dispatch_sum(Fn&& fn) {
  using Sums = decltype(fn(std::size_t{0}, std::size_t{0}));
  constexpr std::size_t kSums = std::tuple_size_v<Sums>;
  const std::size_t npat = patterns_->num_patterns();
  obs::count(obs::Counter::kReductionCalls);
  if (crew_ == nullptr || crew_->num_threads() == 1) {
    obs::count(obs::Counter::kPatternsEvaluated, npat);
    return fn(std::size_t{0}, npat);
  }
  refresh_partition();
  if (crew_->reduction_slots() < kSums) crew_->resize_reduction(kSums);
  crew_->run([&](int tid, int) {
    const std::size_t begin = part_bounds_[static_cast<std::size_t>(tid)];
    const std::size_t end = part_bounds_[static_cast<std::size_t>(tid) + 1];
    obs::count(obs::Counter::kPatternsEvaluated, end - begin);
    const Sums part = fn(begin, end);
    for (std::size_t i = 0; i < kSums; ++i) crew_->reduction(tid, i) = part[i];
  });
  Sums sums;
  for (std::size_t i = 0; i < kSums; ++i) sums[i] = crew_->sum_reduction(i);
  return sums;
}

std::uint64_t LikelihoodEngine::edge_scale_total(const Tree& tree, int rec) {
  int x = rec;
  int y = tree.back(rec);
  RAXH_EXPECTS(y >= 0);
  if (tree.is_tip_record(y)) std::swap(x, y);
  ensure_clv(tree, y);
  if (!tree.is_tip_record(x)) ensure_clv(tree, x);
  const std::size_t npat = patterns_->num_patterns();
  std::uint64_t total = 0;
  const int* sy = scale(tree.clv_slot(y));
  for (std::size_t p = 0; p < npat; ++p)
    total += static_cast<std::uint64_t>(sy[p]);
  if (!tree.is_tip_record(x)) {
    const int* sx = scale(tree.clv_slot(x));
    for (std::size_t p = 0; p < npat; ++p)
      total += static_cast<std::uint64_t>(sx[p]);
  }
  return total;
}

void LikelihoodEngine::ensure_clv(const Tree& tree, int rec) {
  if (tree.is_tip_record(rec)) return;
  const auto [c1, c2] = tree.children(rec);
  ensure_clv(tree, c1);
  ensure_clv(tree, c2);

  auto& meta = slots_[static_cast<std::size_t>(tree.clv_slot(rec))];
  const double len1 = tree.length(tree.next(rec));
  const double len2 = tree.length(tree.next(tree.next(rec)));
  const bool valid = meta.oriented_rec == rec &&
                     meta.model_epoch == model_epoch_ &&
                     meta.child_rec1 == c1 && meta.child_rec2 == c2 &&
                     meta.child_len1 == len1 && meta.child_len2 == len2 &&
                     meta.child_ver1 == content_version(tree, c1) &&
                     meta.child_ver2 == content_version(tree, c2);
  if (valid) return;
  compute_clv(tree, rec);
}

void LikelihoodEngine::compute_clv(const Tree& tree, int rec) {
  const auto [c1, c2] = tree.children(rec);
  const double len1 = tree.length(tree.next(rec));
  const double len2 = tree.length(tree.next(tree.next(rec)));
  const int slot = tree.clv_slot(rec);
  const auto lay = layout();
  const int ncat = rates_.num_categories();
  const std::uint16_t masks = patterns_->tip_masks();

  model_.transition_matrices(len1, rates_.rates(), pmat_a_.data());
  model_.transition_matrices(len2, rates_.rates(), pmat_b_.data());

  const bool tip1 = tree.is_tip_record(c1);
  const bool tip2 = tree.is_tip_record(c2);
  if (tip1)
    kern::build_tip_lookup(pmat_a_.data(), ncat, lookup_a_.data(), masks);
  if (tip2)
    kern::build_tip_lookup(pmat_b_.data(), ncat, lookup_b_.data(), masks);

  double* out = clv(slot);
  int* out_scale = scale(slot);

  if (tip1 && tip2) {
    const auto row1 = patterns_->row(static_cast<std::size_t>(c1));
    const auto row2 = patterns_->row(static_cast<std::size_t>(c2));
    dispatch([&](std::size_t b, std::size_t e) {
      kern::newview_tip_tip(lay, b, e, row1.data(), row2.data(),
                            lookup_a_.data(), lookup_b_.data(), out,
                            out_scale);
    });
  } else if (tip1 || tip2) {
    const int tip_rec = tip1 ? c1 : c2;
    const int inner_rec = tip1 ? c2 : c1;
    const auto tip_row = patterns_->row(static_cast<std::size_t>(tip_rec));
    const double* tip_lookup = tip1 ? lookup_a_.data() : lookup_b_.data();
    const double* inner_pmat = tip1 ? pmat_b_.data() : pmat_a_.data();
    const int inner_slot = tree.clv_slot(inner_rec);
    dispatch([&](std::size_t b, std::size_t e) {
      kern::newview_tip_inner(lay, b, e, tip_row.data(), tip_lookup,
                              clv(inner_slot), scale(inner_slot), inner_pmat,
                              out, out_scale);
    });
  } else {
    const int slot1 = tree.clv_slot(c1);
    const int slot2 = tree.clv_slot(c2);
    dispatch([&](std::size_t b, std::size_t e) {
      kern::newview_inner_inner(lay, b, e, clv(slot1), scale(slot1),
                                pmat_a_.data(), clv(slot2), scale(slot2),
                                pmat_b_.data(), out, out_scale);
    });
  }

  auto& meta = slots_[static_cast<std::size_t>(slot)];
  meta.oriented_rec = rec;
  meta.model_epoch = model_epoch_;
  meta.child_rec1 = c1;
  meta.child_rec2 = c2;
  meta.child_len1 = len1;
  meta.child_len2 = len2;
  meta.child_ver1 = content_version(tree, c1);
  meta.child_ver2 = content_version(tree, c2);
  meta.version = ++version_counter_;
  ++newview_count_;
  obs::count(obs::Counter::kNewviewCalls);
}

double LikelihoodEngine::evaluate_edge(const Tree& tree, int rec,
                                       double* per_pattern) {
  obs::count(obs::Counter::kEvaluateCalls);
  // Orient so that x is a tip whenever the edge touches one.
  int x = rec;
  int y = tree.back(rec);
  RAXH_EXPECTS(y >= 0);
  if (tree.is_tip_record(y)) std::swap(x, y);
  RAXH_EXPECTS(!tree.is_tip_record(y));  // no tip-tip edges in trees with n>=3

  // Ensure both CLVs before touching the P-matrix scratch: CLV computation
  // reuses pmat_a_/lookup_a_ internally.
  ensure_clv(tree, y);
  if (!tree.is_tip_record(x)) ensure_clv(tree, x);

  const auto lay = layout();
  const int ncat = rates_.num_categories();
  const double t = tree.length(rec);
  model_.transition_matrices(t, rates_.rates(), pmat_a_.data());
  const double* freqs = model_.freqs().data();
  const int slot_y = tree.clv_slot(y);

  if (tree.is_tip_record(x)) {
    const auto tip_row = patterns_->row(static_cast<std::size_t>(x));
    kern::build_tip_lookup(pmat_a_.data(), ncat, lookup_a_.data(),
                           patterns_->tip_masks());
    return dispatch_sum([&](std::size_t b, std::size_t e) {
      return std::array{kern::evaluate_tip_inner(
          lay, b, e, freqs, tip_row.data(), lookup_a_.data(), clv(slot_y),
          scale(slot_y), weights_.data(), per_pattern)};
    })[0];
  }

  const int slot_x = tree.clv_slot(x);
  return dispatch_sum([&](std::size_t b, std::size_t e) {
    return std::array{kern::evaluate_inner_inner(
        lay, b, e, freqs, clv(slot_x), scale(slot_x), pmat_a_.data(),
        clv(slot_y), scale(slot_y), weights_.data(), per_pattern)};
  })[0];
}

double LikelihoodEngine::evaluate(const Tree& tree, int rec) {
  return evaluate_edge(tree, rec, nullptr);
}

void LikelihoodEngine::per_pattern_lnl(const Tree& tree,
                                       std::span<double> out) {
  RAXH_EXPECTS(out.size() == patterns_->num_patterns());
  evaluate_edge(tree, 0, out.data());
}

void LikelihoodEngine::prepare_branch(const Tree& tree, int rec) {
  int x = rec;
  int y = tree.back(rec);
  if (tree.is_tip_record(y)) std::swap(x, y);
  ensure_clv(tree, y);
  const auto lay = layout();
  const double* freqs = model_.freqs().data();
  const double* vmat = model_.right_vectors().data();
  const double* vinv = model_.left_vectors().data();
  const int slot_y = tree.clv_slot(y);

  if (tree.is_tip_record(x)) {
    const auto tip_row = patterns_->row(static_cast<std::size_t>(x));
    dispatch([&](std::size_t b, std::size_t e) {
      kern::edge_sumtable_tip_inner(lay, b, e, freqs, vmat, vinv,
                                    tip_row.data(), clv(slot_y),
                                    sumtable_.data());
    });
  } else {
    ensure_clv(tree, x);
    const int slot_x = tree.clv_slot(x);
    dispatch([&](std::size_t b, std::size_t e) {
      kern::edge_sumtable_inner_inner(lay, b, e, freqs, vmat, vinv,
                                      clv(slot_x), clv(slot_y),
                                      sumtable_.data());
    });
  }
}

kern::Derivatives LikelihoodEngine::branch_derivatives(double t) {
  obs::count(obs::Counter::kDerivativeCalls);
  const auto lay = layout();
  const double* eigenvalues = model_.eigenvalues().data();
  const double* cat_rates = rates_.rates().data();
  const auto [d1, d2] = dispatch_sum([&](std::size_t b, std::size_t e) {
    const auto d = kern::nr_derivatives(lay, b, e, sumtable_.data(),
                                        eigenvalues, cat_rates, t,
                                        weights_.data());
    return std::array{d.d1, d.d2};
  });
  return {d1, d2};
}

double newton_branch_length(
    const std::function<kern::Derivatives(double)>& derivatives, double t0) {
  double t = std::clamp(t0, kMinBranchLength, kMaxBranchLength);
  for (int iter = 0; iter < 32; ++iter) {
    const kern::Derivatives d = derivatives(t);
    double proposal;
    if (d.d2 < 0.0) {
      proposal = t - d.d1 / d.d2;
      // Damp wild Newton steps to a factor-of-4 move.
      proposal = std::clamp(proposal, t / 4.0, t * 4.0);
    } else {
      proposal = d.d1 > 0.0 ? t * 2.0 : t / 2.0;
    }
    proposal = std::clamp(proposal, kMinBranchLength, kMaxBranchLength);
    const double delta = std::fabs(proposal - t);
    t = proposal;
    if (delta < 1e-9) break;
  }
  return t;
}

double LikelihoodEngine::optimize_branch(Tree& tree, int rec) {
  prepare_branch(tree, rec);
  const double t = newton_branch_length(
      [this](double candidate) { return branch_derivatives(candidate); },
      tree.length(rec));
  tree.set_length(rec, t);
  return t;
}

double LikelihoodEngine::smooth_branches(Tree& tree, int passes) {
  RAXH_EXPECTS(passes >= 1);
  for (int pass = 0; pass < passes; ++pass)
    for (int e : tree.edges()) optimize_branch(tree, e);
  return evaluate(tree);
}

double LikelihoodEngine::optimize_all(Tree& tree, double epsilon,
                                      int max_rounds) {
  double lnl = evaluate(tree);
  for (int round = 0; round < max_rounds; ++round) {
    smooth_branches(tree, 1);
    double next = optimize_gtr(tree, epsilon);
    if (rates_.kind() == RateKind::kGamma) {
      next = optimize_alpha(tree);
    } else if (rates_.kind() == RateKind::kCat) {
      next = optimize_cat_rates(tree);
    }
    next = smooth_branches(tree, 1);
    if (next - lnl < epsilon) return next;
    lnl = next;
  }
  return lnl;
}

}  // namespace raxh
