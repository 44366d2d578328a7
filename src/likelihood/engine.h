// The phylogenetic likelihood engine: conditional likelihood vectors over a
// Tree, lazily recomputed and striped across the thread crew. This is the
// substrate both the serial and the fine-grained parallel code paths of the
// reproduction share — with a crew of T threads it is RAxML's Pthreads mode,
// with T=1 it is the serial code. CLVs are stored pattern-major (see
// kernels.h), one slot per inner node in a single 64-byte-aligned buffer,
// and every kernel family member reads them in that one layout.
//
// CLV validity is *self-checking*: each internal node slot remembers which
// directed record it is oriented to, which children (and branch lengths, and
// content versions) it was computed from, and the model epoch. ensure-time
// validation recomputes exactly the stale subset, so callers never issue
// explicit invalidations after SPR moves or branch-length changes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bio/patterns.h"
#include "likelihood/kernels.h"
#include "model/gtr.h"
#include "model/rates.h"
#include "parallel/workforce.h"
#include "tree/tree.h"
#include "util/aligned.h"

namespace raxh {

class LikelihoodEngine {
 public:
  // `patterns` must outlive the engine. `crew` may be nullptr (serial) and
  // must outlive the engine if given.
  LikelihoodEngine(const PatternAlignment& patterns, const GtrParams& gtr,
                   RateModel rates, Workforce* crew = nullptr);

  [[nodiscard]] std::size_t num_patterns() const {
    return patterns_->num_patterns();
  }
  [[nodiscard]] const RateModel& rates() const { return rates_; }
  [[nodiscard]] const GtrParams& gtr() const { return model_.params(); }
  [[nodiscard]] Workforce* crew() const { return crew_; }

  // --- weights (bootstrap replicates swap these) ---
  void set_weights(std::span<const int> weights);
  void reset_weights();  // back to the alignment's pattern multiplicities
  [[nodiscard]] std::span<const int> weights() const { return weights_; }

  // --- model mutation (each bumps the model epoch; CLVs revalidate lazily) ---
  void set_gtr(const GtrParams& params);
  void set_alpha(double alpha);  // GAMMA only
  void set_cat_assignment(std::vector<double> category_rates,
                          std::vector<int> pattern_categories);  // CAT only

  // --- evaluation ---

  // Log-likelihood at the edge (rec, back(rec)).
  double evaluate(const Tree& tree, int rec);
  // Log-likelihood at the canonical edge (tip 0's edge).
  double evaluate(const Tree& tree) { return evaluate(tree, 0); }
  // Per-pattern site log-likelihoods at the canonical edge.
  void per_pattern_lnl(const Tree& tree, std::span<double> out);

  // --- optimization ---

  // Newton-Raphson on one branch; leaves the optimized length in the tree
  // and returns it.
  double optimize_branch(Tree& tree, int rec);
  // Optimize every branch `passes` times; returns final lnL.
  double smooth_branches(Tree& tree, int passes = 1);
  // Cycle Brent over the five free GTR exchangeabilities; returns final lnL.
  double optimize_gtr(Tree& tree, double epsilon = 0.1);
  // Brent on the GAMMA shape; returns final lnL. GAMMA only.
  double optimize_alpha(Tree& tree, double epsilon = 0.01);
  // Re-estimate per-pattern rates over a log-spaced grid, recluster into
  // categories (RAxML's optimizeRateCategories). CAT only. Returns final lnL.
  double optimize_cat_rates(Tree& tree);
  // Full round-robin (branches + model) until the lnL gain per round drops
  // below epsilon. Returns final lnL.
  double optimize_all(Tree& tree, double epsilon = 0.1, int max_rounds = 10);

  // --- low-level branch-optimization API ---
  // Used by PartitionedEngine to sum Newton-Raphson derivatives across
  // partitions: prepare_branch ensures the edge's CLVs and builds its
  // sumtable, branch_derivatives evaluates (d1, d2) at a candidate branch
  // length. The prepared state stays valid until the next engine operation
  // that touches the scratch buffers (any evaluate/newview) or the model,
  // so call them back-to-back.
  void prepare_branch(const Tree& tree, int rec);
  kern::Derivatives branch_derivatives(double t);

  // Force full recomputation (tests / defensive use).
  void invalidate_all() { ++model_epoch_; }

  // Number of newview kernel invocations so far (calibration + tests).
  [[nodiscard]] std::uint64_t newview_count() const { return newview_count_; }

  // Sum over patterns of the combined scale counts at edge `rec`'s CLV
  // endpoints (tips contribute zero; ensures the CLVs first). Tests use this
  // to prove a deep tree actually rescales before comparing NR derivatives
  // against evaluate() there.
  [[nodiscard]] std::uint64_t edge_scale_total(const Tree& tree, int rec);

 private:
  struct SlotMeta {
    int oriented_rec = -1;
    std::uint64_t model_epoch = 0;
    int child_rec1 = -1, child_rec2 = -1;
    double child_len1 = -1.0, child_len2 = -1.0;
    std::uint64_t child_ver1 = 0, child_ver2 = 0;
    std::uint64_t version = 0;  // bumped on every recompute
  };

  [[nodiscard]] int clv_cats() const;
  [[nodiscard]] kern::RateLayout layout() const;
  [[nodiscard]] double* clv(int slot);
  [[nodiscard]] int* scale(int slot);
  [[nodiscard]] std::uint64_t content_version(const Tree& tree, int rec) const;

  // Make CLV(rec) valid (recursing into children); no-op for tips.
  void ensure_clv(const Tree& tree, int rec);
  void compute_clv(const Tree& tree, int rec);

  // Size the P-matrix and tip-lookup scratch to the model's categories.
  void size_pmat_scratch();

  // Striped dispatch for the jobs without a reduction (newview, sumtable):
  // runs fn(begin, end) on equal blocks of patterns. Their results are per
  // pattern, so the split never moves a bit.
  template <typename Fn>
  void dispatch(Fn&& fn);
  // Dispatch with a reduction over the weighted partition (see
  // refresh_partition()): fn(begin, end) returns a std::array of N partial
  // sums, and each is added up over the threads in fixed tid order.
  template <typename Fn>
  auto dispatch_sum(Fn&& fn);

  // Rebuild the weighted prefix-sum partition (pattern weight x stored CLV
  // categories) that fixes how the reductions group their floating-point
  // sums: evaluate and branch_derivatives sum each thread's range, then the
  // ranges in tid order. It is numerics, not a cost model — newview and
  // the sumtable never read weights — and changing it moves the last bits
  // of every multi-threaded lnL. Cached per weights epoch.
  void refresh_partition();

  double evaluate_edge(const Tree& tree, int rec, double* per_pattern);

  const PatternAlignment* patterns_;
  GtrModel model_;
  RateModel rates_;
  Workforce* crew_;

  std::vector<int> weights_;
  std::uint64_t weights_epoch_ = 0;  // bumped whenever weights_ changes
  std::vector<double> cat_weights_;  // GAMMA: 1/ncat each

  // Reduction partition: part_bounds_[t]..part_bounds_[t+1] is thread t's
  // pattern range; rebuilt when weights_epoch_ moves past part_epoch_.
  std::vector<std::size_t> part_bounds_;
  std::uint64_t part_epoch_ = ~std::uint64_t{0};

  std::size_t clv_stride_ = 0;  // doubles per slot
  AlignedVector<double> clvs_;  // 64-byte aligned for the SIMD members
  std::vector<int> scales_;
  std::vector<SlotMeta> slots_;
  std::uint64_t model_epoch_ = 1;
  std::uint64_t version_counter_ = 1;
  std::uint64_t newview_count_ = 0;

  // Scratch, filled by the calling thread before each crew job and read by
  // the crew. pmat_*: ncat_model P matrices of 16, written in one batched
  // GtrModel::transition_matrices call per branch. lookup_*: ncat_model
  // tip lookups of 64 (16 masks x 4 states), of which build_tip_lookup
  // writes only the masks in patterns_->tip_masks(), the only entries the
  // kernels read. sumtable_: built by prepare_branch, in the kernels'
  // 4-pattern blocks (RateLayout::sumtable_index); it is not a CLV, so its
  // layout is free to differ. The last block's padding is zeroed at
  // construction and never written.
  std::vector<double> pmat_a_, pmat_b_;
  std::vector<double> lookup_a_, lookup_b_;
  AlignedVector<double> sumtable_;
};

// Safeguarded Newton-Raphson on a branch length: `derivatives(t)` supplies
// (d1, d2); returns the converged length in [kMin, kMax]BranchLength.
double newton_branch_length(
    const std::function<kern::Derivatives(double)>& derivatives, double t0);

}  // namespace raxh
