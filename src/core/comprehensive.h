// One rank's share of the comprehensive analysis ("-f a"): rapid bootstraps,
// fast ML searches started from the best bootstrap trees, slow ML searches on
// the locally best fast trees, and one thorough ML search from the local best
// slow tree (paper §2.1: *every* rank runs a thorough search — the extra,
// useful work that often improves the final likelihood, Table 6).
//
// Behavioural deltas of the MPI code vs. serial, all implemented here:
//  * local (communication-free) sorting between fast and slow stages (§2.2),
//  * per-rank equal work shares from the Table 2 law (§2.3),
//  * reproducible per-rank seeds: base seed + 10000 * rank (§2.4).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bio/patterns.h"
#include "core/job_context.h"
#include "core/schedule.h"
#include "parallel/workforce.h"
#include "search/spr.h"
#include "util/prng.h"

namespace raxh {

struct ComprehensiveOptions {
  int specified_bootstraps = 100;    // -N
  std::int64_t parsimony_seed = 12345;  // -p
  std::int64_t bootstrap_seed = 12345;  // -x
  int num_threads = 1;               // fine-grained crew size (-T)
  double initial_alpha = 0.5;        // GAMMA shape for the final evaluation
  // When non-empty, each logical rank persists its bootstrap progress to
  // <dir>/rank<r>.ckpt after every replicate and resumes from it on the next
  // run — bit-identically, so a restarted (or re-granted) share produces the
  // same replicates an uninterrupted run would have.
  std::string checkpoint_dir;
  // Search intensity knobs (tests shrink these for speed).
  SearchSettings fast = fast_settings();
  SearchSettings slow = slow_settings();
  SearchSettings thorough = thorough_settings();
};

struct StageTimes {
  double bootstrap = 0.0;
  double fast = 0.0;
  double slow = 0.0;
  double thorough = 0.0;

  [[nodiscard]] double total() const {
    return bootstrap + fast + slow + thorough;
  }
};

struct RankReport {
  int rank = 0;
  StageCounts counts;                 // this rank's work share
  std::string best_tree_newick;       // thorough-search result
  double best_lnl = 0.0;              // final GAMMA lnL of that tree
  double cat_lnl = 0.0;               // CAT lnL at the end of the search
  StageTimes times;
  std::vector<std::string> bootstrap_newicks;  // this rank's replicates
  int resumed_replicates = 0;         // replicates restored from a checkpoint
};

// Run rank `rank` of `nranks`. `after_bootstraps` fires between stages 1 and
// 2 — the hybrid driver hangs the barrier there (the paper's only mid-run
// synchronization point). `crew` may be nullptr (serial fine grain).
//
// `select_thorough` ablates the paper's §2.1 design decision: it receives the
// rank's best slow-search lnL and decides whether this rank runs stage 4.
// Default (unset) = always run it, the paper's behaviour; the ablation bench
// wires it to an allreduce so only the globally best rank searches (the
// serial-equivalent policy). A rank that skips stage 4 reports its best slow
// tree, GAMMA-evaluated.
//
// `on_unit` fires after every completed work unit (each bootstrap replicate
// and each fast/slow/thorough search). The fault-tolerant driver wires it to
// Comm::fault_tick so seeded fault plans can strike mid-stage; it must not
// affect the computation.
//
// `ctx` supplies the job id (namespacing the checkpoint files), the cancel
// token (polled per work unit and threaded into every search) and the live
// model progress reports land in; the one-shot CLI passes `{}`.
RankReport run_comprehensive_rank(
    const JobContext& ctx, const PatternAlignment& patterns,
    const ComprehensiveOptions& options, int rank, int nranks, Workforce* crew,
    const std::function<void()>& after_bootstraps = {},
    const std::function<bool(double)>& select_thorough = {},
    const std::function<void()>& on_unit = {});

}  // namespace raxh
