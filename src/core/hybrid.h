// The hybrid MPI/Pthreads driver: binds one minimpi rank to one thread crew
// and runs the comprehensive analysis with the paper's communication pattern —
// a Barrier after the bootstrap stage and a Bcast of the winning tree at the
// end are the only noteworthy communications (§2.1).
#pragma once

#include <string>
#include <vector>

#include "bio/patterns.h"
#include "core/comprehensive.h"
#include "minimpi/comm.h"
#include "tree/bootstopping.h"

namespace raxh {

struct HybridResult {
  // Valid on every rank (Bcast, or the FINISH message in fault-tolerant
  // mode):
  std::string best_tree_newick;
  double best_lnl = 0.0;
  int winner_rank = 0;  // logical rank whose share produced the best tree

  // Fault-tolerant mode only: physical ranks that died during the run (as
  // known when the run finished) and the total number of bootstrap
  // replicates restored from checkpoints rather than recomputed.
  std::vector<int> failed_ranks;
  int resumed_replicates = 0;

  // Valid on rank 0 only (Gather; report-only data, not part of the paper's
  // minimal communication pattern):
  std::vector<StageTimes> rank_times;
  std::vector<double> rank_lnls;
  std::string support_tree_newick;  // best tree with bootstrap support values
  int total_bootstrap_trees = 0;
  BootstopResult bootstop;  // FC test over all replicates (extension)
};

struct HybridOptions {
  ComprehensiveOptions analysis;
  bool compute_support = true;   // build the BS-annotated best tree on rank 0
  bool run_bootstopping = false;  // run the FC convergence test on rank 0
  // Survive rank death: rank 0 coordinates a star-shaped protocol instead of
  // the bare collectives, detects dead peers via RankFailed, and re-grants
  // their unfinished logical shares to survivors. Because a share's results
  // depend only on its *logical* rank (seed + 10000*r), a re-granted share
  // reproduces the dead rank's results bit-identically, so the final tree
  // and lnL equal the fault-free run's.
  bool fault_tolerant = false;
};

// Collective: every rank of `comm` must call. Each rank creates its own
// `analysis.num_threads`-wide crew.
//
// `ctx` must be the same object (or an identically-configured one) on every
// rank; the one-shot CLI passes `{}`. When ctx.owns_process_globals is false
// the driver leaves the process-wide logger/obs rank attribution alone,
// which is required when several jobs (or several thread-backend ranks of
// one job) share a process.
HybridResult run_hybrid_comprehensive(const JobContext& ctx, mpi::Comm& comm,
                                      const PatternAlignment& patterns,
                                      const HybridOptions& options);

}  // namespace raxh
