// The paper's other two analysis types (§1), both "essentially constant
// parallelism throughout":
//
//  1. Multiple ML searches from distinct randomized starting trees
//     (RAxML -f d -N k): ranks split the k searches; the best tree wins.
//  2. Multiple bootstrap searches (RAxML -x/-b -N k) with no subsequent ML
//     search: ranks split the replicates; rank 0 aggregates the replicate
//     set (consensus / support downstream).
//
// Both reuse the comprehensive machinery: per-rank seed policy, minimal
// communication (a final Bcast for type 1, a final Gather for type 2).
#pragma once

#include <string>
#include <vector>

#include "bio/patterns.h"
#include "minimpi/comm.h"
#include "search/spr.h"
#include "tree/bootstopping.h"

namespace raxh {

// --- analysis type 1: multi-start ML search ---

struct MultistartOptions {
  int searches = 10;             // -N
  std::int64_t parsimony_seed = 12345;  // -p
  int num_threads = 1;
  SearchSettings search = slow_settings();
  double final_alpha = 0.5;  // GAMMA shape for final scoring
};

struct MultistartResult {
  // On every rank (Bcast):
  std::string best_tree_newick;
  double best_lnl = 0.0;  // GAMMA lnL
  int winner_rank = 0;
  // Rank 0 only:
  std::vector<double> all_lnls;  // every search's final lnL, rank-major
};

// Searches are split ceil(k/p) per rank, like the bootstrap stage of the
// comprehensive analysis. Collective: all ranks must call.
MultistartResult run_multistart_ml(mpi::Comm& comm,
                                   const PatternAlignment& patterns,
                                   const MultistartOptions& options);

// --- analysis type 2: standalone rapid bootstrapping ---

struct BootstrapRunOptions {
  int replicates = 100;          // -N
  std::int64_t parsimony_seed = 12345;  // -p
  std::int64_t bootstrap_seed = 12345;  // -x
  int num_threads = 1;
  bool build_consensus = true;   // rank 0: majority-rule consensus
};

struct BootstrapRunResult {
  // Rank 0 only:
  std::vector<std::string> replicate_newicks;  // all ranks' replicates
  std::string consensus_newick;                // if build_consensus
  // On every rank:
  int total_replicates = 0;
};

BootstrapRunResult run_bootstrap_analysis(mpi::Comm& comm,
                                          const PatternAlignment& patterns,
                                          const BootstrapRunOptions& options);

// --- adaptive bootstopping (the paper's stated future work, §2) ---
//
// "the current implementation only handles a fixed number of bootstraps, not
//  the case where that number can vary depending upon a bootstopping test.
//  Parallelization of that test, which operates on bipartitions of trees
//  stored in a hash table, will require implementation of a framework for
//  parallel operations on hash tables."
//
// This is that framework put to work: every rank bootstraps in rounds of
// `round_size` replicates, builds a LOCAL bipartition hash table, and the
// tables are merged across ranks (BipartitionTable::merge over gathered
// entries); rank 0 runs the FC convergence test on the merged replicate set
// and broadcasts continue/stop. Ranks therefore run only as many replicates
// as the data demand, in parallel.

struct AdaptiveBootstrapOptions {
  int round_size = 8;        // replicates per rank per round
  int min_replicates = 16;   // total, before the first convergence test
  int max_replicates = 200;  // total hard cap (ceil-shared per rank)
  std::int64_t parsimony_seed = 12345;
  std::int64_t bootstrap_seed = 12345;
  int num_threads = 1;
  BootstopOptions bootstop;  // FC test parameters
};

struct AdaptiveBootstrapResult {
  // On every rank (Bcast):
  bool converged = false;
  int total_replicates = 0;
  int rounds = 0;
  double final_correlation = 0.0;
  // Rank 0 only:
  std::vector<std::string> replicate_newicks;
};

AdaptiveBootstrapResult run_adaptive_bootstrap(
    mpi::Comm& comm, const PatternAlignment& patterns,
    const AdaptiveBootstrapOptions& options);

}  // namespace raxh
