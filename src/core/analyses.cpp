#include "core/analyses.h"

#include <algorithm>
#include <limits>

#include "core/schedule.h"
#include "likelihood/engine.h"
#include "parallel/workforce.h"
#include "search/bootstrap.h"
#include "search/parsimony.h"
#include "tree/consensus.h"
#include "util/check.h"
#include "util/prng.h"

namespace raxh {

MultistartResult run_multistart_ml(mpi::Comm& comm,
                                   const PatternAlignment& patterns,
                                   const MultistartOptions& options) {
  RAXH_EXPECTS(options.searches >= 1);
  const int rank = comm.rank();
  const int nranks = comm.size();
  const int per_rank = ceil_div(options.searches, nranks);

  Workforce crew(options.num_threads);
  Workforce* crew_ptr = options.num_threads > 1 ? &crew : nullptr;

  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  LikelihoodEngine engine(patterns, gtr,
                          RateModel::cat(patterns.num_patterns()), crew_ptr);

  const RankSeeds seeds =
      seeds_for_rank(options.parsimony_seed, options.parsimony_seed, rank);
  Lcg start_rng(seeds.parsimony_seed);

  std::string local_best_newick;
  double local_best = -std::numeric_limits<double>::infinity();
  std::vector<double> local_lnls;
  for (int s = 0; s < per_rank; ++s) {
    Tree tree =
        randomized_stepwise_addition(patterns, patterns.weights(), start_rng);
    engine.optimize_cat_rates(tree);
    SprSearch search(engine, options.search);
    search.run(tree);

    // Final scoring under GAMMA with full model re-optimization, so lnLs
    // are comparable across ranks regardless of the CAT search state.
    LikelihoodEngine gamma(patterns, engine.gtr(),
                           RateModel::gamma(options.final_alpha), crew_ptr);
    const double lnl = gamma.optimize_all(tree, 0.02, 5);
    local_lnls.push_back(lnl);
    if (lnl > local_best) {
      local_best = lnl;
      local_best_newick = tree.to_newick(patterns.names());
    }
  }

  MultistartResult result;
  const auto best = comm.allreduce_maxloc(local_best);
  result.best_lnl = best.value;
  result.winner_rank = best.rank;
  result.best_tree_newick = local_best_newick;
  comm.bcast_string(result.best_tree_newick, best.rank);

  const auto gathered = comm.gather_doubles(local_lnls, 0);
  if (rank == 0)
    for (const auto& row : gathered)
      result.all_lnls.insert(result.all_lnls.end(), row.begin(), row.end());
  return result;
}

BootstrapRunResult run_bootstrap_analysis(mpi::Comm& comm,
                                          const PatternAlignment& patterns,
                                          const BootstrapRunOptions& options) {
  RAXH_EXPECTS(options.replicates >= 1);
  const int rank = comm.rank();
  const int nranks = comm.size();
  const int per_rank = ceil_div(options.replicates, nranks);

  Workforce crew(options.num_threads);
  Workforce* crew_ptr = options.num_threads > 1 ? &crew : nullptr;

  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  LikelihoodEngine engine(patterns, gtr,
                          RateModel::cat(patterns.num_patterns()), crew_ptr);

  const RankSeeds seeds =
      seeds_for_rank(options.parsimony_seed, options.bootstrap_seed, rank);
  RapidBootstrap bootstrapper(engine, patterns, seeds.bootstrap_seed,
                              seeds.parsimony_seed);
  const auto replicates = bootstrapper.run(per_rank);

  std::string blob;
  for (const auto& rep : replicates) {
    blob += rep.tree.to_newick(patterns.names());
    blob += '\n';
  }
  const auto gathered = comm.gather_strings(blob, 0);

  BootstrapRunResult result;
  result.total_replicates = per_rank * nranks;
  if (rank == 0) {
    for (const auto& rank_blob : gathered) {
      std::size_t pos = 0;
      while (pos < rank_blob.size()) {
        const std::size_t end = rank_blob.find('\n', pos);
        const std::string line = rank_blob.substr(pos, end - pos);
        if (!line.empty()) result.replicate_newicks.push_back(line);
        if (end == std::string::npos) break;
        pos = end + 1;
      }
    }
    if (options.build_consensus && !result.replicate_newicks.empty()) {
      BipartitionTable table;
      for (const auto& nwk : result.replicate_newicks)
        table.add_tree(Tree::parse_newick(nwk, patterns.names()));
      result.consensus_newick =
          majority_rule_consensus(table, patterns.names());
    }
  }
  return result;
}

AdaptiveBootstrapResult run_adaptive_bootstrap(
    mpi::Comm& comm, const PatternAlignment& patterns,
    const AdaptiveBootstrapOptions& options) {
  RAXH_EXPECTS(options.round_size >= 1);
  RAXH_EXPECTS(options.min_replicates >= 2);
  RAXH_EXPECTS(options.max_replicates >= options.min_replicates);
  const int rank = comm.rank();
  const int nranks = comm.size();
  const int per_rank_cap = ceil_div(options.max_replicates, nranks);

  Workforce crew(options.num_threads);
  Workforce* crew_ptr = options.num_threads > 1 ? &crew : nullptr;

  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  LikelihoodEngine engine(patterns, gtr,
                          RateModel::cat(patterns.num_patterns()), crew_ptr);

  const RankSeeds seeds =
      seeds_for_rank(options.parsimony_seed, options.bootstrap_seed, rank);
  RapidBootstrap bootstrapper(engine, patterns, seeds.bootstrap_seed,
                              seeds.parsimony_seed);
  BootstrapSnapshot snapshot;

  AdaptiveBootstrapResult result;
  int per_rank_done = 0;
  for (;;) {
    ++result.rounds;
    per_rank_done = std::min(per_rank_done + options.round_size, per_rank_cap);
    bootstrapper.run_resumable(per_rank_done, snapshot);

    // Parallel-hash-table round: gather every rank's replicate set; rank 0
    // rebuilds each rank's local BipartitionTable, merges them, and runs the
    // FC convergence test over the merged replicate set.
    std::string blob;
    for (const auto& raw : snapshot.replicate_trees) {
      blob += Tree::import_raw(raw).to_newick(patterns.names());
      blob += '\n';
    }
    const auto gathered = comm.gather_strings(blob, 0);

    int stop = 0;
    double correlation = 0.0;
    int total = per_rank_done * nranks;
    if (rank == 0) {
      std::vector<Tree> trees;
      BipartitionTable merged;
      for (const auto& rank_blob : gathered) {
        BipartitionTable local;
        std::size_t pos = 0;
        while (pos < rank_blob.size()) {
          const std::size_t end = rank_blob.find('\n', pos);
          const std::string line = rank_blob.substr(pos, end - pos);
          if (!line.empty()) {
            trees.push_back(Tree::parse_newick(line, patterns.names()));
            local.add_tree(trees.back());
          }
          if (end == std::string::npos) break;
          pos = end + 1;
        }
        merged.merge(local);
      }
      RAXH_ASSERT(merged.num_trees() == static_cast<int>(trees.size()));
      total = static_cast<int>(trees.size());

      if (total >= options.min_replicates) {
        const BootstopResult fc = frequency_criterion(trees, options.bootstop);
        correlation = fc.mean_correlation;
        if (fc.converged) stop = 1;
      }
      if (per_rank_done >= per_rank_cap) stop = stop == 1 ? 1 : 2;  // cap hit

      if (stop != 0) {
        result.replicate_newicks.clear();
        for (const auto& tree : trees)
          result.replicate_newicks.push_back(
              tree.to_newick(patterns.names()));
      }
    }

    // Broadcast the verdict so every rank takes the same branch.
    mpi::Packer p;
    p.put(stop);
    p.put(correlation);
    p.put(total);
    mpi::Bytes verdict = p.take();
    comm.bcast(verdict, 0);
    mpi::Unpacker u(verdict);
    stop = u.get<int>();
    correlation = u.get<double>();
    total = u.get<int>();

    if (stop != 0) {
      result.converged = stop == 1;
      result.total_replicates = total;
      result.final_correlation = correlation;
      return result;
    }
  }
}

}  // namespace raxh
