// The flagship example: a RAxML-style command line driving the full hybrid
// comprehensive analysis ("-f a") — rapid bootstraps, fast/slow/thorough ML
// searches — over REAL forked processes (the coarse-grained level) each with
// its own thread crew (the fine-grained level).
//
//   ./comprehensive_analysis -s data.phy -N 100 -p 12345 -x 12345 -np 4 -T 2
//
// Options (RAxML-compatible where meaningful):
//   -s <file>   PHYLIP alignment (simulated demo data if omitted)
//   -N <int>    bootstraps (default 20 for the demo)
//   -p <seed>   parsimony seed        -x <seed>  rapid-bootstrap seed
//   -np <int>   MPI-style process count (forked ranks, default 2)
//   -T <int>    threads per process (default 1)
//   -o <base>   output basename (default "comprehensive")
#include <cstdio>
#include <fstream>
#include <string>

#include "bio/io.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/hybrid.h"
#include "minimpi/comm.h"
#include "util/cli.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace raxh;
  const CliParser cli(argc, argv);

  // Numbers first: a malformed one is a usage error before any work starts.
  HybridOptions options;
  int processes = 0;
  try {
    options.analysis.specified_bootstraps =
        static_cast<int>(cli.int_or("N", 20));
    options.analysis.parsimony_seed = cli.int_or("p", 12345);
    options.analysis.bootstrap_seed = cli.int_or("x", 12345);
    options.analysis.num_threads = static_cast<int>(cli.int_or("T", 1));
    processes = static_cast<int>(cli.int_or("np", 2));
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  options.compute_support = true;
  options.run_bootstopping = true;
  const std::string base = cli.value_or("o", "comprehensive");

  Alignment alignment = [&] {
    if (auto path = cli.value("s")) {
      std::printf("reading %s\n", path->c_str());
      return read_phylip_file(*path);
    }
    std::printf("no -s given; simulating a 20-taxon demo alignment\n");
    SimConfig cfg;
    cfg.taxa = 20;
    cfg.distinct_sites = 250;
    cfg.total_sites = 350;
    cfg.seed = 7;
    return simulate_alignment(cfg).alignment;
  }();
  const auto patterns = PatternAlignment::compress(alignment);

  const auto schedule =
      make_schedule(options.analysis.specified_bootstraps, processes);
  std::printf(
      "comprehensive analysis: %zu taxa, %zu patterns | %d processes x %d "
      "threads\nper rank: %d bootstraps, %d fast, %d slow, 1 thorough "
      "(totals: %d/%d/%d/%d)\n",
      patterns.num_taxa(), patterns.num_patterns(), processes,
      options.analysis.num_threads, schedule.per_rank.bootstraps,
      schedule.per_rank.fast_searches, schedule.per_rank.slow_searches,
      schedule.totals().bootstraps, schedule.totals().fast_searches,
      schedule.totals().slow_searches, schedule.totals().thorough_searches);

  WallTimer wall;
  // Forked ranks: each child runs its share and the collectives pick the
  // winner; rank 0 (this process) reports.
  mpi::run_process_ranks(processes, [&](mpi::Comm& comm) {
    const HybridResult result =
        run_hybrid_comprehensive({}, comm, patterns, options);
    if (comm.rank() != 0) return;

    std::printf("\nwinner: rank %d with final GAMMA lnL %.4f\n",
                result.winner_rank, result.best_lnl);
    std::printf("per-rank final lnL:");
    for (double lnl : result.rank_lnls) std::printf(" %.4f", lnl);
    std::printf("\nstage times (s) per rank [bootstrap/fast/slow/thorough]:\n");
    for (std::size_t r = 0; r < result.rank_times.size(); ++r) {
      const auto& t = result.rank_times[r];
      std::printf("  rank %zu: %.2f / %.2f / %.2f / %.2f\n", r, t.bootstrap,
                  t.fast, t.slow, t.thorough);
    }
    if (result.bootstop.mean_correlation != 0.0) {
      std::printf("bootstopping (FC): mean corr %.4f -> %s after %d "
                  "replicates\n",
                  result.bootstop.mean_correlation,
                  result.bootstop.converged ? "converged" : "not converged",
                  result.total_bootstrap_trees);
    }

    std::ofstream(base + "_bestTree.tre") << result.best_tree_newick << '\n';
    std::ofstream(base + "_bipartitions.tre")
        << result.support_tree_newick << '\n';
    std::printf("wrote %s_bestTree.tre and %s_bipartitions.tre (support "
                "values from %d bootstrap trees)\n",
                base.c_str(), base.c_str(), result.total_bootstrap_trees);
  });
  std::printf("total wall time: %.2f s\n", wall.seconds());
  return 0;
}
