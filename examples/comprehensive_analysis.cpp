// The flagship example: a RAxML-style command line driving the full hybrid
// comprehensive analysis ("-f a") — rapid bootstraps, fast/slow/thorough ML
// searches — over REAL forked processes (the coarse-grained level) each with
// its own thread crew (the fine-grained level).
//
//   ./comprehensive_analysis -s data.phy -N 100 -p 12345 -x 12345 -np 4 -T 2
//
// `comprehensive_analysis --help` lists the flags (RAxML's spellings) and
// their demo defaults; without -s it simulates a 20-taxon demo alignment.
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

namespace {

using raxh::Flag;

constexpr Flag kFlags[] = {
    Flag::text("s", nullptr, "PHYLIP alignment [a simulated demo]"),
    Flag::integer("N", "20", 1, "bootstraps"),
    Flag::integer("p", "12345", 1, "parsimony seed", raxh::kNoMaximum),
    Flag::integer("x", "12345", 1, "rapid-bootstrap seed",
                  raxh::kNoMaximum),
    Flag::integer("np", "2", 1, "MPI-style process count (forked ranks)"),
    Flag::integer("T", "1", 1, "threads per process"),
    Flag::text("o", "comprehensive", "output basename"),
};

constexpr raxh::CliSpec kCli{"[flags]", kFlags};

}  // namespace

int main(int argc, char** argv) {
  using namespace raxh;
  const Cli cli = Cli::parse_or_exit(kCli, argc, argv);

  HybridOptions options;
  options.analysis.specified_bootstraps = static_cast<int>(cli.integer("N"));
  options.analysis.parsimony_seed = cli.integer("p");
  options.analysis.bootstrap_seed = cli.integer("x");
  options.analysis.num_threads = static_cast<int>(cli.integer("T"));
  const int processes = static_cast<int>(cli.integer("np"));
  options.compute_support = true;
  options.run_bootstopping = true;
  const std::string& base = cli.text("o");

  Alignment alignment = [&] {
    if (cli.has("s")) {
      std::printf("reading %s\n", cli.text("s").c_str());
      return read_phylip_file(cli.text("s"));
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
