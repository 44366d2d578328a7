// Generates a synthetic PHYLIP alignment (and optionally the generating
// tree) for smoke tests and benchmarks, so CI jobs and local runs don't
// have to compile ad-hoc snippets against the libraries.
//
//   raxh_make_alignment -o data.phy [-taxa N] [-distinct N] [-sites N]
//                       [-seed S] [-tree true.tre] [-mean-branch B]
//
// -mean-branch scales the generating tree's branch lengths (default 0.12
// expected substitutions/site). Small values (~0.02) produce low-divergence,
// duplicate-heavy alignments — columns that agree within whole subtrees —
// whose heavy constant patterns stress the crew's pattern split.
//
// A malformed or out-of-range number exits 2 before anything is written.
#include <cstdio>
#include <fstream>
#include <string>

#include "bio/io.h"
#include "bio/seqsim.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  raxh::CliParser cli(argc, argv);
  const std::string out = cli.value_or("o", "");
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: %s -o out.phy [-taxa N] [-distinct N] [-sites N] "
                 "[-seed S] [-tree out.tre] [-mean-branch B]\n",
                 argv[0]);
    return 2;
  }

  long long taxa = 0, distinct = 0, sites = 0, seed = 0;
  double mean_branch = 0.0;
  try {
    taxa = cli.int_or("taxa", 12);
    distinct = cli.int_or("distinct", 400);
    sites = cli.int_or("sites", 600);
    seed = cli.int_or("seed", 42);
    mean_branch = cli.double_or("mean-branch", 0.12);
  } catch (const raxh::CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // The simulator's own preconditions, checked here so that a bad value is
  // a usage error rather than an abort.
  const char* bad = nullptr;
  if (taxa < 3)
    bad = "-taxa must be >= 3";
  else if (distinct < 1)
    bad = "-distinct must be >= 1";
  else if (sites < distinct)
    bad = "-sites must be >= -distinct";
  else if (seed < 0)
    bad = "-seed must be >= 0";
  else if (!(mean_branch > 0.0))
    bad = "-mean-branch must be > 0";
  if (bad != nullptr) {
    std::fprintf(stderr, "error: %s\n", bad);
    return 2;
  }

  raxh::SimConfig cfg;
  cfg.taxa = static_cast<std::size_t>(taxa);
  cfg.distinct_sites = static_cast<std::size_t>(distinct);
  cfg.total_sites = static_cast<std::size_t>(sites);
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.mean_branch_length = mean_branch;

  const auto sim = raxh::simulate_alignment(cfg);
  raxh::write_phylip_file(out, sim.alignment);

  const std::string tree_out = cli.value_or("tree", "");
  if (!tree_out.empty()) std::ofstream(tree_out) << sim.true_tree_newick << '\n';

  std::printf("wrote %s: %zu taxa, %zu sites (%zu distinct), seed %llu\n",
              out.c_str(), cfg.taxa, cfg.total_sites, cfg.distinct_sites,
              static_cast<unsigned long long>(cfg.seed));
  return 0;
}
