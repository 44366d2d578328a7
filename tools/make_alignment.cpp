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
#include <cstdio>
#include <cstdlib>
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

  raxh::SimConfig cfg;
  cfg.taxa = static_cast<std::size_t>(
      std::strtoul(cli.value_or("taxa", "12").c_str(), nullptr, 10));
  cfg.distinct_sites = static_cast<std::size_t>(
      std::strtoul(cli.value_or("distinct", "400").c_str(), nullptr, 10));
  cfg.total_sites = static_cast<std::size_t>(
      std::strtoul(cli.value_or("sites", "600").c_str(), nullptr, 10));
  cfg.seed = std::strtoull(cli.value_or("seed", "42").c_str(), nullptr, 10);
  cfg.mean_branch_length =
      std::strtod(cli.value_or("mean-branch", "0.12").c_str(), nullptr);
  if (!(cfg.mean_branch_length > 0.0)) {
    std::fprintf(stderr, "error: -mean-branch must be > 0\n");
    return 2;
  }

  const auto sim = raxh::simulate_alignment(cfg);
  raxh::write_phylip_file(out, sim.alignment);

  const std::string tree_out = cli.value_or("tree", "");
  if (!tree_out.empty()) std::ofstream(tree_out) << sim.true_tree_newick << '\n';

  std::printf("wrote %s: %zu taxa, %zu sites (%zu distinct), seed %llu\n",
              out.c_str(), cfg.taxa, cfg.total_sites, cfg.distinct_sites,
              static_cast<unsigned long long>(cfg.seed));
  return 0;
}
