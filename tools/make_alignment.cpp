// Generates a synthetic PHYLIP alignment (and optionally the generating
// tree) for smoke tests and benchmarks, so CI jobs and local runs don't
// have to compile ad-hoc snippets against the libraries.
//
//   raxh_make_alignment -o data.phy -taxa 12 -seed 42 -tree true.tre
//
// -mean-branch scales the generating tree's branch lengths (default 0.12
// expected substitutions/site). Small values (~0.02) produce low-divergence,
// duplicate-heavy alignments — columns that agree within whole subtrees —
// whose heavy constant patterns stress the crew's pattern split.
//
// `raxh_make_alignment --help` prints the flags. A malformed or
// out-of-range number exits 2 before anything is written.
#include <cstdio>
#include <fstream>
#include <string>

#include "bio/io.h"
#include "bio/seqsim.h"
#include "util/cli.h"

namespace {

using raxh::Flag;

constexpr Flag kFlags[] = {
    Flag::text("o", nullptr, "output PHYLIP file (required)"),
    Flag::integer("taxa", "12", 3, "taxa"),
    Flag::integer("distinct", "400", 1, "distinct site columns"),
    Flag::integer("sites", "600", 1, "total sites (>= -distinct)"),
    Flag::integer("seed", "42", 0, "simulation seed", raxh::kNoMaximum),
    Flag::text("tree", nullptr, "also write the generating tree here"),
    Flag::real("mean-branch", "0.12", "mean branch length (> 0)"),
};

constexpr raxh::CliSpec kCli{"-o FILE [flags]", kFlags};

}  // namespace

int main(int argc, char** argv) {
  const raxh::Cli cli = raxh::Cli::parse_or_exit(kCli, argc, argv);
  if (!cli.has("o")) cli.fail("-o <out.phy> is required");
  const long long distinct = cli.integer("distinct");
  const long long sites = cli.integer("sites");
  const double mean_branch = cli.real("mean-branch");
  // The simulator's preconditions the table cannot state, checked here so
  // that a bad value is a usage error rather than an abort.
  if (sites < distinct) cli.fail("-sites must be >= -distinct");
  if (!(mean_branch > 0.0)) cli.fail("-mean-branch must be > 0");

  raxh::SimConfig cfg;
  cfg.taxa = static_cast<std::size_t>(cli.integer("taxa"));
  cfg.distinct_sites = static_cast<std::size_t>(distinct);
  cfg.total_sites = static_cast<std::size_t>(sites);
  cfg.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  cfg.mean_branch_length = mean_branch;

  const auto sim = raxh::simulate_alignment(cfg);
  const std::string& out = cli.text("o");
  raxh::write_phylip_file(out, sim.alignment);
  if (cli.has("tree"))
    std::ofstream(cli.text("tree")) << sim.true_tree_newick << '\n';

  std::printf("wrote %s: %zu taxa, %zu sites (%zu distinct), seed %llu\n",
              out.c_str(), cfg.taxa, cfg.total_sites, cfg.distinct_sites,
              static_cast<unsigned long long>(cfg.seed));
  return 0;
}
