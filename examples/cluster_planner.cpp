// Cluster run planner: the paper's §5/§7 guidance as a tool. Given a data
// set's dimensions, a machine, a core budget and a bootstrap count, predict
// the best (processes x threads) split, the stage breakdown, and whether the
// run clears the paper's cost-effectiveness rule of thumb (parallel
// efficiency >= 1/2 — against a core or against a node, §7).
//
//   ./cluster_planner -taxa 218 -patterns 1846 -machine Dash -cores 80 -N 100
//
// `cluster_planner --help` lists the flags and their defaults.
#include <cstdio>
#include <string>

#include "core/autotune.h"
#include "simsched/sweeps.h"
#include "util/cli.h"

namespace {

using raxh::Flag;

constexpr Flag kFlags[] = {
    Flag::integer("taxa", "218", 4, "taxa in the data set"),
    Flag::integer("patterns", "1846", 1, "distinct alignment patterns"),
    Flag::integer("cores", "80", 1, "core budget"),
    Flag::integer("N", "100", 1, "bootstraps"),
    Flag::choice("machine", "Abe|Dash|Ranger|Triton PDAF", "Dash",
                 "one of the paper's machines"),
};

constexpr raxh::CliSpec kCli{"[flags]", kFlags};

}  // namespace

int main(int argc, char** argv) {
  using namespace raxh;
  using namespace raxh::sim;
  const Cli cli = Cli::parse_or_exit(kCli, argc, argv);

  DataShape shape;
  shape.taxa = static_cast<std::size_t>(cli.integer("taxa"));
  shape.patterns = static_cast<std::size_t>(cli.integer("patterns"));
  const int cores = static_cast<int>(cli.integer("cores"));
  const int bootstraps = static_cast<int>(cli.integer("N"));
  const std::string& machine_name = cli.text("machine");

  const Machine& machine = machine_by_name(machine_name);
  PerfModel model(machine, shape);

  std::printf("planning: %zu taxa x %zu patterns, %d bootstraps on %s "
              "(%d cores/node), %d cores\n\n",
              shape.taxa, shape.patterns, bootstraps, machine.name.c_str(),
              machine.cores_per_node, cores);

  // Model-optimal split and the heuristic suggestion.
  const BestRun best = best_run(model, cores, bootstraps);
  const HybridShape heuristic = suggest_shape(
      shape.patterns, cores, machine.cores_per_node, bootstraps);
  std::printf("model-optimal split:  %2d processes x %2d threads\n",
              best.config.processes, best.config.threads);
  std::printf("heuristic suggestion: %2d processes x %2d threads "
              "(core/autotune.h)\n\n",
              heuristic.processes, heuristic.threads);

  const auto breakdown = model.run_breakdown(best.config);
  std::printf("predicted times (s):  serial %.0f  ->  hybrid %.0f  "
              "(speedup %.1f)\n",
              model.serial_time(bootstraps), best.seconds, best.speedup);
  std::printf("  stage breakdown: bootstrap %.0f | fast %.0f | slow %.0f | "
              "thorough %.0f\n",
              breakdown.bootstrap, breakdown.fast, breakdown.slow,
              breakdown.thorough);

  // Paper §7: cost-effectiveness rule of thumb.
  const double eff_core = best.efficiency;
  const BestRun node_run =
      best_run(model, machine.cores_per_node, bootstraps);
  const double eff_node =
      node_run.seconds / best.seconds /
      (static_cast<double>(cores) / machine.cores_per_node);
  std::printf("\nparallel efficiency: %.2f vs 1 core, %.2f vs 1 node\n",
              eff_core, eff_node);
  if (eff_core >= 0.5) {
    std::printf("verdict: cost effective even against a single core\n");
  } else if (eff_node >= 0.5) {
    std::printf("verdict: cost effective when charged per node (the common "
                "charging model, paper 7)\n");
  } else {
    std::printf("verdict: NOT cost effective; use fewer cores\n");
  }
  return 0;
}
