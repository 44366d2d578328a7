// raxh — the command-line front end, mirroring RAxML's main modes:
//
//   -f a   comprehensive analysis: rapid bootstraps + full ML search (default)
//   -f d   multi-start ML searches from randomized stepwise-addition trees
//   -f b   bootstrap-only run (replicates + majority-rule consensus)
//   -f x   adaptive bootstrap: rounds of replicates until the FC
//          bootstopping test converges (-N caps the total)
//   -f e   evaluate/optimize a fixed topology (-t tree file required)
//
// Common options:
//   -s <file>    PHYLIP alignment (required)
//   -q <file>    partition scheme (only with -f e for now; see examples)
//   -n <name>    output basename                      [raxh]
//   -N <int>     bootstraps / searches                [100 / 10]
//   -p <seed>    parsimony seed                       [12345]
//   -x <seed>    rapid-bootstrap seed                 [12345]
//   -np <int>    coarse-grained ranks (forked)        [1]
//   -T <int>     fine-grained threads per rank        [1]
//   -t <file>    input tree (for -f e)
//   -m <model>   GTRCAT | GTRGAMMA (search model)     [GTRCAT-style default]
//   --kernels=NAME  likelihood kernel family member: auto (default; best
//                   CPUID-supported member) | scalar | generic | neon |
//                   avx512. RAXH_KERNELS supplies the default value; an
//                   unknown or unrunnable member exits 2 either way.
//
// minimpi runtime (src/minimpi/): forked ranks talk over a full mesh of
// Unix socketpairs, and Barrier/Bcast/Allreduce/Gather route along binomial
// trees (latency grows with log ranks). Neither is configurable.
//
// Observability (src/obs/):
//   --trace-out=FILE      merged Chrome trace_event JSON (all ranks/threads;
//                         load in chrome://tracing or ui.perfetto.dev)
//   --metrics-out=FILE    per-rank counter/phase/latency-histogram/comm
//                         metrics JSON array
//   --report-components   print the Figs. 3/4-style per-rank component
//                         breakdown (stage wall times) after the run
//   --heartbeat-out=DIR   live telemetry (-f a): each rank appends ndjson
//                         heartbeats to DIR/rank<r>.ndjson while it runs;
//                         rank 0 tails the directory and logs a one-line
//                         status with ETA and straggler flags
//   --straggler-factor=X  flag a rank when its progress rate lags the
//                         median by more than X (default 2.0)
//   --log-level=LVL       error | warn | info | debug       [info]
//
// Flight recorder (always on; src/obs/flight.*):
//   --blackbox=off        disable the in-memory flight recorder
//   --blackbox-dir=DIR    where crash/failure black boxes land
//                         [<name>_blackbox]
//   --blackbox-dump       also dump every rank's black box at the end of a
//                         successful run (for offline raxh_blackbox analysis)
// Fatal signals (SIGSEGV/SIGBUS/SIGABRT), std::terminate, injected rank
// deaths, and peer-failure detection all dump DIR/rank<r>.blackbox
// automatically; decode with tools/raxh_blackbox.
//
// Fault tolerance (-f a only):
//   --fault-tolerant      survive rank death: rank 0 detects dead peers and
//                         re-grants their logical work shares to survivors;
//                         the result is bit-identical to a fault-free run
//   --checkpoint-dir=DIR  persist per-logical-rank bootstrap checkpoints to
//                         DIR and resume from them (restart or re-grant)
//   --fault-plan=SPEC     deterministic fault injection for testing, e.g.
//                         "die@1,7;torn@2,12;delay@0,3,15" (kind@rank,op[,ms];
//                         also read from RAXH_FAULT_PLAN). Implies
//                         --fault-tolerant.
//
// Telemetry output paths are validated (and directories created) at startup
// so a long run cannot silently lose its telemetry at the end.
//
// Removed flags (--repeats, -simd, --collectives, --transport, --connect) and
// malformed numeric values (-N abc) exit 2 with an error naming the flag.
//
// Exit status 0 on success; messages go to stdout, errors to stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "bio/io.h"
#include "bio/patterns.h"
#include "likelihood/kernels.h"
#include "core/analyses.h"
#include "core/evaluate_mode.h"
#include "core/hybrid.h"
#include "minimpi/comm.h"
#include "minimpi/fault.h"
#include "obs/comm_obs.h"
#include "obs/flight.h"
#include "obs/live.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "tree/consensus.h"
#include "util/cli.h"
#include "util/fscheck.h"
#include "util/log.h"
#include "util/timer.h"

namespace {

using namespace raxh;

void usage(const char* prog) {
  std::printf(
      "usage: %s -s alignment.phy [-f a|d|b|e] [-N n] [-p seed] [-x seed]\n"
      "          [-np ranks] [-T threads] [-n name] [-t tree] [-m model]\n"
      "          [--trace-out=FILE] [--metrics-out=FILE] "
      "[--report-components]\n"
      "          [--heartbeat-out=DIR] [--straggler-factor=X]\n"
      "          [--fault-tolerant] [--checkpoint-dir=DIR] "
      "[--fault-plan=SPEC]\n"
      "          [--log-level=error|warn|info|debug] [--blackbox=off]\n"
      "          [--blackbox-dir=DIR] [--blackbox-dump]\n"
      "          [--kernels=auto|scalar|generic|neon|avx512]\n"
      "modes: a=comprehensive (default), d=multi-start ML, b=bootstrap only,\n"
      "       x=adaptive bootstrap (FC bootstopping), e=evaluate topology\n",
      prog);
}

// --- removed flags: each exits 2 instead of being silently ignored ---

struct RemovedFlag {
  const char* flag;  // as CliParser stores it (leading dash stripped)
  const char* message;
};

constexpr RemovedFlag kRemovedFlags[] = {
    {"-repeats", "--repeats: site repeats were removed"},
    {"simd",
     "-simd was removed; use --kernels=scalar to run the scalar reference"},
    {"-collectives",
     "--collectives was removed; collectives always route along binomial "
     "trees"},
    {"-transport",
     "--transport was removed; forked ranks always talk over the socketpair "
     "mesh"},
    {"-connect",
     "--connect was removed; use raxhd_client submit --wait, then "
     "raxhd_client result"},
};

// --- kernel family member (--kernels=NAME, default $RAXH_KERNELS) ---

bool kernels_from_cli(const CliParser& cli) {
  const char* source = "--kernels";
  std::string name;
  if (cli.has("-kernels")) {
    name = cli.value_or("-kernels", "");
  } else if (const char* env = std::getenv("RAXH_KERNELS");
             env != nullptr && *env != '\0') {
    source = "RAXH_KERNELS";
    name = env;
  } else {
    return true;  // CPUID pick
  }
  kern::KernelIsa isa{};
  if (!kern::parse_kernel_isa(name, &isa)) {
    std::fprintf(stderr, "error: %s=%s: expected auto or one of: %s\n",
                 source, name.c_str(), kern::kernel_isa_list().c_str());
    return false;
  }
  if (!kern::set_kernel_isa(isa)) {
    std::fprintf(stderr,
                 "error: %s=%s is not supported on this machine "
                 "(available: %s)\n",
                 source, name.c_str(), kern::kernel_isa_list().c_str());
    return false;
  }
  return true;
}

// --- observability flags (--trace-out / --metrics-out / --report-components
//     / --heartbeat-out / --straggler-factor)

struct ObsOptions {
  std::string trace_out;
  std::string metrics_out;
  std::string heartbeat_out;
  double straggler_factor = 2.0;
  bool report_components = false;

  [[nodiscard]] bool any() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !heartbeat_out.empty() || report_components;
  }
};

ObsOptions obs_from_cli(const CliParser& cli) {
  ObsOptions o;
  o.trace_out = cli.value_or("-trace-out", "");
  o.metrics_out = cli.value_or("-metrics-out", "");
  o.heartbeat_out = cli.value_or("-heartbeat-out", "");
  o.straggler_factor = cli.double_or("-straggler-factor", o.straggler_factor);
  o.report_components = cli.has("-report-components");
  return o;
}

bool validate_obs_paths(const ObsOptions& o) {
  // util/fscheck.h probes: paths must prove writable before any work starts.
  const std::pair<const char*, const std::string*> files[] = {
      {"--trace-out", &o.trace_out}, {"--metrics-out", &o.metrics_out}};
  for (const auto& [flag, path] : files) {
    if (path->empty()) continue;
    if (!file_path_writable(*path)) {
      std::fprintf(stderr, "error: %s=%s: directory is not writable\n", flag,
                   path->c_str());
      return false;
    }
  }
  if (!o.heartbeat_out.empty() && !dir_accepts_files(o.heartbeat_out)) {
    std::fprintf(stderr,
                 "error: --heartbeat-out=%s: cannot create or write the "
                 "heartbeat directory\n",
                 o.heartbeat_out.c_str());
    return false;
  }
  if (o.straggler_factor <= 1.0) {
    std::fprintf(stderr,
                 "error: --straggler-factor must be > 1.0 (got %g)\n",
                 o.straggler_factor);
    return false;
  }
  return true;
}

// --blackbox-dump: persist every rank's flight ring at the end of a clean
// run so raxh_blackbox can analyze fault-free runs too. Called inside the
// per-rank lambda, before the telemetry merge.
void end_of_run_dump(const CliParser& cli, int rank) {
  if (cli.has("-blackbox-dump"))
    obs::flight::dump_now(rank, "end of run");
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// Collective: merges every rank's observability output on rank 0. Metric and
// phase snapshots are taken before the gathers so the export's own comm
// traffic does not pollute the reported numbers.
void finalize_obs(mpi::Comm& comm, const ObsOptions& options) {
  if (!options.any()) return;
  std::string metrics;
  if (!options.metrics_out.empty())
    metrics = obs::export_metrics_fragment(
        comm.rank(), comm.stats().to_json() + "," +
                         obs::comm::to_json_section(comm.rank()) + "," +
                         kern::to_json_section());
  const std::string phases = options.report_components
                                 ? obs::serialize_phases(obs::run_phases())
                                 : std::string();

  if (!options.trace_out.empty()) {
    const auto fragments =
        comm.gather_strings(obs::export_trace_fragment(comm.rank()), 0);
    if (comm.rank() == 0 &&
        write_text_file(options.trace_out,
                        obs::merge_trace_fragments(fragments))) {
      std::printf("wrote trace to %s (open in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  options.trace_out.c_str());
    }
  }
  if (!options.metrics_out.empty()) {
    const auto fragments = comm.gather_strings(metrics, 0);
    if (comm.rank() == 0 &&
        write_text_file(options.metrics_out,
                        obs::merge_metrics_fragments(fragments))) {
      std::printf("wrote metrics to %s\n", options.metrics_out.c_str());
    }
  }
  if (options.report_components) {
    const auto fragments = comm.gather_strings(phases, 0);
    if (comm.rank() == 0) {
      std::vector<std::vector<std::pair<std::string, double>>> rows;
      std::vector<std::string> labels;
      for (std::size_t r = 0; r < fragments.size(); ++r) {
        rows.push_back(obs::deserialize_phases(fragments[r]));
        labels.push_back(std::to_string(r));
      }
      std::printf("\ncomponent breakdown (seconds):\n%s",
                  obs::format_component_table(rows, labels, "rank").c_str());
    }
  }
}

int run_comprehensive(const PatternAlignment& patterns, const CliParser& cli) {
  HybridOptions options;
  options.analysis.specified_bootstraps =
      static_cast<int>(cli.int_or("N", 100));
  options.analysis.parsimony_seed = cli.int_or("p", 12345);
  options.analysis.bootstrap_seed = cli.int_or("x", 12345);
  options.analysis.num_threads = static_cast<int>(cli.int_or("T", 1));
  options.compute_support = true;
  options.run_bootstopping = true;
  options.analysis.checkpoint_dir = cli.value_or("-checkpoint-dir", "");
  options.fault_tolerant = cli.has("-fault-tolerant");
  const int ranks = static_cast<int>(cli.int_or("np", 1));
  const std::string name = cli.value_or("n", "raxh");

  // Fault injection (testing): --fault-plan wins over RAXH_FAULT_PLAN. A
  // plan with lethal actions and no recovery would just crash the job, so
  // lethal plans imply --fault-tolerant. Delay-only plans stay on the
  // regular collective driver: they model slow edges, not rank death, and
  // the tree collectives they slow down are what raxh_comm and the
  // kCollEdge postmortem attribute.
  std::string plan_spec = cli.value_or("-fault-plan", "");
  if (plan_spec.empty())
    if (const char* env = std::getenv("RAXH_FAULT_PLAN")) plan_spec = env;
  mpi::FaultPlan plan;
  if (!plan_spec.empty()) {
    try {
      plan = mpi::FaultPlan::parse(plan_spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: bad fault plan: %s\n", e.what());
      return 1;
    }
    for (const mpi::FaultAction& action : plan.actions)
      if (action.lethal()) options.fault_tolerant = true;
    std::printf("fault plan active: %s\n", plan.to_spec().c_str());
  }
  if (!options.analysis.checkpoint_dir.empty() &&
      !dir_accepts_files(options.analysis.checkpoint_dir)) {
    std::fprintf(stderr,
                 "error: --checkpoint-dir=%s: cannot create or write the "
                 "checkpoint directory\n",
                 options.analysis.checkpoint_dir.c_str());
    return 1;
  }

  const ObsOptions obs_opts = obs_from_cli(cli);
  WallTimer wall;
  mpi::run_process_ranks(ranks, [&](mpi::Comm& inner_comm) {
    // With a fault plan, every rank talks through the injecting decorator;
    // its op counter drives the plan deterministically on both backends.
    std::unique_ptr<mpi::FaultyComm> faulty;
    if (!plan.empty())
      faulty = std::make_unique<mpi::FaultyComm>(inner_comm, plan);
    mpi::Comm& comm = faulty ? *faulty : inner_comm;
    // Live telemetry threads must be born after the fork (forked ranks share
    // no address space, and threads do not survive fork): one heartbeat
    // writer per rank, plus the tailing aggregator on rank 0.
    std::unique_ptr<obs::HeartbeatWriter> heartbeat;
    std::unique_ptr<obs::HeartbeatAggregator> aggregator;
    if (!obs_opts.heartbeat_out.empty()) {
      obs::HeartbeatOptions hb;
      hb.dir = obs_opts.heartbeat_out;
      hb.rank = comm.rank();
      heartbeat = std::make_unique<obs::HeartbeatWriter>(hb);
      if (comm.rank() == 0) {
        obs::AggregatorOptions agg;
        agg.dir = obs_opts.heartbeat_out;
        agg.nranks = comm.size();
        agg.straggler_factor = obs_opts.straggler_factor;
        aggregator = std::make_unique<obs::HeartbeatAggregator>(agg);
      }
    }
    const auto result = run_hybrid_comprehensive({}, comm, patterns, options);
    // Flush the final "done" beat before the aggregator's closing scan.
    if (heartbeat) heartbeat->stop();
    if (aggregator) aggregator->stop();
    if (comm.rank() == 0) {
      if (!result.failed_ranks.empty()) {
        std::printf("survived %zu rank failure(s):",
                    result.failed_ranks.size());
        for (const int r : result.failed_ranks) std::printf(" %d", r);
        std::printf(" (work re-granted; result identical to fault-free)\n");
      }
      if (result.resumed_replicates > 0)
        std::printf("resumed %d bootstrap replicate(s) from checkpoints\n",
                    result.resumed_replicates);
      std::printf("winner: rank %d, final GAMMA lnL %.6f\n",
                  result.winner_rank, result.best_lnl);
      std::ofstream(name + "_bestTree.tre") << result.best_tree_newick << '\n';
      std::ofstream(name + "_bipartitions.tre")
          << result.support_tree_newick << '\n';
      std::printf(
          "wrote %s_bestTree.tre, %s_bipartitions.tre (%d replicates)\n",
          name.c_str(), name.c_str(), result.total_bootstrap_trees);
      if (result.bootstop.mean_correlation != 0.0)
        std::printf("bootstopping (FC): %s (mean corr %.4f)\n",
                    result.bootstop.converged ? "converged" : "not converged",
                    result.bootstop.mean_correlation);
    }
    end_of_run_dump(cli, comm.rank());
    // The telemetry merge is built on full collectives; with dead ranks in
    // the communicator it cannot complete, so skip it rather than hang.
    // `failed_ranks` came from the FINISH message, so live ranks agree.
    if (result.failed_ranks.empty()) {
      finalize_obs(comm, obs_opts);
    } else if (comm.rank() == 0 && obs_opts.any()) {
      std::printf("skipping telemetry merge (rank failures occurred)\n");
    }
  });
  std::printf("wall time: %.2f s\n", wall.seconds());
  return 0;
}

int run_multistart(const PatternAlignment& patterns, const CliParser& cli) {
  MultistartOptions options;
  options.searches = static_cast<int>(cli.int_or("N", 10));
  options.parsimony_seed = cli.int_or("p", 12345);
  options.num_threads = static_cast<int>(cli.int_or("T", 1));
  const int ranks = static_cast<int>(cli.int_or("np", 1));
  const std::string name = cli.value_or("n", "raxh");

  const ObsOptions obs_opts = obs_from_cli(cli);
  mpi::run_process_ranks(ranks, [&](mpi::Comm& comm) {
    const auto result = [&] {
      obs::ScopedPhase phase("search");
      return run_multistart_ml(comm, patterns, options);
    }();
    if (comm.rank() == 0) {
      std::printf("best of %d searches: lnL %.6f (rank %d)\n",
                  options.searches, result.best_lnl, result.winner_rank);
      std::printf("all searches:");
      for (double l : result.all_lnls) std::printf(" %.4f", l);
      std::printf("\n");
      std::ofstream(name + "_bestTree.tre") << result.best_tree_newick << '\n';
      std::printf("wrote %s_bestTree.tre\n", name.c_str());
    }
    end_of_run_dump(cli, comm.rank());
    finalize_obs(comm, obs_opts);
  });
  return 0;
}

int run_bootstrap_only(const PatternAlignment& patterns, const CliParser& cli) {
  BootstrapRunOptions options;
  options.replicates = static_cast<int>(cli.int_or("N", 100));
  options.parsimony_seed = cli.int_or("p", 12345);
  options.bootstrap_seed = cli.int_or("x", 12345);
  options.num_threads = static_cast<int>(cli.int_or("T", 1));
  const int ranks = static_cast<int>(cli.int_or("np", 1));
  const std::string name = cli.value_or("n", "raxh");

  const ObsOptions obs_opts = obs_from_cli(cli);
  mpi::run_process_ranks(ranks, [&](mpi::Comm& comm) {
    const auto result = [&] {
      obs::ScopedPhase phase("replicates");
      return run_bootstrap_analysis(comm, patterns, options);
    }();
    if (comm.rank() == 0) {
      std::ofstream trees(name + "_bootstrap.tre");
      for (const auto& nwk : result.replicate_newicks) trees << nwk << '\n';
      std::ofstream(name + "_consensus.tre") << result.consensus_newick
                                             << '\n';
      std::printf("wrote %zu replicates to %s_bootstrap.tre and the "
                  "majority-rule consensus to %s_consensus.tre\n",
                  result.replicate_newicks.size(), name.c_str(), name.c_str());
    }
    end_of_run_dump(cli, comm.rank());
    finalize_obs(comm, obs_opts);
  });
  return 0;
}

int run_adaptive(const PatternAlignment& patterns, const CliParser& cli) {
  AdaptiveBootstrapOptions options;
  options.max_replicates = std::max(2, static_cast<int>(cli.int_or("N", 200)));
  options.min_replicates = std::min(options.min_replicates,
                                    options.max_replicates);
  options.parsimony_seed = cli.int_or("p", 12345);
  options.bootstrap_seed = cli.int_or("x", 12345);
  options.num_threads = static_cast<int>(cli.int_or("T", 1));
  const int ranks = static_cast<int>(cli.int_or("np", 1));
  const std::string name = cli.value_or("n", "raxh");

  const ObsOptions obs_opts = obs_from_cli(cli);
  mpi::run_process_ranks(ranks, [&](mpi::Comm& comm) {
    const auto result = [&] {
      obs::ScopedPhase phase("replicates");
      return run_adaptive_bootstrap(comm, patterns, options);
    }();
    if (comm.rank() == 0) {
      std::printf("%s after %d replicates (%d rounds, mean FC correlation "
                  "%.4f)\n",
                  result.converged ? "bootstopping CONVERGED"
                                   : "cap reached without convergence",
                  result.total_replicates, result.rounds,
                  result.final_correlation);
      std::ofstream trees(name + "_bootstrap.tre");
      for (const auto& nwk : result.replicate_newicks) trees << nwk << '\n';
      std::printf("wrote %zu replicates to %s_bootstrap.tre\n",
                  result.replicate_newicks.size(), name.c_str());
    }
    end_of_run_dump(cli, comm.rank());
    finalize_obs(comm, obs_opts);
  });
  return 0;
}

int run_evaluate(const PatternAlignment& patterns, const CliParser& cli) {
  // Also dumps per-site log likelihoods (<name>_sitelh.txt), RAxML's "-f g"
  // style sitewise output, expanded from patterns to original site order.
  const auto tree_path = cli.value("t");
  if (!tree_path) {
    std::fprintf(stderr, "error: -f e requires -t <treefile>\n");
    return 2;
  }
  std::ifstream in(*tree_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", tree_path->c_str());
    return 2;
  }
  std::string newick((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

  EvaluateOptions options;
  options.use_gamma = cli.value_or("m", "GTRGAMMA") != "GTRCAT";
  options.num_threads = static_cast<int>(cli.int_or("T", 1));
  const auto result = [&] {
    obs::ScopedPhase phase("evaluate");
    return evaluate_fixed_topology(patterns, newick, options);
  }();
  std::printf("lnL %.6f", result.lnl);
  if (options.use_gamma) std::printf("  alpha %.4f", result.alpha);
  std::printf("\nGTR rates (AC AG AT CG CT GT):");
  for (double r : result.gtr_rates) std::printf(" %.4f", r);
  std::printf("\nbase frequencies:");
  for (double f : result.frequencies) std::printf(" %.4f", f);
  std::printf("\n");
  const std::string name = cli.value_or("n", "raxh");
  std::ofstream(name + "_evaluated.tre")
      << result.optimized_tree_newick << '\n';
  {
    std::ofstream sitelh(name + "_sitelh.txt");
    sitelh.precision(10);
    const auto s2p = patterns.site_to_pattern();
    for (std::size_t site = 0; site < s2p.size(); ++site)
      sitelh << site + 1 << ' ' << result.per_pattern_lnl[s2p[site]] << '\n';
  }
  std::printf("wrote %s_evaluated.tre and %s_sitelh.txt\n", name.c_str(),
              name.c_str());
  end_of_run_dump(cli, 0);

  // -f e runs without a communicator: export this process's fragments alone.
  const ObsOptions obs_opts = obs_from_cli(cli);
  if (!obs_opts.trace_out.empty() &&
      write_text_file(
          obs_opts.trace_out,
          obs::merge_trace_fragments({obs::export_trace_fragment(0)})))
    std::printf("wrote trace to %s\n", obs_opts.trace_out.c_str());
  if (!obs_opts.metrics_out.empty() &&
      write_text_file(
          obs_opts.metrics_out,
          obs::merge_metrics_fragments(
              {obs::export_metrics_fragment(0, kern::to_json_section())})))
    std::printf("wrote metrics to %s\n", obs_opts.metrics_out.c_str());
  if (obs_opts.report_components) {
    std::printf("\ncomponent breakdown (seconds):\n%s",
                obs::format_component_table(
                    {obs::run_phases().phases()}, {std::string("0")}, "rank")
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliParser cli(argc, argv);
  for (const RemovedFlag& removed : kRemovedFlags) {
    if (cli.has(removed.flag)) {
      std::fprintf(stderr, "error: %s\n", removed.message);
      return 2;
    }
  }
  // Every numeric flag, read once before any input is: a malformed value
  // (-N abc) is a usage error. The modes read them again where they use them.
  try {
    for (const char* flag : {"N", "p", "x", "np", "T"})
      (void)cli.int_or(flag, 0);
    (void)cli.double_or("-straggler-factor", 0.0);
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  const auto alignment_path = cli.value("s");
  if (!alignment_path || cli.has("h") || cli.has("-help")) {
    usage(argv[0]);
    return alignment_path ? 0 : 2;
  }
  if (!kernels_from_cli(cli)) return 2;

  {
    const std::string lvl = cli.value_or("-log-level", "");
    if (!lvl.empty()) {
      const auto parsed = parse_log_level(lvl);
      if (!parsed) {
        std::fprintf(stderr,
                     "error: --log-level=%s: expected error, warn, info, or "
                     "debug\n",
                     lvl.c_str());
        return 2;
      }
      Logger::instance().set_level(*parsed);
    }
  }

  {
    const ObsOptions obs_opts = obs_from_cli(cli);
    if (obs_opts.any()) {
      if (!validate_obs_paths(obs_opts)) return 2;
      obs::set_enabled(true);
    }
  }

  // Flight recorder: configured before any fork so every rank inherits the
  // dump directory and the crash handlers.
  if (cli.value_or("-blackbox", "") == "off") {
    obs::flight::set_enabled(false);
  } else {
    obs::flight::set_dump_dir(
        cli.value_or("-blackbox-dir", cli.value_or("n", "raxh") + "_blackbox")
            .c_str());
    obs::flight::install_crash_handlers();
  }

  try {
    const PatternAlignment patterns = [&] {
      obs::ScopedPhase setup_phase("setup");
      const Alignment alignment = read_phylip_file(*alignment_path);
      return PatternAlignment::compress(alignment);
    }();
    std::printf("raxh: %zu taxa, %zu sites, %zu patterns\n",
                patterns.num_taxa(), patterns.num_sites(),
                patterns.num_patterns());

    std::printf("raxh: %s kernels, site repeats off\n",
                kern::kernel_isa_name(kern::kernel_isa()));

    const std::string mode = cli.value_or("f", "a");
    if (mode == "a") return run_comprehensive(patterns, cli);
    if (mode == "d") return run_multistart(patterns, cli);
    if (mode == "b") return run_bootstrap_only(patterns, cli);
    if (mode == "x") return run_adaptive(patterns, cli);
    if (mode == "e") return run_evaluate(patterns, cli);
    std::fprintf(stderr, "error: unknown mode -f %s\n", mode.c_str());
    usage(argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
