// raxh — the command-line front end, mirroring RAxML's main modes:
//
//   -f a   comprehensive analysis: rapid bootstraps + full ML search (default)
//   -f d   multi-start ML searches from randomized stepwise-addition trees
//   -f b   bootstrap-only run (replicates + majority-rule consensus)
//   -f x   adaptive bootstrap: rounds of replicates until the FC
//          bootstopping test converges (-N caps the total)
//   -f e   evaluate/optimize a fixed topology (-t tree file required)
//
// Flags: `raxh --help` prints the table in raxh_flags.h (defaults, minimums,
// choices, the RAXH_KERNELS / RAXH_FAULT_PLAN defaults and removed flags).
// Anything the table does not admit exits 2 with an error naming the flag.
//
// minimpi runtime (src/minimpi/): forked ranks talk over a full mesh of
// Unix socketpairs, and Barrier/Bcast/Allreduce/Gather route along binomial
// trees (latency grows with log ranks). Neither is configurable.
//
// The flight recorder is always on: fatal signals (SIGSEGV/SIGBUS/SIGABRT),
// std::terminate, injected rank deaths, and peer-failure detection all dump
// DIR/rank<r>.blackbox automatically; decode with tools/raxh_blackbox.
//
// Telemetry output paths are validated (and directories created) at startup
// so a long run cannot silently lose its telemetry at the end.
//
// Exit status 0 on success; messages go to stdout, errors to stderr.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "bio/io.h"
#include "bio/patterns.h"
#include "cli/raxh_flags.h"
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
#include "util/fscheck.h"
#include "util/log.h"
#include "util/timer.h"

namespace {

using namespace raxh;

// --kernels (default $RAXH_KERNELS): the table checks the name, this
// machine decides whether the member runs.
void kernels_from_cli(const Cli& cli) {
  if (!cli.has("kernels")) return;  // CPUID pick
  kern::KernelIsa isa{};
  if (!kern::parse_kernel_isa(cli.text("kernels"), &isa) ||
      !kern::set_kernel_isa(isa))
    cli.fail("kernel member " + cli.text("kernels") +
             " is not supported on this machine (available: " +
             kern::kernel_isa_list() + ")");
}

// --- observability flags (--trace-out / --metrics-out / --report-components
//     / --heartbeat-out / --straggler-factor)

bool wants_obs(const Cli& cli) {
  return cli.has("trace-out") || cli.has("metrics-out") ||
         cli.has("heartbeat-out") || cli.has("report-components");
}

// util/fscheck.h probes: paths must prove writable before any work starts.
void validate_obs_paths(const Cli& cli) {
  for (const std::string flag : {"trace-out", "metrics-out"})
    if (cli.has(flag) && !file_path_writable(cli.text(flag)))
      cli.fail("--" + flag + "=" + cli.text(flag) +
               ": directory is not writable");
  const std::string& heartbeat_dir = cli.text("heartbeat-out");
  if (cli.has("heartbeat-out") && !dir_accepts_files(heartbeat_dir))
    cli.fail("--heartbeat-out=" + heartbeat_dir +
             ": cannot create or write the heartbeat directory");
  if (cli.real("straggler-factor") <= 1.0)
    cli.fail("--straggler-factor=" + cli.text("straggler-factor") +
             ": must be > 1.0");
}

// --blackbox-dump: persist every rank's flight ring at the end of a clean
// run so raxh_blackbox can analyze fault-free runs too. Called inside the
// per-rank lambda, before the telemetry merge.
void end_of_run_dump(const Cli& cli, int rank) {
  if (cli.has("blackbox-dump"))
    obs::flight::dump_now(rank, "end of run");
}

// Spans this process's trace rings (obs::kTraceCapacity per thread) evicted.
long spans_dropped() {
  return static_cast<long>(
      obs::counters_snapshot()[obs::Counter::kSpansDropped]);
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
void finalize_obs(mpi::Comm& comm, const Cli& cli) {
  if (!wants_obs(cli)) return;
  std::string metrics;
  if (cli.has("metrics-out"))
    metrics = obs::export_metrics_fragment(
        comm.rank(), comm.stats().to_json() + "," +
                         obs::comm::to_json_section(comm.rank()) + "," +
                         kern::to_json_section());
  const std::string phases = cli.has("report-components")
                                 ? obs::serialize_phases(obs::run_phases())
                                 : std::string();

  if (cli.has("trace-out")) {
    const auto fragments =
        comm.gather_strings(obs::export_trace_fragment(comm.rank()), 0);
    const long dropped = comm.allreduce_sum_long(spans_dropped());
    if (comm.rank() == 0 &&
        write_text_file(cli.text("trace-out"),
                        obs::merge_trace_fragments(fragments))) {
      std::printf("wrote trace to %s (open in chrome://tracing or "
                  "ui.perfetto.dev; %ld spans dropped by full rings)\n",
                  cli.text("trace-out").c_str(), dropped);
    }
  }
  if (cli.has("metrics-out")) {
    const auto fragments = comm.gather_strings(metrics, 0);
    if (comm.rank() == 0 &&
        write_text_file(cli.text("metrics-out"),
                        obs::merge_metrics_fragments(fragments))) {
      std::printf("wrote metrics to %s\n", cli.text("metrics-out").c_str());
    }
  }
  if (cli.has("report-components")) {
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

int run_comprehensive(const PatternAlignment& patterns, const Cli& cli) {
  HybridOptions options;
  options.analysis.specified_bootstraps = static_cast<int>(cli.integer("N"));
  options.analysis.parsimony_seed = cli.integer("p");
  options.analysis.bootstrap_seed = cli.integer("x");
  options.analysis.num_threads = static_cast<int>(cli.integer("T"));
  options.compute_support = true;
  options.run_bootstopping = true;
  options.analysis.checkpoint_dir = cli.text("checkpoint-dir");
  options.fault_tolerant = cli.has("fault-tolerant");
  const int ranks = static_cast<int>(cli.integer("np"));
  const std::string& name = cli.text("n");

  // Fault injection (testing; --fault-plan, default $RAXH_FAULT_PLAN; the
  // flag table has already rejected a malformed plan). A plan with lethal
  // actions and no recovery would just crash the job, so lethal plans imply
  // --fault-tolerant. Delay-only plans stay on the regular collective
  // driver: they model slow edges, not rank death, and the tree collectives
  // they slow down are what raxh_comm and the kCollEdge postmortem
  // attribute.
  const mpi::FaultPlan plan = mpi::FaultPlan::parse(cli.text("fault-plan"));
  if (!plan.empty()) {
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
    if (cli.has("heartbeat-out")) {
      obs::HeartbeatOptions hb;
      hb.dir = cli.text("heartbeat-out");
      hb.rank = comm.rank();
      heartbeat = std::make_unique<obs::HeartbeatWriter>(hb);
      if (comm.rank() == 0) {
        obs::AggregatorOptions agg;
        agg.dir = cli.text("heartbeat-out");
        agg.nranks = comm.size();
        agg.straggler_factor = cli.real("straggler-factor");
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
      finalize_obs(comm, cli);
    } else if (comm.rank() == 0 && wants_obs(cli)) {
      std::printf("skipping telemetry merge (rank failures occurred)\n");
    }
  });
  std::printf("wall time: %.2f s\n", wall.seconds());
  return 0;
}

int run_multistart(const PatternAlignment& patterns, const Cli& cli) {
  MultistartOptions options;
  options.searches = cli.has("N") ? static_cast<int>(cli.integer("N")) : 10;
  options.parsimony_seed = cli.integer("p");
  options.num_threads = static_cast<int>(cli.integer("T"));
  const int ranks = static_cast<int>(cli.integer("np"));
  const std::string& name = cli.text("n");

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
    finalize_obs(comm, cli);
  });
  return 0;
}

int run_bootstrap_only(const PatternAlignment& patterns, const Cli& cli) {
  BootstrapRunOptions options;
  options.replicates = static_cast<int>(cli.integer("N"));
  options.parsimony_seed = cli.integer("p");
  options.bootstrap_seed = cli.integer("x");
  options.num_threads = static_cast<int>(cli.integer("T"));
  const int ranks = static_cast<int>(cli.integer("np"));
  const std::string& name = cli.text("n");

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
    finalize_obs(comm, cli);
  });
  return 0;
}

int run_adaptive(const PatternAlignment& patterns, const Cli& cli) {
  AdaptiveBootstrapOptions options;
  options.max_replicates =
      std::max(2, cli.has("N") ? static_cast<int>(cli.integer("N")) : 200);
  options.min_replicates = std::min(options.min_replicates,
                                    options.max_replicates);
  options.parsimony_seed = cli.integer("p");
  options.bootstrap_seed = cli.integer("x");
  options.num_threads = static_cast<int>(cli.integer("T"));
  const int ranks = static_cast<int>(cli.integer("np"));
  const std::string& name = cli.text("n");

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
    finalize_obs(comm, cli);
  });
  return 0;
}

int run_evaluate(const PatternAlignment& patterns, const Cli& cli) {
  // Also dumps per-site log likelihoods (<name>_sitelh.txt), RAxML's "-f g"
  // style sitewise output, expanded from patterns to original site order.
  const std::string& tree_path = cli.text("t");
  std::ifstream in(tree_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", tree_path.c_str());
    return 2;
  }
  std::string newick((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

  EvaluateOptions options;
  options.use_gamma = cli.text("m") != "GTRCAT";
  options.num_threads = static_cast<int>(cli.integer("T"));
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
  const std::string& name = cli.text("n");
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
  const std::string& trace_out = cli.text("trace-out");
  if (cli.has("trace-out") &&
      write_text_file(trace_out, obs::merge_trace_fragments(
                                     {obs::export_trace_fragment(0)})))
    std::printf("wrote trace to %s (%ld spans dropped by full rings)\n",
                trace_out.c_str(), spans_dropped());
  const std::string& metrics_out = cli.text("metrics-out");
  if (cli.has("metrics-out") &&
      write_text_file(
          metrics_out,
          obs::merge_metrics_fragments(
              {obs::export_metrics_fragment(0, kern::to_json_section())})))
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  if (cli.has("report-components")) {
    std::printf("\ncomponent breakdown (seconds):\n%s",
                obs::format_component_table(
                    {obs::run_phases().phases()}, {std::string("0")}, "rank")
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = Cli::parse_or_exit(kRaxhCli, argc, argv);
  if (!cli.has("s")) cli.fail("-s <alignment.phy> is required");
  if (cli.text("f") == "e" && !cli.has("t"))
    cli.fail("-f e requires -t <treefile>");
  kernels_from_cli(cli);
  Logger::instance().set_level(*parse_log_level(cli.text("log-level")));

  validate_obs_paths(cli);
  if (wants_obs(cli)) obs::set_enabled(true);

  // Flight recorder: configured before any fork so every rank inherits the
  // dump directory and the crash handlers.
  if (cli.text("blackbox") == "off") {
    obs::flight::set_enabled(false);
  } else {
    obs::flight::set_dump_dir((cli.has("blackbox-dir")
                                   ? cli.text("blackbox-dir")
                                   : cli.text("n") + "_blackbox")
                                  .c_str());
    obs::flight::install_crash_handlers();
  }

  try {
    const PatternAlignment patterns = [&] {
      obs::ScopedPhase setup_phase("setup");
      const Alignment alignment = read_phylip_file(cli.text("s"));
      return PatternAlignment::compress(alignment);
    }();
    std::printf("raxh: %zu taxa, %zu sites, %zu patterns\n",
                patterns.num_taxa(), patterns.num_sites(),
                patterns.num_patterns());

    std::printf("raxh: %s kernels, site repeats off\n",
                kern::kernel_isa_name(kern::kernel_isa()));

    const std::string& mode = cli.text("f");
    if (mode == "a") return run_comprehensive(patterns, cli);
    if (mode == "d") return run_multistart(patterns, cli);
    if (mode == "b") return run_bootstrap_only(patterns, cli);
    if (mode == "x") return run_adaptive(patterns, cli);
    return run_evaluate(patterns, cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
