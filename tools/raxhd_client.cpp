// raxhd_client — command-line front end for a running raxhd daemon: submit
// jobs, follow them, fetch results, list, scrape metrics, shut it down.
// `raxhd_client --help` prints the commands and the flag table
// (raxhd_client_flags.h). Flags and the command are checked before
// connecting, so a usage error exits 2 without a daemon.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>

#include "raxhd_client_flags.h"
#include "serve/client.h"

namespace {

using namespace raxh;

void print_status(const serve::JobStatus& s) {
  std::printf("%-6s %-12s %-9s", s.id.c_str(), s.name.c_str(),
              serve::job_state_name(s.state));
  if (!s.tenant.empty()) std::printf("  [%s]", s.tenant.c_str());
  std::printf("  %5.1f%%", s.fraction * 100.0);
  if (!s.phase.empty()) std::printf("  %-10s", s.phase.c_str());
  if (s.has_lnl) std::printf("  lnL %.4f", s.best_lnl);
  if (s.cache_hit) std::printf("  [cache hit]");
  std::printf("  queued %.1fs run %.1fs", s.queue_s, s.run_s);
  if (!s.error.empty()) std::printf("  error: %s", s.error.c_str());
  std::printf("\n");
}

// Builds the submit request from the flags; returns 0, or the exit code of
// a usage error. Runs before connecting.
int read_submit(const Cli& cli, serve::JobRequest& request) {
  if (!cli.has("s")) cli.fail("submit requires -s <alignment.phy>");
  std::ifstream in(cli.text("s"), std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", cli.text("s").c_str());
    return 2;
  }
  request.alignment.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
  request.name = cli.text("n");
  request.model = cli.text("m");
  request.bootstraps = static_cast<int>(cli.integer("N"));
  request.parsimony_seed = cli.integer("p");
  request.bootstrap_seed = cli.integer("x");
  request.nranks = static_cast<int>(cli.integer("np"));
  request.num_threads = static_cast<int>(cli.integer("T"));
  request.priority = static_cast<int>(cli.integer("priority"));
  request.tenant = cli.text("tenant");
  request.checkpoint = cli.has("checkpoint");
  return 0;
}

int cmd_submit(serve::Client& client, const serve::JobRequest& request,
               bool wait) {
  const std::string id = client.submit(request);
  std::printf("%s\n", id.c_str());
  if (!wait) return 0;
  const serve::JobStatus final_status =
      client.stream(id, [](const serve::JobStatus& s) { print_status(s); });
  print_status(final_status);
  return final_status.state == serve::JobState::kDone ? 0 : 1;
}

int cmd_result(serve::Client& client, const std::string& id,
               const std::string& name) {
  const serve::JobResult r = client.result(id);
  std::printf("winner: rank %d, final GAMMA lnL %.6f\n", r.winner_rank,
              r.best_lnl);
  std::ofstream(name + "_bestTree.tre") << r.best_tree_newick << '\n';
  std::ofstream(name + "_bipartitions.tre") << r.support_tree_newick << '\n';
  std::printf("wrote %s_bestTree.tre, %s_bipartitions.tre (%d replicates)\n",
              name.c_str(), name.c_str(), r.total_bootstrap_trees);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = Cli::parse_or_exit(kRaxhdClientCli, argc, argv);
  const auto& pos = cli.positional();
  const std::string command = pos.empty() ? "" : pos[0];
  const bool takes_id = command == "status" || command == "stream" ||
                        command == "result" || command == "cancel";
  if (!takes_id && command != "submit" && command != "list" &&
      command != "metrics" && command != "shutdown")
    cli.fail(pos.empty() ? "missing <command>"
                         : "unknown command '" + command + "'");
  if (pos.size() != (takes_id ? 2u : 1u))
    cli.fail(command +
             (takes_id ? " takes one <job-id>" : " takes no job-id"));
  const std::string id = takes_id ? pos[1] : "";

  try {
    serve::JobRequest request;
    if (command == "submit") {
      const int rc = read_submit(cli, request);
      if (rc != 0) return rc;
    }
    serve::Client client = serve::Client::connect(cli.text("socket"));
    if (command == "submit")
      return cmd_submit(client, request, cli.has("wait"));
    if (command == "status") {
      print_status(client.status(id));
      return 0;
    }
    if (command == "stream") {
      const serve::JobStatus final_status = client.stream(
          id, [](const serve::JobStatus& s) { print_status(s); });
      print_status(final_status);
      return final_status.state == serve::JobState::kDone ? 0 : 1;
    }
    if (command == "result") return cmd_result(client, id, cli.text("n"));
    if (command == "cancel") {
      client.cancel(id);
      std::printf("cancel requested\n");
      return 0;
    }
    if (command == "list") {
      for (const auto& s : client.list()) print_status(s);
      return 0;
    }
    if (command == "metrics") {
      std::fputs(client.metrics().c_str(), stdout);
      return 0;
    }
    client.shutdown_server();
    std::printf("shutdown requested\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
