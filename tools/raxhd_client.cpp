// raxhd_client — command-line front end for a running raxhd daemon.
//
//   raxhd_client submit -s alignment.phy [-n name] [-N bootstraps]
//                [-p seed] [-x seed] [-np ranks] [-T threads] [-m model]
//                [--priority=N] [--tenant=LABEL] [--checkpoint] [--wait]
//   raxhd_client status <job-id>
//   raxhd_client stream <job-id>        follow progress until terminal
//   raxhd_client result <job-id> [-n name]   write <name>_bestTree.tre etc.
//   raxhd_client cancel <job-id>
//   raxhd_client list
//   raxhd_client metrics                one Prometheus scrape to stdout
//   raxhd_client shutdown
//
// The daemon address comes from --socket=PATH (or host:port for TCP), or
// the RAXHD_SOCKET environment variable, defaulting to /tmp/raxhd.sock.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>

#include "serve/client.h"
#include "util/cli.h"

namespace {

using namespace raxh;

void usage(const char* prog) {
  std::printf(
      "usage: %s <command> [options]\n"
      "commands:\n"
      "  submit -s alignment.phy [-n name] [-N n] [-p seed] [-x seed]\n"
      "         [-np ranks] [-T threads] [-m model] [--priority=N]\n"
      "         [--tenant=LABEL] [--checkpoint] [--wait]\n"
      "                                     submit a job, print its id\n"
      "  status <job-id>                    one-line job status\n"
      "  stream <job-id>                    follow progress until terminal\n"
      "  result <job-id> [-n name]          fetch trees, write output files\n"
      "  cancel <job-id>                    request cancellation\n"
      "  list                               all jobs, submission order\n"
      "  metrics                            one Prometheus scrape to stdout\n"
      "  shutdown                           stop the daemon\n"
      "daemon address: --socket=PATH|host:port, else $RAXHD_SOCKET, else\n"
      "/tmp/raxhd.sock\n",
      prog);
}

std::string daemon_target(const CliParser& cli) {
  const std::string flag = cli.value_or("-socket", "");
  if (!flag.empty()) return flag;
  if (const char* env = std::getenv("RAXHD_SOCKET")) return env;
  return "/tmp/raxhd.sock";
}

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

// The positional after the subcommand; CliParser keeps them in order and the
// subcommand itself is positional()[0].
std::string job_id_arg(const CliParser& cli, const char* command) {
  const auto& pos = cli.positional();
  if (pos.size() < 2) {
    std::fprintf(stderr, "error: %s requires a <job-id>\n", command);
    std::exit(2);
  }
  return pos[1];
}

// Builds the submit request from the flags; returns 0, or the exit code of
// a usage error. Runs before connecting, so a bad flag exits 2 without a
// daemon; a malformed number throws CliError.
int read_submit(const CliParser& cli, serve::JobRequest& request) {
  const auto alignment_path = cli.value("s");
  if (!alignment_path) {
    std::fprintf(stderr, "error: submit requires -s <alignment.phy>\n");
    return 2;
  }
  std::ifstream in(*alignment_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", alignment_path->c_str());
    return 2;
  }
  request.alignment.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
  request.name = cli.value_or("n", "raxh");
  request.model = cli.value_or("m", "GTRCAT");
  request.bootstraps = static_cast<int>(cli.int_or("N", 20));
  request.parsimony_seed = cli.int_or("p", 12345);
  request.bootstrap_seed = cli.int_or("x", 12345);
  request.nranks = static_cast<int>(cli.int_or("np", 1));
  request.num_threads = static_cast<int>(cli.int_or("T", 1));
  request.priority = static_cast<int>(cli.int_or("-priority", 0));
  // Accept both the GNU spelling (--tenant=LABEL) and the RAxML-style
  // single-dash one (-tenant LABEL) the other submit flags use.
  request.tenant = cli.value_or("-tenant", cli.value_or("tenant", ""));
  request.checkpoint = cli.has("-checkpoint");
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

int cmd_result(serve::Client& client, const CliParser& cli) {
  const std::string id = job_id_arg(cli, "result");
  const serve::JobResult r = client.result(id);
  const std::string name = cli.value_or("n", "raxh");
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
  const CliParser cli(argc, argv);
  const auto& pos = cli.positional();
  if (pos.empty() || cli.has("h") || cli.has("-help")) {
    usage(argv[0]);
    return pos.empty() ? 2 : 0;
  }
  const std::string command = pos[0];

  try {
    serve::JobRequest request;
    if (command == "submit") {
      const int rc = read_submit(cli, request);
      if (rc != 0) return rc;
    }
    serve::Client client = serve::Client::connect(daemon_target(cli));
    if (command == "submit")
      return cmd_submit(client, request, cli.has("-wait"));
    if (command == "status") {
      print_status(client.status(job_id_arg(cli, "status")));
      return 0;
    }
    if (command == "stream") {
      const serve::JobStatus final_status = client.stream(
          job_id_arg(cli, "stream"),
          [](const serve::JobStatus& s) { print_status(s); });
      print_status(final_status);
      return final_status.state == serve::JobState::kDone ? 0 : 1;
    }
    if (command == "result") return cmd_result(client, cli);
    if (command == "cancel") {
      client.cancel(job_id_arg(cli, "cancel"));
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
    if (command == "shutdown") {
      client.shutdown_server();
      std::printf("shutdown requested\n");
      return 0;
    }
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    usage(argv[0]);
    return 2;
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const serve::ServeError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
