// raxh_comm — offline analyzer for the comm-plane sections of a merged
// --metrics-out report.
//
//   raxh_comm --metrics=FILE     (`raxh_comm --help` lists the flags)
//
// FILE is the JSON array the one-shot CLI writes with --metrics-out (one
// fragment per rank). The tool reconciles every rank's per-edge comm matrix
// against its CommStats byte-for-byte, then prints the edge-list report:
// top-N hot edges by bytes, slow edges by receiver-side latency (this is
// the table that names an injected slow tree edge), the tree-vs-star
// traffic-shape classification, the shm ring stall table, and the
// nonblocking-overlap summary. Exit status is 1 when any rank fails
// reconciliation — CI treats a matrix that disagrees with CommStats as a
// telemetry bug, not a formatting nit.
//
// With --blackbox-dir the flight-recorder boxes of the same run are merged
// and the per-edge collective hop report (kCollEdge events) is appended:
// the complementary, per-instance view of the same edges.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/comm_obs.h"
#include "obs/postmortem.h"
#include "util/cli.h"

namespace {

using namespace raxh;

constexpr Flag kFlags[] = {
    Flag::text("metrics", nullptr, "merged --metrics-out report (required)"),
    Flag::text("blackbox-dir", nullptr, "also report these boxes' edges"),
    Flag::integer("top", "10", 1, "rows in the hot-edge tables"),
};

constexpr CliSpec kCli{"--metrics=FILE [flags]", kFlags};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = Cli::parse_or_exit(kCli, argc, argv);
  if (!cli.has("metrics")) cli.fail("--metrics=FILE is required");
  const std::string& metrics_path = cli.text("metrics");
  const std::string& blackbox_dir = cli.text("blackbox-dir");
  const int top_k = static_cast<int>(cli.integer("top"));

  std::ifstream in(metrics_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", metrics_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  std::string error;
  const std::vector<obs::comm::RankDump> ranks =
      obs::comm::parse_metrics_report(buf.str(), &error);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", metrics_path.c_str(),
                 error.c_str());
    return 2;
  }

  bool ok = true;
  std::fputs(obs::comm::format_report(ranks, top_k, &ok).c_str(), stdout);

  if (!blackbox_dir.empty()) {
    std::vector<std::string> errors;
    const auto boxes = obs::pm::read_dir(blackbox_dir, &errors);
    for (const std::string& err : errors)
      std::fprintf(stderr, "warning: skipped %s\n", err.c_str());
    if (boxes.empty()) {
      std::fprintf(stderr, "warning: no decodable black boxes under '%s'\n",
                   blackbox_dir.c_str());
    } else {
      const obs::pm::Merged merged = obs::pm::merge(boxes);
      std::printf("\n%s", obs::pm::format_edge_report(merged).c_str());
    }
  }

  return ok ? 0 : 1;
}
