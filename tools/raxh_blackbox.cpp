// raxh_blackbox — offline analyzer for flight-recorder black boxes.
//
// `raxh_blackbox --help` prints the flags and reports. Each argument is
// either a DIR/rank<r>.blackbox file or a directory of them (every *.blackbox
// inside is decoded). All decoded boxes are merged into one cross-rank
// timeline (monotonic-clock offsets estimated from matched barrier exits)
// and rendered as the chosen reports.
//
// Corrupt or truncated boxes are rejected with a diagnostic on stderr and
// skipped; the exit status is nonzero when nothing could be decoded.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/postmortem.h"
#include "raxh_blackbox_flags.h"

int main(int argc, char** argv) {
  using namespace raxh;
  const Cli cli = Cli::parse_or_exit(kRaxhBlackboxCli, argc, argv);
  const std::vector<std::string>& inputs = cli.positional();
  if (inputs.empty()) cli.fail("no black box file or directory given");
  const std::string& report = cli.text("report");
  const auto last_n = static_cast<std::size_t>(cli.integer("last"));

  std::vector<obs::flight::Blackbox> boxes;
  std::vector<std::string> errors;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      auto more = obs::pm::read_dir(input, &errors);
      for (auto& b : more) boxes.push_back(std::move(b));
    } else {
      try {
        boxes.push_back(obs::flight::read_blackbox(input));
      } catch (const std::exception& e) {
        errors.push_back(input + ": " + e.what());
      }
    }
  }
  for (const std::string& err : errors)
    std::fprintf(stderr, "warning: skipped %s\n", err.c_str());
  if (boxes.empty()) {
    std::fprintf(stderr, "error: no decodable black boxes among the %zu "
                 "input(s)\n", inputs.size());
    return 1;
  }

  const obs::pm::Merged merged = obs::pm::merge(boxes);
  std::printf("decoded %zu black box(es), %zu event(s) across %zu rank(s)",
              boxes.size(), merged.events.size(), merged.ranks.size());
  if (merged.dropped > 0)
    std::printf(" (%llu oldest event(s) lost to ring wrap)",
                static_cast<unsigned long long>(merged.dropped));
  std::printf("\n\n");

  if (report == "all" || report == "postmortem")
    std::printf("%s\n", obs::pm::format_postmortem(merged).c_str());
  if (report == "all" || report == "timeline")
    std::printf("%s\n", obs::pm::format_timeline(merged, last_n).c_str());
  if (report == "all" || report == "barriers")
    std::printf("%s\n", obs::pm::format_barrier_report(merged).c_str());
  if (report == "all" || report == "critical-path")
    std::printf("%s\n", obs::pm::format_critical_path(merged).c_str());
  if (report == "all" || report == "edges")
    std::printf("%s\n", obs::pm::format_edge_report(merged).c_str());
  return 0;
}
