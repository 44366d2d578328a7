// raxh_blackbox's flag table. `raxh_blackbox --help` prints it.
#pragma once

#include "util/cli.h"

namespace raxh {

inline constexpr Flag kRaxhBlackboxFlags[] = {
    Flag::choice("report",
                 "all|postmortem|timeline|barriers|critical-path|edges", "all",
                 "which report to print"),
    Flag::integer("last", "40", 1, "timeline: the last N merged events"),
};

inline constexpr CliSpec kRaxhBlackboxCli{
    "[flags] <dir-or-file>...", kRaxhBlackboxFlags, true,
    "Each argument is a DIR/rank<r>.blackbox file or a directory of them.\n"
    "reports: postmortem (dead ranks, their last comm ops), timeline (last\n"
    "N events), barriers (wait per stage), critical-path (per-stage phase\n"
    "seconds per rank), edges (collective hop latency per edge)\n"};

}  // namespace raxh
