// raxhd_client's flag table, shared by every subcommand. `raxhd_client
// --help` prints it.
#pragma once

#include "util/cli.h"

namespace raxh {

inline constexpr Flag kRaxhdClientFlags[] = {
    Flag::text("socket", "/tmp/raxhd.sock", "daemon socket or host:port",
               "RAXHD_SOCKET"),
    Flag::text("s", nullptr, "submit: PHYLIP alignment (required)"),
    Flag::text("n", "raxh", "submit: job name; result: output basename"),
    Flag::integer("N", "20", 1, "submit: bootstraps"),
    Flag::integer("p", "12345", 1, "submit: parsimony seed",
                  kNoMaximum),
    Flag::integer("x", "12345", 1, "submit: rapid-bootstrap seed",
                  kNoMaximum),
    Flag::integer("np", "1", 1, "submit: ranks"),
    Flag::integer("T", "1", 1, "submit: threads per rank"),
    Flag::choice("m", "GTRCAT|GTRGAMMA", "GTRCAT", "submit: model"),
    Flag::integer("priority", "0", kIntMinimum, "submit: higher runs first"),
    Flag::text("tenant", nullptr, "submit: owner label for the metrics"),
    Flag::toggle("checkpoint", "submit: checkpoint in --artifact-dir"),
    Flag::toggle("wait", "submit: follow the job until it ends"),
};

inline constexpr CliSpec kRaxhdClientCli{
    "<command> [job-id] [flags]", kRaxhdClientFlags, true,
    "commands: submit -s FILE [flags]  submit a job and print its id\n"
    "          status | stream | cancel <job-id>  print, follow, cancel it\n"
    "          result <job-id> [-n name]  write name_bestTree.tre etc.\n"
    "          list | metrics | shutdown\n"};

}  // namespace raxh
