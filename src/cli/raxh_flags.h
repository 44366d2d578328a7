// raxh's flag table: every flag the one-shot CLI accepts, with its default,
// range, choices, value check and environment default. `raxh --help` prints
// it.
#pragma once

#include <string>

#include "minimpi/fault.h"
#include "util/cli.h"

namespace raxh {

// A malformed --fault-plan (or RAXH_FAULT_PLAN) is a usage error, caught
// with the flags before any input is read.
inline void check_fault_plan(const std::string& spec) {
  (void)mpi::FaultPlan::parse(spec);
}

inline constexpr Flag kRaxhFlags[] = {
    Flag::text("s", nullptr, "PHYLIP alignment (required)"),
    Flag::choice("f", "a|d|b|x|e", "a", "analysis mode (see below)"),
    Flag::integer("N", "100", 1,
                  "bootstraps; -f d searches [10]; -f x replicate cap [200]"),
    Flag::integer("p", "12345", 1, "parsimony seed", kNoMaximum),
    Flag::integer("x", "12345", 1, "rapid-bootstrap seed", kNoMaximum),
    Flag::integer("np", "1", 1, "coarse-grained ranks (forked processes)"),
    Flag::integer("T", "1", 1, "fine-grained threads per rank"),
    Flag::text("n", "raxh", "output basename"),
    Flag::text("t", nullptr, "input tree file (-f e)"),
    Flag::choice("m", "GTRGAMMA|GTRCAT", "GTRGAMMA", "-f e model"),
    Flag::choice("kernels", "auto|scalar|generic|neon|avx512", "auto",
                 "likelihood kernel member", "RAXH_KERNELS"),
    Flag::text("trace-out", nullptr, "merged Chrome trace of all ranks"),
    Flag::text("metrics-out", nullptr, "merged per-rank metrics JSON"),
    Flag::toggle("report-components", "print per-rank stage times"),
    Flag::text("heartbeat-out", nullptr, "-f a: live ndjson beats per rank"),
    Flag::real("straggler-factor", "2.0", "flag ranks this much slower"),
    Flag::choice("log-level", "error|warn|info|debug", "info", "log level"),
    Flag::choice("blackbox", "on|off", "on", "the in-memory flight recorder"),
    Flag::text("blackbox-dir", nullptr, "black boxes [<name>_blackbox]"),
    Flag::toggle("blackbox-dump", "dump black boxes after a clean run too"),
    Flag::toggle("fault-tolerant", "-f a: re-grant the shares of dead ranks"),
    Flag::text("checkpoint-dir", nullptr, "-f a: bootstrap checkpoints"),
    Flag::text("fault-plan", nullptr, "-f a: faults kind@rank,op[,ms];...",
               "RAXH_FAULT_PLAN", check_fault_plan),
    Flag::removed("repeats", "site repeats were retired"),
    Flag::removed("simd", "use --kernels=scalar to run the scalar reference"),
    Flag::removed("collectives", "collectives always use binomial trees"),
    Flag::removed("transport", "ranks always talk over a socketpair mesh"),
    Flag::removed("connect",
                  "use raxhd_client submit --wait, then raxhd_client result"),
};

inline constexpr CliSpec kRaxhCli{
    "-s FILE [flags]", kRaxhFlags, false,
    "modes (-f): a  comprehensive analysis: rapid bootstraps + ML search\n"
    "            d  multi-start ML searches from randomized addition trees\n"
    "            b  bootstrap replicates + majority-rule consensus\n"
    "            x  adaptive bootstrap until FC bootstopping converges\n"
    "            e  evaluate/optimize the fixed topology given by -t\n"};

}  // namespace raxh
