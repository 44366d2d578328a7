// raxhd's flag table: every flag the daemon accepts, with its default and
// range. `raxhd --help` prints it.
#pragma once

#include "util/cli.h"

namespace raxh {

inline constexpr Flag kRaxhdFlags[] = {
    Flag::text("socket", "/tmp/raxhd.sock", "unix-domain listener path"),
    Flag::integer("tcp-port", "0", -1, "loopback TCP port; 0 off, -1 any",
                  65535),
    Flag::integer("jobs", "4", 1, "concurrent executor slots"),
    Flag::integer("cache-mb", "64", 0, "alignment cache budget in MiB"),
    Flag::integer("lookahead", "2", 1, "admission pipeline depth"),
    Flag::text("artifact-dir", nullptr, "per-job checkpoint directory"),
    Flag::integer("max-ranks", "16", 1, "per-job rank cap"),
    Flag::integer("max-threads", "16", 1, "per-job threads-per-rank cap"),
    Flag::integer("stream-interval-ms", "100", 1, "STREAM event cadence"),
    Flag::choice("log-level", "error|warn|info|debug", "info", "log level"),
    Flag::integer("metrics-http-port", "0", -1, "GET /metrics; 0 off, -1 any",
                  65535),
    Flag::text("trace-out", nullptr, "Chrome trace of every job, at exit"),
    Flag::text("metrics-out", nullptr, "final Prometheus scrape, at exit"),
};

inline constexpr CliSpec kRaxhdCli{
    "[flags]", kRaxhdFlags, false,
    "Long-lived analysis daemon; submit jobs with raxhd_client.\n"};

}  // namespace raxh
