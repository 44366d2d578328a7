// raxhd — the long-lived analysis daemon. Accepts concurrent comprehensive
// analyses over a unix-domain socket (and optionally loopback TCP), runs
// them on a shared pool of thread-backed minimpi ranks, and serves results
// bit-identical to one-shot `raxh -f a` runs with the same seeds.
//
//   --socket=PATH          unix-domain listener            [/tmp/raxhd.sock]
//   --tcp-port=N           loopback TCP listener; 0 = off  [0]
//   --jobs=N               concurrent executor slots       [4]
//   --cache-mb=N           alignment cache budget in MiB   [64]
//   --lookahead=N          admission pipeline depth        [2]
//   --artifact-dir=DIR     per-job checkpoints land here, namespaced by
//                          job id (jobs submitted with checkpoint=true)
//   --max-ranks=N          per-job rank cap                [16]
//   --max-threads=N        per-job threads-per-rank cap    [16]
//   --stream-interval-ms=N STREAM event cadence            [100]
//   --log-level=LVL        error | warn | info | debug     [info]
//
// Observability (the same exposition is always available in-band via the
// kMetrics protocol op / `raxhd_client metrics`):
//   --metrics-http-port=N  loopback HTTP GET /metrics; 0 = off, -1 =
//                          ephemeral (port is logged)              [0]
//   --trace-out=FILE       at shutdown, write one merged Chrome trace with
//                          every job's lifecycle + rank/crew spans
//   --metrics-out=FILE     at shutdown, write a final Prometheus scrape
// All output paths are probed at startup and the daemon refuses to start if
// one is unwritable — a week of uptime must not end in silent data loss.
//
// Shutdown: SIGTERM/SIGINT, or a SHUTDOWN frame (raxhd_client shutdown).
// Either way the daemon cancels outstanding jobs cooperatively, drains
// connections, unlinks the socket, and exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/fscheck.h"
#include "util/log.h"

namespace {

using namespace raxh;

// Signal handlers may only touch lock-free state; the server polls this
// atomic in run_until_shutdown(). One global is the price of signal-safety.
serve::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

void usage(const char* prog) {
  std::printf(
      "usage: %s [--socket=PATH] [--tcp-port=N] [--jobs=N] [--cache-mb=N]\n"
      "          [--lookahead=N] [--artifact-dir=DIR] [--max-ranks=N]\n"
      "          [--max-threads=N] [--stream-interval-ms=N]\n"
      "          [--metrics-http-port=N] [--trace-out=FILE]\n"
      "          [--metrics-out=FILE]\n"
      "          [--log-level=error|warn|info|debug]\n"
      "Long-lived analysis daemon; submit jobs with raxhd_client.\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  const CliParser cli(argc, argv);
  if (cli.has("h") || cli.has("-help")) {
    usage(argv[0]);
    return 0;
  }

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

  serve::ServerOptions options;
  options.socket_path = cli.value_or("-socket", "/tmp/raxhd.sock");
  try {
    options.tcp_port = static_cast<int>(cli.int_or("-tcp-port", 0));
    options.stream_interval_ms =
        static_cast<int>(cli.int_or("-stream-interval-ms", 100));
    options.service.max_concurrent_jobs =
        static_cast<int>(cli.int_or("-jobs", 4));
    options.service.cache_bytes =
        static_cast<std::size_t>(cli.int_or("-cache-mb", 64)) << 20;
    options.service.admission_lookahead =
        static_cast<int>(cli.int_or("-lookahead", 2));
    options.service.max_ranks_per_job =
        static_cast<int>(cli.int_or("-max-ranks", 16));
    options.service.max_threads_per_rank =
        static_cast<int>(cli.int_or("-max-threads", 16));
    options.metrics_http_port =
        static_cast<int>(cli.int_or("-metrics-http-port", 0));
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  options.service.artifact_dir = cli.value_or("-artifact-dir", "");
  const std::string trace_out = cli.value_or("-trace-out", "");
  const std::string metrics_out = cli.value_or("-metrics-out", "");

  if (options.service.max_concurrent_jobs < 1 ||
      options.service.admission_lookahead < 1 ||
      options.stream_interval_ms < 1) {
    std::fprintf(stderr,
                 "error: --jobs, --lookahead, and --stream-interval-ms must "
                 "be positive\n");
    return 2;
  }

  // Fail fast on unwritable output locations — the one-shot CLI has probed
  // its telemetry paths since day one; a daemon with a week of uptime has
  // even more to lose at shutdown.
  {
    const std::pair<const char*, const std::string*> files[] = {
        {"--trace-out", &trace_out}, {"--metrics-out", &metrics_out}};
    for (const auto& [flag, path] : files) {
      if (path->empty()) continue;
      if (!file_path_writable(*path)) {
        std::fprintf(stderr, "error: %s=%s: directory is not writable\n",
                     flag, path->c_str());
        return 2;
      }
    }
    if (!options.service.artifact_dir.empty() &&
        !dir_accepts_files(options.service.artifact_dir)) {
      std::fprintf(stderr,
                   "error: --artifact-dir=%s: cannot create or write the "
                   "artifact directory\n",
                   options.service.artifact_dir.c_str());
      return 2;
    }
  }

  // The cache hit/miss and job counters are the daemon's service-level
  // telemetry; they cost nothing measurable, so they are always on here.
  obs::set_enabled(true);

  try {
    serve::Server server(options);
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGPIPE, SIG_IGN);  // dropped clients surface as write errors
    server.start();
    server.run_until_shutdown();
    g_server = nullptr;
    // Final telemetry exports, after the drain so every job's terminal
    // state and spans are in. Paths were probed at startup.
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << server.service().export_job_trace();
      if (out)
        std::printf("raxhd: job trace written to %s\n", trace_out.c_str());
      else
        std::fprintf(stderr, "raxhd: cannot write %s\n", trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      out << server.render_metrics_now();
      if (out)
        std::printf("raxhd: metrics written to %s\n", metrics_out.c_str());
      else
        std::fprintf(stderr, "raxhd: cannot write %s\n", metrics_out.c_str());
    }
    const auto stats = server.service().cache_stats();
    std::printf("raxhd: exiting (cache: %llu hits, %llu misses, %llu "
                "evictions, %zu bytes in %zu entries)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions), stats.bytes,
                stats.entries);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "raxhd: fatal: %s\n", e.what());
    return 1;
  }
}
