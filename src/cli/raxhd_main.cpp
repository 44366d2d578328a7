// raxhd — the long-lived analysis daemon. Accepts concurrent comprehensive
// analyses over a unix-domain socket (and optionally loopback TCP), runs
// them on a shared pool of thread-backed minimpi ranks, and serves results
// bit-identical to one-shot `raxh -f a` runs with the same seeds.
//
// Flags: `raxhd --help` prints the table in raxhd_flags.h.
//
// Observability: the same exposition is always available in-band via the
// kMetrics protocol op / `raxhd_client metrics`, and over loopback HTTP with
// --metrics-http-port; --trace-out and --metrics-out are written at shutdown.
// All output paths are probed at startup and the daemon refuses to start if
// one is unwritable — a week of uptime must not end in silent data loss.
//
// Shutdown: SIGTERM/SIGINT, or a SHUTDOWN frame (raxhd_client shutdown).
// Either way the daemon cancels outstanding jobs cooperatively, drains
// connections, unlinks the socket, and exits 0.
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "cli/raxhd_flags.h"
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

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = Cli::parse_or_exit(kRaxhdCli, argc, argv);
  Logger::instance().set_level(*parse_log_level(cli.text("log-level")));

  serve::ServerOptions options;
  options.socket_path = cli.text("socket");
  options.tcp_port = static_cast<int>(cli.integer("tcp-port"));
  options.stream_interval_ms =
      static_cast<int>(cli.integer("stream-interval-ms"));
  options.service.max_concurrent_jobs = static_cast<int>(cli.integer("jobs"));
  options.service.cache_bytes =
      static_cast<std::size_t>(cli.integer("cache-mb")) << 20;
  options.service.admission_lookahead =
      static_cast<int>(cli.integer("lookahead"));
  options.service.max_ranks_per_job =
      static_cast<int>(cli.integer("max-ranks"));
  options.service.max_threads_per_rank =
      static_cast<int>(cli.integer("max-threads"));
  options.metrics_http_port =
      static_cast<int>(cli.integer("metrics-http-port"));
  options.service.artifact_dir = cli.text("artifact-dir");
  const std::string& trace_out = cli.text("trace-out");
  const std::string& metrics_out = cli.text("metrics-out");

  // Fail fast on unwritable output locations — the one-shot CLI has probed
  // its telemetry paths since day one; a daemon with a week of uptime has
  // even more to lose at shutdown.
  for (const std::string flag : {"trace-out", "metrics-out"})
    if (cli.has(flag) && !file_path_writable(cli.text(flag)))
      cli.fail("--" + flag + "=" + cli.text(flag) +
               ": directory is not writable");
  if (cli.has("artifact-dir") && !dir_accepts_files(cli.text("artifact-dir")))
    cli.fail("--artifact-dir=" + cli.text("artifact-dir") +
             ": cannot create or write the artifact directory");

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
