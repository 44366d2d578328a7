// raxh_top — a live, top(1)-style view of a running raxhd daemon.
//
// Each tick issues one LIST and one METRICS request over the job socket and
// repaints: a header of service gauges (slots, queue depth, cache hit rate,
// attributed event rate), then one row per job with a progress bar. Plain
// ANSI escapes — clear+home per frame — so it runs anywhere a VT100 does,
// with no curses dependency. `--once` prints a single frame without
// clearing (scriptable; CI smoke uses it).
//
// `raxh_top --help` prints the flags; the daemon address resolves as in
// raxhd_client (--socket, else $RAXHD_SOCKET, else /tmp/raxhd.sock).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "util/cli.h"

namespace {

using namespace raxh;

constexpr Flag kFlags[] = {
    Flag::text("socket", "/tmp/raxhd.sock", "daemon socket or host:port",
               "RAXHD_SOCKET"),
    Flag::integer("interval-ms", "1000", 1, "refresh period"),
    Flag::toggle("once", "print a single frame without clearing and exit"),
};

constexpr CliSpec kCli{
    "[flags]", kFlags, false,
    "Live view of a raxhd daemon (LIST + METRICS per tick; ANSI repaint).\n"};

// First sample of `family` in a Prometheus text exposition: the value of
// the first non-comment line whose name (up to ' ' or '{') matches. -1.0
// when absent. Enough parsing for a dashboard's own exposition; not a
// general scraper.
double metric_value(const std::string& text, const std::string& family) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text[pos] != '#') {
      std::size_t name_end = pos;
      while (name_end < eol && text[name_end] != ' ' && text[name_end] != '{')
        ++name_end;
      if (text.compare(pos, name_end - pos, family) == 0) {
        const std::size_t val = text.rfind(' ', eol);
        if (val != std::string::npos && val >= pos)
          return std::strtod(text.c_str() + val + 1, nullptr);
      }
    }
    pos = eol + 1;
  }
  return -1.0;
}

// Like metric_value, but for one series of a labeled family: the first line
// whose name matches `family` and whose label set contains `label`. -1.0
// when absent — including against an older daemon that predates the family,
// so callers must render the column as "-" rather than a number.
double labeled_metric_value(const std::string& text, const std::string& family,
                           const std::string& label) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text[pos] != '#') {
      std::size_t name_end = pos;
      while (name_end < eol && text[name_end] != ' ' && text[name_end] != '{')
        ++name_end;
      if (text.compare(pos, name_end - pos, family) == 0 &&
          name_end < eol && text[name_end] == '{') {
        const std::size_t close = text.find('}', name_end);
        if (close != std::string::npos && close < eol &&
            text.substr(name_end + 1, close - name_end - 1).find(label) !=
                std::string::npos) {
          const std::size_t val = text.rfind(' ', eol);
          if (val != std::string::npos && val >= pos)
            return std::strtod(text.c_str() + val + 1, nullptr);
        }
      }
    }
    pos = eol + 1;
  }
  return -1.0;
}

std::string human_bytes(double b) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB"};
  int u = 0;
  while (b >= 1024.0 && u < 3) {
    b /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), u == 0 ? "%.0f%s" : "%.1f%s", b, kUnits[u]);
  return buf;
}

std::string progress_bar(double fraction, int width) {
  if (fraction < 0.0) fraction = 0.0;
  if (fraction > 1.0) fraction = 1.0;
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string bar = "[";
  for (int i = 0; i < width; ++i) bar += i < filled ? '#' : '.';
  bar += "]";
  return bar;
}

void paint(const std::string& target, const std::vector<serve::JobStatus>& jobs,
           const std::string& metrics, bool clear) {
  if (clear) std::fputs("\033[H\033[2J", stdout);

  const double running = metric_value(metrics, "raxhd_jobs_running");
  const double slots = metric_value(metrics, "raxhd_slots");
  const double depth = metric_value(metrics, "raxhd_queue_depth");
  const double hits = metric_value(metrics, "raxhd_cache_hits_total");
  const double misses = metric_value(metrics, "raxhd_cache_misses_total");
  const double lookups = hits + misses;
  std::printf("raxh_top — %s\n", target.c_str());
  std::printf(
      "slots %d/%d   queue depth %d   cache hit rate %.0f%% (%d lookups)\n",
      static_cast<int>(running), static_cast<int>(slots),
      static_cast<int>(depth),
      lookups > 0 ? 100.0 * hits / lookups : 0.0, static_cast<int>(lookups));
  std::printf("%-6s %-12s %-10s %-10s %-22s %-10s %10s %8s %8s %10s\n", "ID",
              "NAME", "TENANT", "STATE", "PROGRESS", "PHASE", "lnL", "QUEUEs",
              "RUNs", "COMM");
  for (const auto& s : jobs) {
    char lnl[32];
    if (s.has_lnl)
      std::snprintf(lnl, sizeof(lnl), "%10.2f", s.best_lnl);
    else
      std::snprintf(lnl, sizeof(lnl), "%10s", "-");
    // Per-job comm from the labeled families; "-" against an older daemon
    // that does not export them. A trailing '*' marks a sender currently
    // stalled on a full shm ring.
    const std::string job_label = "job=\"" + s.id + "\"";
    const double comm_bytes =
        labeled_metric_value(metrics, "raxhd_job_comm_bytes_total", job_label);
    const double comm_stalled =
        labeled_metric_value(metrics, "raxhd_job_comm_stalled", job_label);
    std::string comm = comm_bytes < 0.0 ? "-" : human_bytes(comm_bytes);
    if (comm_stalled > 0.0) comm += "*";
    std::printf("%-6s %-12.12s %-10.10s %-10s %s %4.0f%% %-10.10s %s %8.1f "
                "%8.1f %10s%s\n",
                s.id.c_str(), s.name.c_str(), s.tenant.c_str(),
                serve::job_state_name(s.state), progress_bar(s.fraction, 14).c_str(),
                s.fraction * 100.0, s.phase.c_str(), lnl, s.queue_s, s.run_s,
                comm.c_str(), s.cache_hit ? "  [cache]" : "");
    if (!s.error.empty()) std::printf("       error: %s\n", s.error.c_str());
  }
  if (jobs.empty()) std::printf("(no jobs)\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = Cli::parse_or_exit(kCli, argc, argv);
  const std::string& target = cli.text("socket");
  const long long interval_ms = cli.integer("interval-ms");
  const bool once = cli.has("once");

  try {
    serve::Client client = serve::Client::connect(target);
    for (;;) {
      const auto jobs = client.list();
      const std::string metrics = client.metrics();
      paint(target, jobs, metrics, !once);
      if (once) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "raxh_top: %s\n", e.what());
    return 1;
  }
}
