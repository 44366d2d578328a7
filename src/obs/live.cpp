#include "obs/live.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <new>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "util/log.h"

namespace raxh::obs {

// ---------------------------------------------------------------------------
// Progress model
// ---------------------------------------------------------------------------

namespace {

double plan_total_weight(const std::vector<StagePlan>& plan) {
  double total = 0.0;
  for (const auto& s : plan) total += s.units * s.unit_weight;
  return total;
}

}  // namespace

struct LiveModel::Impl {
  std::mutex mutex;
  int rank = -1;
  std::vector<StagePlan> plan;
  int current_stage = -1;       // index into plan; -1 = unplanned phase
  std::string phase;
  int units_done = 0;
  int units_total = 0;
  double weight_done = 0.0;     // completed prior stages
  double best_lnl = 0.0;
  bool has_lnl = false;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;     // nonzero once end_run ran
  bool running = false;

  void clear_locked() {
    rank = -1;
    plan.clear();
    current_stage = -1;
    phase.clear();
    units_done = 0;
    units_total = 0;
    weight_done = 0.0;
    best_lnl = 0.0;
    has_lnl = false;
    begin_ns = 0;
    end_ns = 0;
    running = false;
  }
};

LiveModel::LiveModel() : impl_(new Impl) {}
LiveModel::~LiveModel() { delete impl_; }

void LiveModel::begin_run(int rank, std::vector<StagePlan> plan) {
  Impl& m = *impl_;
  std::lock_guard<std::mutex> lock(m.mutex);
  m.clear_locked();
  m.rank = rank;
  m.plan = std::move(plan);
  m.begin_ns = now_ns();
  m.running = true;
}

void LiveModel::begin_stage(const std::string& name) {
  Impl& m = *impl_;
  std::lock_guard<std::mutex> lock(m.mutex);
  // Credit whatever the previous planned stage completed before moving on.
  if (m.current_stage >= 0) {
    const StagePlan& prev = m.plan[static_cast<std::size_t>(m.current_stage)];
    m.weight_done += m.units_done * prev.unit_weight;
  }
  m.phase = name;
  m.current_stage = -1;
  m.units_done = 0;
  m.units_total = 0;
  for (std::size_t i = 0; i < m.plan.size(); ++i) {
    if (m.plan[i].name == name) {
      m.current_stage = static_cast<int>(i);
      m.units_total = m.plan[i].units;
      break;
    }
  }
}

void LiveModel::unit_done() {
  Impl& m = *impl_;
  std::lock_guard<std::mutex> lock(m.mutex);
  ++m.units_done;
}

void LiveModel::report_lnl(double lnl) {
  Impl& m = *impl_;
  std::lock_guard<std::mutex> lock(m.mutex);
  if (!m.has_lnl || lnl > m.best_lnl) {
    m.best_lnl = lnl;
    m.has_lnl = true;
  }
}

void LiveModel::end_run() {
  Impl& m = *impl_;
  std::lock_guard<std::mutex> lock(m.mutex);
  if (m.current_stage >= 0) {
    const StagePlan& prev = m.plan[static_cast<std::size_t>(m.current_stage)];
    m.weight_done += m.units_done * prev.unit_weight;
    m.current_stage = -1;
  }
  m.phase = "done";
  m.units_done = 0;
  m.units_total = 0;
  m.end_ns = now_ns();
  m.running = false;
}

ProgressSnapshot LiveModel::snapshot() {
  Impl& m = *impl_;
  std::lock_guard<std::mutex> lock(m.mutex);
  ProgressSnapshot snap;
  snap.rank = m.rank;
  snap.phase = m.phase;
  snap.units_done = m.units_done;
  snap.units_total = m.units_total;
  snap.best_lnl = m.best_lnl;
  snap.has_lnl = m.has_lnl;
  snap.running = m.running;
  const double total = plan_total_weight(m.plan);
  if (m.phase == "done" && m.end_ns != 0) {
    snap.fraction = 1.0;
  } else if (total > 0.0) {
    double done = m.weight_done;
    if (m.current_stage >= 0)
      done += m.units_done *
              m.plan[static_cast<std::size_t>(m.current_stage)].unit_weight;
    snap.fraction = std::clamp(done / total, 0.0, 1.0);
  }
  if (m.begin_ns != 0) {
    const std::uint64_t end = m.end_ns != 0 ? m.end_ns : now_ns();
    snap.elapsed_s = static_cast<double>(end - m.begin_ns) * 1e-9;
  }
  return snap;
}

void LiveModel::reset() {
  Impl& m = *impl_;
  std::lock_guard<std::mutex> lock(m.mutex);
  m.clear_locked();
}

void LiveModel::reset_for_fork() {
  Impl& m = *impl_;
  // Single-threaded forked child; the inherited mutex state is undefined to
  // lock, so re-initialize it in place before clearing.
  new (&m.mutex) std::mutex;
  m.clear_locked();
}

LiveModel& default_live_model() {
  static LiveModel* m = new LiveModel;  // leaked: teardown safe
  return *m;
}

// ---------------------------------------------------------------------------
// Heartbeat wire format
// ---------------------------------------------------------------------------

namespace {

// Phase names are internal identifiers, but keep the line valid JSON for any
// input: escape the two structural characters and flatten control bytes.
void append_escaped(std::string& out, const std::string& s) {
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
}

// Locates `"key":` and parses the number after it; false if absent/NaN.
bool find_number(const std::string& line, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start || std::isnan(v)) return false;
  *out = v;
  return true;
}

bool find_string(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::string value;
  for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      value += line[++i];
    } else if (line[i] == '"') {
      *out = std::move(value);
      return true;
    } else {
      value += line[i];
    }
  }
  return false;  // unterminated string: torn line
}

}  // namespace

std::string format_heartbeat_line(const ProgressSnapshot& snap,
                                  std::uint64_t ts_ns,
                                  std::uint64_t newview_calls,
                                  std::uint64_t rank_failures) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{\"ts_ns\":%llu,\"rank\":%d,\"phase\":\"",
                static_cast<unsigned long long>(ts_ns), snap.rank);
  out += buf;
  append_escaped(out, snap.phase);
  std::snprintf(buf, sizeof(buf),
                "\",\"units_done\":%d,\"units_total\":%d,\"fraction\":%.4f,"
                "\"elapsed_s\":%.3f,\"best_lnl\":",
                snap.units_done, snap.units_total, snap.fraction,
                snap.elapsed_s);
  out += buf;
  if (snap.has_lnl) {
    std::snprintf(buf, sizeof(buf), "%.6f", snap.best_lnl);
    out += buf;
  } else {
    out += "null";
  }
  std::snprintf(buf, sizeof(buf), ",\"newview_calls\":%llu",
                static_cast<unsigned long long>(newview_calls));
  out += buf;
  if (rank_failures > 0) {
    std::snprintf(buf, sizeof(buf), ",\"rank_failures\":%llu",
                  static_cast<unsigned long long>(rank_failures));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ",\"done\":%s}",
                snap.phase == "done" ? "true" : "false");
  out += buf;
  return out;
}

std::optional<Heartbeat> parse_heartbeat_line(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  Heartbeat hb;
  double ts = 0.0, rank = 0.0, frac = 0.0, elapsed = 0.0;
  if (!find_number(line, "ts_ns", &ts) || !find_number(line, "rank", &rank) ||
      !find_number(line, "fraction", &frac) ||
      !find_number(line, "elapsed_s", &elapsed) ||
      !find_string(line, "phase", &hb.phase))
    return std::nullopt;
  hb.ts_ns = static_cast<std::uint64_t>(ts);
  hb.rank = static_cast<int>(rank);
  hb.fraction = frac;
  hb.elapsed_s = elapsed;
  double v = 0.0;
  if (find_number(line, "units_done", &v)) hb.units_done = static_cast<int>(v);
  if (find_number(line, "units_total", &v))
    hb.units_total = static_cast<int>(v);
  if (find_number(line, "best_lnl", &v)) {
    hb.best_lnl = v;
    hb.has_lnl = true;
  }
  if (find_number(line, "newview_calls", &v))
    hb.newview_calls = static_cast<std::uint64_t>(v);
  if (find_number(line, "rank_failures", &v))
    hb.rank_failures = static_cast<std::uint64_t>(v);
  hb.done = line.find("\"done\":true") != std::string::npos;
  return hb;
}

std::string heartbeat_path(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".ndjson";
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct HeartbeatWriter::Impl {
  HeartbeatOptions options;
  std::ofstream out;
  std::thread monitor;
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;

  void beat() {
    ProgressSnapshot snap = default_live_model().snapshot();
    // The model only learns the rank at begin_run; beats before that
    // (the immediate first one) must still carry this writer's rank.
    snap.rank = options.rank;
    const CounterSnapshot counters = counters_snapshot();
    out << format_heartbeat_line(snap, now_ns(),
                                 counters[Counter::kNewviewCalls],
                                 counters[Counter::kRankFailures])
        << '\n';
    out.flush();  // the aggregator tails this file from another process
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      lock.unlock();
      beat();
      lock.lock();
      cv.wait_for(lock, std::chrono::milliseconds(options.interval_ms),
                  [this] { return stopping; });
    }
  }
};

HeartbeatWriter::HeartbeatWriter(HeartbeatOptions options)
    : impl_(new Impl) {
  impl_->options = std::move(options);
  std::error_code ec;
  std::filesystem::create_directories(impl_->options.dir, ec);
  const std::string path =
      heartbeat_path(impl_->options.dir, impl_->options.rank);
  impl_->out.open(path, std::ios::trunc);
  if (!impl_->out) {
    log_warn("heartbeat: cannot write %s; live telemetry disabled",
             path.c_str());
    return;
  }
  impl_->monitor = std::thread([this] { impl_->loop(); });
}

void HeartbeatWriter::stop() {
  if (!impl_) return;
  if (impl_->monitor.joinable()) {
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      impl_->stopping = true;
    }
    impl_->cv.notify_all();
    impl_->monitor.join();
    impl_->beat();  // final state (typically phase "done", fraction 1)
  }
  delete impl_;
  impl_ = nullptr;
}

HeartbeatWriter::~HeartbeatWriter() { stop(); }

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

FleetStatus aggregate_status(const std::vector<Heartbeat>& latest, int nranks,
                             double straggler_factor) {
  FleetStatus status;
  status.nranks = nranks;
  status.ranks_reporting = static_cast<int>(latest.size());
  if (latest.empty()) return status;

  struct RankRate {
    int rank;
    double rate;      // progress fraction per second
    bool finished;
  };
  std::vector<RankRate> rates;
  double frac_sum = 0.0;
  double eta = -1.0;
  bool all_finished = true;
  for (const auto& hb : latest) {
    const double frac = std::clamp(hb.fraction, 0.0, 1.0);
    frac_sum += frac;
    if (hb.has_lnl && (!status.has_lnl || hb.best_lnl > status.best_lnl)) {
      status.best_lnl = hb.best_lnl;
      status.has_lnl = true;
    }
    const bool finished = hb.done || frac >= 1.0;
    if (!finished) all_finished = false;
    if (hb.elapsed_s > 0.0 && frac > 0.0) {
      const double rate = frac / hb.elapsed_s;
      rates.push_back(RankRate{hb.rank, rate, finished});
      if (!finished) eta = std::max(eta, (1.0 - frac) / rate);
    }
  }
  status.fraction = frac_sum / static_cast<double>(latest.size());
  status.eta_s = all_finished ? 0.0 : eta;

  if (rates.size() >= 2 && straggler_factor > 1.0) {
    std::vector<double> sorted;
    sorted.reserve(rates.size());
    for (const auto& r : rates) sorted.push_back(r.rate);
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const double median = n % 2 == 1
                              ? sorted[n / 2]
                              : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    if (median > 0.0) {
      for (const auto& r : rates) {
        if (!r.finished && r.rate < median / straggler_factor)
          status.stragglers.emplace_back(r.rank, r.rate / median);
      }
      std::sort(status.stragglers.begin(), status.stragglers.end());
    }
  }
  return status;
}

std::string format_status_line(const FleetStatus& status) {
  char buf[128];
  std::string out;
  std::snprintf(buf, sizeof(buf), "live: %5.1f%% done, %d/%d ranks",
                status.fraction * 100.0, status.ranks_reporting,
                status.nranks);
  out += buf;
  if (status.eta_s >= 0.0) {
    std::snprintf(buf, sizeof(buf), ", ETA %.0fs", status.eta_s);
    out += buf;
  } else {
    out += ", ETA --";
  }
  if (status.has_lnl) {
    std::snprintf(buf, sizeof(buf), ", best lnL %.4f", status.best_lnl);
    out += buf;
  }
  for (const auto& [rank, ratio] : status.stragglers) {
    std::snprintf(buf, sizeof(buf), ", STRAGGLER rank %d (%.2fx median)",
                  rank, ratio);
    out += buf;
  }
  return out;
}

FleetStatus scan_heartbeat_dir(const std::string& dir, int nranks,
                               double straggler_factor) {
  std::vector<Heartbeat> latest;
  for (int r = 0; r < nranks; ++r) {
    std::ifstream in(heartbeat_path(dir, r));
    if (!in) continue;
    std::optional<Heartbeat> newest;
    std::string line;
    while (std::getline(in, line)) {
      // Keep the newest parseable line; a torn final line (writer mid-append
      // in another process) parses as nullopt and is skipped.
      if (auto hb = parse_heartbeat_line(line)) newest = std::move(hb);
    }
    if (newest) latest.push_back(std::move(*newest));
  }
  return aggregate_status(latest, nranks, straggler_factor);
}

struct HeartbeatAggregator::Impl {
  AggregatorOptions options;
  std::thread monitor;
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;

  void scan_and_log() {
    const FleetStatus status = scan_heartbeat_dir(
        options.dir, options.nranks, options.straggler_factor);
    if (status.ranks_reporting > 0)
      log_info("%s", format_status_line(status).c_str());
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      if (cv.wait_for(lock, std::chrono::milliseconds(options.interval_ms),
                      [this] { return stopping; }))
        break;
      lock.unlock();
      scan_and_log();
      lock.lock();
    }
  }
};

HeartbeatAggregator::HeartbeatAggregator(AggregatorOptions options)
    : impl_(new Impl) {
  impl_->options = std::move(options);
  impl_->monitor = std::thread([this] { impl_->loop(); });
}

void HeartbeatAggregator::stop() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  impl_->monitor.join();
  impl_->scan_and_log();  // final status with every rank's last heartbeat
  delete impl_;
  impl_ = nullptr;
}

HeartbeatAggregator::~HeartbeatAggregator() { stop(); }

}  // namespace raxh::obs
