// Live run telemetry: the in-flight counterpart of the post-mortem exports
// in obs.h. Three layers:
//
//  * A per-rank **progress model** — the current stage, units completed vs
//    granted under the Table-2 schedule law, the best log-likelihood seen so
//    far — updated from the analysis code (core/comprehensive.cpp) with a
//    handful of mutex-protected writes per *search unit* (tens per run, far
//    off the likelihood hot path).
//  * A **HeartbeatWriter** monitor thread that samples the model plus the
//    obs counters on an interval and appends newline-delimited JSON to
//    <dir>/rank<r>.ndjson. File-per-rank because minimpi's ProcessComm ranks
//    are forked processes sharing no address space — the filesystem is the
//    one channel that needs no collective participation.
//  * A rank-0 **HeartbeatAggregator** that tails the heartbeat directory,
//    estimates a fleet ETA from per-rank progress rates, flags stragglers
//    (progress rate lagging the median by a configurable factor), and logs a
//    one-line live status.
//
// The ETA/straggler math is exposed as pure functions over parsed heartbeat
// records so tests can drive it with synthetic streams.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace raxh::obs {

// ---------------------------------------------------------------------------
// Progress model
// ---------------------------------------------------------------------------

// One stage of this rank's planned work. `unit_weight` is the relative cost
// of one unit of this stage vs one bootstrap replicate; it only shapes the
// progress fraction (and thus the ETA), not any scheduling decision.
struct StagePlan {
  std::string name;
  int units = 0;
  double unit_weight = 1.0;
};

struct ProgressSnapshot {
  int rank = -1;
  std::string phase;        // current stage name ("" before begin_run)
  int units_done = 0;       // completed units of the current stage
  int units_total = 0;      // granted units of the current stage
  double fraction = 0.0;    // weighted progress over the whole plan, [0, 1]
  double best_lnl = 0.0;    // best log-likelihood so far (valid iff has_lnl)
  bool has_lnl = false;
  double elapsed_s = 0.0;   // since begin_run
  bool running = false;     // between begin_run and end_run
};

// One rank's progress model. A one-shot run reports into the process-default
// instance (default_live_model(); each ProcessComm rank is its own process),
// which is also what HeartbeatWriter samples. A served job owns one LiveModel
// per logical rank (JobContext::live_models), so N concurrent jobs in one
// process tree never share one.
//
// All methods are thread-safe: updates arrive per search unit (tens per
// run) and reads at heartbeat/stream rate (a few Hz), so one mutex-protected
// struct is the whole model — nothing here is near the likelihood hot path.
class LiveModel {
 public:
  LiveModel();
  ~LiveModel();
  LiveModel(const LiveModel&) = delete;
  LiveModel& operator=(const LiveModel&) = delete;

  // Install this rank's plan and start the run clock. Resets prior state.
  void begin_run(int rank, std::vector<StagePlan> plan);

  // Enter a stage. Names in the plan reset the unit counters to that stage's
  // grant; other names (e.g. "sync", "finalize") just relabel the phase.
  void begin_stage(const std::string& name);

  // One unit of the current stage completed.
  void unit_done();

  // Report a log-likelihood; the model keeps the maximum. Callers must feed
  // scores under one criterion only (the comprehensive run reports its CAT
  // search scores) — mixing criteria would make the max meaningless.
  void report_lnl(double lnl);

  // Mark the run finished: fraction snaps to 1, phase to "done".
  void end_run();

  [[nodiscard]] ProgressSnapshot snapshot();

  // Clears the model (tests; obs::reset()).
  void reset();
  // Fork-child reinitialization: the inherited mutex state is undefined to
  // lock, so it is re-initialized in place before clearing. Only for the
  // single-threaded child of a fork.
  void reset_for_fork();

 private:
  struct Impl;
  Impl* impl_;
};

// The process-default model: a one-shot run's progress, the model
// HeartbeatWriter samples, and JobContext::live_for_rank's fallback.
[[nodiscard]] LiveModel& default_live_model();

// ---------------------------------------------------------------------------
// Heartbeat wire format
// ---------------------------------------------------------------------------

// One parsed heartbeat line.
struct Heartbeat {
  std::uint64_t ts_ns = 0;
  int rank = -1;
  std::string phase;
  int units_done = 0;
  int units_total = 0;
  double fraction = 0.0;
  double best_lnl = 0.0;
  bool has_lnl = false;
  double elapsed_s = 0.0;
  bool done = false;
  std::uint64_t newview_calls = 0;
  std::uint64_t rank_failures = 0;  // dead peers this rank has detected
};

// Render one ndjson heartbeat line (no trailing newline). `rank_failures`
// surfaces the fault-tolerant driver's failure events in the live stream
// (only rank 0, the failure detector, reports nonzero values).
[[nodiscard]] std::string format_heartbeat_line(const ProgressSnapshot& snap,
                                                std::uint64_t ts_ns,
                                                std::uint64_t newview_calls,
                                                std::uint64_t rank_failures = 0);

// Parse a heartbeat line; nullopt on malformed input (the aggregator must
// tolerate torn final lines from a writer mid-append).
[[nodiscard]] std::optional<Heartbeat> parse_heartbeat_line(
    const std::string& line);

// Per-rank heartbeat file path under `dir`.
[[nodiscard]] std::string heartbeat_path(const std::string& dir, int rank);

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct HeartbeatOptions {
  std::string dir;        // created if missing
  int rank = 0;
  int interval_ms = 250;  // sampling period of the monitor thread
};

// Publishes this rank's progress (the default model) as ndjson heartbeats
// from a monitor thread.
// Writes one line immediately on start and a final line on stop, so even
// sub-interval runs leave a parseable record. Construct only after forking
// (each ProcessComm rank owns its writer).
class HeartbeatWriter {
 public:
  explicit HeartbeatWriter(HeartbeatOptions options);
  ~HeartbeatWriter();
  HeartbeatWriter(const HeartbeatWriter&) = delete;
  HeartbeatWriter& operator=(const HeartbeatWriter&) = delete;

  // Write the final heartbeat and join the monitor thread. Idempotent.
  void stop();

 private:
  struct Impl;
  Impl* impl_;
};

// ---------------------------------------------------------------------------
// Aggregation (rank 0)
// ---------------------------------------------------------------------------

struct FleetStatus {
  int ranks_reporting = 0;      // ranks whose heartbeat file parsed
  int nranks = 0;
  double fraction = 0.0;        // mean progress over reporting ranks
  double eta_s = -1.0;          // wall seconds to fleet completion; -1 unknown
  double best_lnl = 0.0;
  bool has_lnl = false;
  // Ranks whose progress rate lags the median by more than the factor,
  // paired with their rate as a multiple of the median (e.g. 0.33).
  std::vector<std::pair<int, double>> stragglers;
};

// Pure ETA/straggler math over the latest heartbeat per rank. The fleet ETA
// is the slowest rank's projected remaining time (the run ends at the final
// collective, so the fleet finishes when its last rank does). A rank is a
// straggler when its progress rate (fraction/elapsed) is below
// median_rate / straggler_factor; finished ranks are never flagged.
[[nodiscard]] FleetStatus aggregate_status(const std::vector<Heartbeat>& latest,
                                           int nranks,
                                           double straggler_factor);

// The one-line live status rendered by the aggregator.
[[nodiscard]] std::string format_status_line(const FleetStatus& status);

// One scan of the heartbeat directory: parse each rank's newest complete
// line and aggregate. Exposed for tests and for one-shot status queries.
[[nodiscard]] FleetStatus scan_heartbeat_dir(const std::string& dir,
                                             int nranks,
                                             double straggler_factor);

struct AggregatorOptions {
  std::string dir;
  int nranks = 1;
  double straggler_factor = 2.0;
  int interval_ms = 1000;
};

// Rank 0's monitor: periodically scans the heartbeat dir and logs the
// status line via the process logger.
class HeartbeatAggregator {
 public:
  explicit HeartbeatAggregator(AggregatorOptions options);
  ~HeartbeatAggregator();
  HeartbeatAggregator(const HeartbeatAggregator&) = delete;
  HeartbeatAggregator& operator=(const HeartbeatAggregator&) = delete;

  // Final scan + status line, then join. Idempotent.
  void stop();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace raxh::obs
