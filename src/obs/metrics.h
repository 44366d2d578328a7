// Job-scoped attribution and Prometheus text exposition — the service-level
// half of the observability stack.
//
// The counters/histograms in obs.h/hist.h are process-global: perfect for a
// one-shot run, useless for telling two concurrent daemon jobs apart. A
// JobObs block fixes that by *thread binding*: every thread working on
// behalf of a job binds the job's block (JobScope RAII; crew threads inherit
// their creator's binding), and the hot-path hooks in obs.cpp then mirror
// each counter increment and histogram sample into the job's tally as well
// as the thread's, and route each span into the job's ring instead of the
// thread's. The tally and the ring are the types a thread holds
// (telemetry.h), so counters() and hist() are the same folds the global
// snapshots use. Because each event is charged to exactly one job (or to
// none, for daemon housekeeping), per-job deltas sum to the process-global
// delta — the invariant the serving tests assert.
//
// Cost model: the disabled path is untouched — obs::count() and friends
// still return after one relaxed atomic load when observability is off, so
// the <2% disabled-overhead budget is unaffected by construction. When
// enabled, a bound thread pays one thread-local load + branch plus a relaxed
// fetch_add into the job tally per event (the tally is shared by the job's
// few threads, so unlike a thread's it uses real atomic adds and a CAS for
// the histogram max). bench_obs_overhead measures both numbers.
//
// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE preambles, escaped label values, and log2
// histograms re-expressed as cumulative `le` buckets in seconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/hist.h"
#include "obs/obs.h"
#include "obs/telemetry.h"

namespace raxh::obs {

// ---------------------------------------------------------------------------
// JobObs: one job's attributed slice of the process-global telemetry
// ---------------------------------------------------------------------------

// Spans mirrored into a job are bounded per job; beyond this the oldest are
// overwritten (and dropped_spans() counts them). 8k spans comfortably hold a
// small job's full crew/collective history and bound a huge one's memory.
inline constexpr std::size_t kJobSpanCapacity = 8192;

// Trace-lane layout inside one job's pid: ranks bind lanes 0..nranks-1,
// phase markers land on kJobPhaseLane, and bound threads without an explicit
// lane (rare) are exported at kJobUnlanedTidBase + their process obs tid.
inline constexpr int kJobPhaseLane = 999;
inline constexpr int kJobLifecycleLane = 998;
inline constexpr int kJobUnlanedTidBase = 100;

class JobObs {
 public:
  JobObs() = default;
  JobObs(const JobObs&) = delete;
  JobObs& operator=(const JobObs&) = delete;

  // The job's counters and histograms, written by the obs.cpp hooks on
  // bound threads. A job's threads add concurrently, so writers use
  // Writers::kShared.
  detail::Tally& tally() { return tally_; }
  void add_span(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns,
                int lane);

  // Comm-plane stall gauge: net count of the job's sender threads currently
  // blocked on a full shm ring (raxh_top's per-job stall state).
  void comm_stall_delta(int d) {
    comm_stalled_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] int comm_stalled() const {
    return comm_stalled_.load(std::memory_order_relaxed);
  }

  // Labels a trace lane (exported as a Chrome thread_name metadata event
  // under the job's pid). Typically "rank R" from the hybrid driver.
  void set_lane_name(int lane, std::string name);

  // Point-in-time views (any thread): folds of the job's tally.
  [[nodiscard]] CounterSnapshot counters() const {
    CounterSnapshot snap;
    tally_.fold_counters(snap);
    return snap;
  }
  [[nodiscard]] HistSnapshot hist(Hist h) const {
    HistSnapshot snap;
    tally_.fold_hist(h, snap);
    return snap;
  }
  [[nodiscard]] std::uint64_t dropped_spans() const;

  // This job's spans (plus lane-name metadata) as a Chrome trace_event
  // fragment with pid=`pid`, mergeable by obs::merge_trace_fragments.
  // Lifecycle spans the serving layer wants on a dedicated lane are passed
  // in as `extra`; the job's ring stores the same span-on-a-lane record.
  struct ExtraSpan {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    int lane = 0;
  };
  [[nodiscard]] std::string export_trace_fragment(
      int pid, const std::string& process_name,
      const std::vector<ExtraSpan>& extra) const;

 private:
  detail::Tally tally_;
  std::atomic<int> comm_stalled_{0};

  mutable std::mutex span_mu_;  // guards spans_ and lane_names_
  detail::SpanRing<ExtraSpan> spans_{kJobSpanCapacity};
  std::vector<std::pair<int, std::string>> lane_names_;
};

// ---------------------------------------------------------------------------
// Thread binding
// ---------------------------------------------------------------------------

// Binds the calling thread's telemetry to `job` (nullptr unbinds). While
// bound *and* observability is enabled, every counter/histogram/span this
// thread records is also charged to the job. The binding is thread-local;
// Workforce crews inherit their creator's binding at construction.
void bind_job(std::shared_ptr<JobObs> job);

// The calling thread's current binding (for handing down to spawned
// threads); null when unbound. current_job_lane() is the matching trace
// lane (-1 when none).
[[nodiscard]] std::shared_ptr<JobObs> current_job();
[[nodiscard]] int current_job_lane();

// RAII binding with save/restore, plus an optional lane id for span
// attribution (lanes separate a job's ranks in the exported trace; threads
// without an explicit lane inherit lane -1 and are exported under their
// process-wide obs tid).
class JobScope {
 public:
  explicit JobScope(std::shared_ptr<JobObs> job, int lane = -1);
  ~JobScope();
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  std::shared_ptr<JobObs> saved_;
  int saved_lane_;
};

namespace detail {
// Hot-path view of the binding, read by the obs.cpp hooks. Raw
// pointer: the thread-local shared_ptr set by bind_job keeps it alive.
extern thread_local JobObs* t_job_sink;
extern thread_local int t_job_lane;
}  // namespace detail

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

// Escapes a label value per the exposition format: backslash, double quote,
// and newline get backslash-escaped.
[[nodiscard]] std::string prom_escape_label(const std::string& value);

// Builder for one scrape. Each family is announced once with HELP/TYPE; the
// *_total convention for counters is the caller's responsibility (pass the
// suffixed name).
class PromWriter {
 public:
  void gauge(const std::string& name, const std::string& help, double value);
  void counter(const std::string& name, const std::string& help,
               std::uint64_t value);
  // One family, many label sets: {label_name, [(label_value, value)...]}.
  void counter_labeled(
      const std::string& name, const std::string& help,
      const std::string& label_name,
      const std::vector<std::pair<std::string, std::uint64_t>>& series);
  // Fully general variant for multi-label families (e.g. the comm-plane's
  // {rank,peer,op,dir} edges): each entry's first element is the complete
  // pre-rendered label set — the text between the braces, already escaped.
  void counter_multilabeled(
      const std::string& name, const std::string& help,
      const std::vector<std::pair<std::string, std::uint64_t>>& series);
  void gauge_multilabeled(
      const std::string& name, const std::string& help,
      const std::vector<std::pair<std::string, double>>& series);
  // A log2-ns histogram as a Prometheus histogram in seconds: cumulative
  // `le` buckets at each power-of-two boundary that holds samples, then
  // `+Inf`, `_sum`, `_count`.
  void histogram_ns(const std::string& name, const std::string& help,
                    const HistSnapshot& snap);

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void preamble(const std::string& name, const std::string& help,
                const char* type);
  std::string out_;
};

}  // namespace raxh::obs
