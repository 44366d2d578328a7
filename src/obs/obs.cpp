#include "obs/obs.h"

#include <pthread.h>

#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>
#include <new>

#include "obs/comm_obs.h"
#include "obs/hist.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/telemetry.h"
#include "obs/trace_json.h"

namespace raxh::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {
std::atomic<int> g_rank{-1};
}  // namespace

// One per thread: the thread's tally (owner-only writes, see telemetry.h)
// and its span ring. The phase track is one more ThreadState whose tally
// stays empty.
struct ThreadState {
  int tid = 0;
  Tally tally;

  struct SpanEvent {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };
  std::mutex trace_mutex;  // uncontended: owner writes, exporter reads
  SpanRing<SpanEvent> ring{kTraceCapacity};
};

namespace {

struct Registry {
  std::mutex mutex;
  // shared_ptr so a thread's spans, counters and latencies outlive the
  // thread (crew workers are torn down per analysis, but their data belongs
  // to the run).
  std::vector<std::shared_ptr<ThreadState>> states;
  // Process-wide track for phase markers, exported as tid kPhaseTrackTid.
  // Kept out of `states` so phase spans never compete with per-thread rings.
  ThreadState phase_track;
  int next_tid = 0;

  Registry() { phase_track.tid = kPhaseTrackTid; }
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static teardown
  return *r;
}

void clear_state(ThreadState& state) {
  state.tally.clear();
  std::lock_guard<std::mutex> lock(state.trace_mutex);
  state.ring.clear();
}

void clear_all_locked(Registry& reg) {
  for (auto& state : reg.states) clear_state(*state);
  clear_state(reg.phase_track);
}

// Forked children must not re-export the parent's pre-fork history: minimpi's
// ProcessComm forks rank 1.. from rank 0 after setup, and a child that kept
// the inherited spans would duplicate them in the merged timeline.
void atfork_child() {
  Registry& reg = registry();
  // Fresh mutexes: the forked child owns single-threaded copies, but a mutex
  // state inherited mid-flight would be undefined to lock.
  new (&reg.mutex) std::mutex;
  for (auto& state : reg.states) new (&state->trace_mutex) std::mutex;
  new (&reg.phase_track.trace_mutex) std::mutex;
  clear_all_locked(reg);
  run_phases_reset_for_fork();
  default_live_model().reset_for_fork();
  comm::reset_for_fork();
}

std::once_flag g_atfork_once;

thread_local std::shared_ptr<ThreadState> t_state;

// This thread's state block (registered globally on first use).
ThreadState& thread_state() {
  if (!t_state) {
    std::call_once(g_atfork_once,
                   [] { ::pthread_atfork(nullptr, nullptr, atfork_child); });
    auto fresh = std::make_shared<ThreadState>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    fresh->tid = reg.next_tid++;
    reg.states.push_back(fresh);
    t_state = std::move(fresh);
  }
  return *t_state;
}

}  // namespace

// Job attribution: a thread bound to a JobObs (serving layer) mirrors each
// counter increment and histogram sample into the job's tally, so per-job
// deltas sum to the global delta. Unbound threads (every one-shot run) pay
// one TLS load + branch.
void add_count(Counter c, std::uint64_t n) {
  thread_state().tally.add_count<Writers::kOwner>(c, n);
  if (JobObs* job = t_job_sink) job->tally().add_count<Writers::kShared>(c, n);
}

void hist_add(Hist h, std::uint64_t ns) {
  thread_state().tally.add_hist<Writers::kOwner>(h, ns);
  if (JobObs* job = t_job_sink) job->tally().add_hist<Writers::kShared>(h, ns);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_rank(int r) { detail::g_rank.store(r, std::memory_order_relaxed); }

int rank() { return detail::g_rank.load(std::memory_order_relaxed); }

namespace {
thread_local std::uint64_t t_synthetic_delay_ns = 0;
}  // namespace

void add_synthetic_delay_ns(std::uint64_t ns) {
  t_synthetic_delay_ns += ns;
  count(Counter::kSyntheticDelayNs, ns);
}

std::uint64_t synthetic_delay_ns_this_thread() { return t_synthetic_delay_ns; }

void reset() {
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  detail::clear_all_locked(reg);
  run_phases().clear();
  default_live_model().reset();
  set_rank(-1);
}

const char* counter_name(Counter c) {
  // Indexed by Counter; the export names are part of the metrics JSON.
  static constexpr const char* kNames[] = {
      "newview_calls", "evaluate_calls", "derivative_calls",
      "patterns_evaluated", "reduction_calls", "workforce_jobs",
      "barrier_wait_ns", "spans_dropped", "faults_injected", "rank_failures",
      "units_regranted", "synthetic_delay_ns", "align_parses",
      "align_cache_hits", "align_cache_misses", "align_cache_evictions",
      "serve_jobs_submitted", "serve_jobs_completed", "comm_bytes_sent",
      "comm_bytes_recv", "comm_ring_stalls", "comm_ring_stall_ns",
      "kernel_fallbacks"};
  static_assert(std::size(kNames) == kNumCounters);
  const int i = static_cast<int>(c);
  return i >= 0 && i < kNumCounters ? kNames[i] : "unknown";
}

CounterSnapshot counters_snapshot() {
  CounterSnapshot snap;
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& state : reg.states) state->tally.fold_counters(snap);
  return snap;
}

HistSnapshot hist_snapshot(Hist h) {
  HistSnapshot snap;
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& state : reg.states) state->tally.fold_hist(h, snap);
  return snap;
}

void hist_reset() {
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& state : reg.states) state->tally.clear_hists();
}

namespace {

void push_span(detail::ThreadState& state, std::string name,
               std::uint64_t start_ns, std::uint64_t dur_ns) {
  bool evicted;
  {
    std::lock_guard<std::mutex> lock(state.trace_mutex);
    evicted = state.ring.push({std::move(name), start_ns, dur_ns});
  }
  if (evicted) detail::add_count(Counter::kSpansDropped, 1);
}

}  // namespace

void record_span(std::string name, std::uint64_t start_ns,
                 std::uint64_t dur_ns) {
  // A thread bound to a job routes its spans into the job's ring instead of
  // the process-global one: the daemon's merged trace nests them under the
  // owning job, and concurrent jobs stop interleaving in one timeline.
  if (JobObs* job = detail::t_job_sink) {
    const int lane = detail::t_job_lane >= 0
                         ? detail::t_job_lane
                         : kJobUnlanedTidBase + detail::thread_state().tid;
    job->add_span(std::move(name), start_ns, dur_ns, lane);
    return;
  }
  push_span(detail::thread_state(), std::move(name), start_ns, dur_ns);
}

void record_phase_span(std::string name, std::uint64_t start_ns,
                       std::uint64_t dur_ns) {
  if (JobObs* job = detail::t_job_sink) {
    job->set_lane_name(kJobPhaseLane, "phases");
    job->add_span(std::move(name), start_ns, dur_ns, kJobPhaseLane);
    return;
  }
  push_span(detail::registry().phase_track, std::move(name), start_ns,
            dur_ns);
}

std::string export_trace_fragment(int my_rank) {
  const int pid = my_rank >= 0 ? my_rank : 0;
  std::string out;
  bool first = true;
  // Process-name metadata so Perfetto labels each rank's track group.
  detail::append_name_event(out, pid, -1, "rank " + std::to_string(pid), first);

  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  bool any_event = false;
  // The phase track also gets a thread_name metadata event ahead of its
  // spans.
  const auto emit_ring = [&](detail::ThreadState& state, bool named) {
    std::lock_guard<std::mutex> tlock(state.trace_mutex);
    if (state.ring.empty()) return;
    any_event = true;
    if (named) detail::append_name_event(out, pid, state.tid, "phases", first);
    state.ring.visit([&](const detail::ThreadState::SpanEvent& e) {
      detail::append_span_event(out, e.name, e.start_ns, e.dur_ns, pid,
                                state.tid, first);
    });
  };
  for (const auto& state : reg.states) emit_ring(*state, false);
  emit_ring(reg.phase_track, true);
  return any_event ? out : std::string();
}

namespace {

// The non-empty fragments joined by ",\n" between `open` and `close`.
std::string join_fragments(const char* open,
                           const std::vector<std::string>& fragments,
                           const char* close) {
  std::string out = open;
  bool first = true;
  for (const auto& frag : fragments) {
    if (frag.empty()) continue;
    if (!first) out += ",\n";
    first = false;
    out += frag;
  }
  out += close;
  return out;
}

}  // namespace

std::string merge_trace_fragments(const std::vector<std::string>& fragments) {
  return join_fragments("{\"traceEvents\":[\n", fragments,
                        "\n],\"displayTimeUnit\":\"ms\"}\n");
}

std::string export_metrics_fragment(int my_rank,
                                    const std::string& extra_sections) {
  const CounterSnapshot snap = counters_snapshot();
  std::string out = "{\"rank\":" + std::to_string(my_rank >= 0 ? my_rank : 0);
  out += ",\"counters\":{";
  for (int i = 0; i < kNumCounters; ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += counter_name(static_cast<Counter>(i));
    out += "\":" + std::to_string(snap.values[i]);
  }
  out += "},\"phases\":{";
  bool first = true;
  for (const auto& [name, secs] : run_phases().phases()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    detail::append_json_escaped(out, name);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "\":%.6f", secs);
    out += buf;
  }
  out += "},";
  out += hist_metrics_section();
  if (!extra_sections.empty()) {
    out += ",";
    out += extra_sections;
  }
  out += "}";
  return out;
}

std::string merge_metrics_fragments(const std::vector<std::string>& fragments) {
  return join_fragments("[\n", fragments, "\n]\n");
}

}  // namespace raxh::obs
