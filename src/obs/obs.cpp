#include "obs/obs.h"

#include <pthread.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <new>

#include "obs/comm_obs.h"
#include "obs/hist.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace_json.h"

namespace raxh::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {
std::atomic<int> g_rank{-1};
}  // namespace

// One per thread, padded so no two threads' counters share a cache line.
// Owner-thread writes are relaxed atomic stores (no lock prefix); snapshot
// reads from other threads are relaxed loads — race-free under TSan.
struct alignas(64) ThreadState {
  int tid = 0;
  std::atomic<std::uint64_t> counters[kNumCounters] = {};

  struct SpanEvent {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };
  std::mutex trace_mutex;           // uncontended: owner writes, exporter reads
  std::vector<SpanEvent> ring;      // bounded at kTraceCapacity
  std::size_t ring_next = 0;        // insertion cursor once full
  bool ring_full = false;
};

namespace {

struct Registry {
  std::mutex mutex;
  // shared_ptr so a thread's spans and counters outlive the thread (crew
  // workers are torn down per analysis, but their data belongs to the run).
  std::vector<std::shared_ptr<ThreadState>> states;
  // Process-wide track for phase markers, exported as tid kPhaseTrackTid.
  // Kept out of `states` so phase spans never compete with per-thread rings.
  std::shared_ptr<ThreadState> phase_track;
  int next_tid = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static teardown
  return *r;
}

void clear_state(ThreadState& state) {
  for (auto& c : state.counters) c.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state.trace_mutex);
  state.ring.clear();
  state.ring_next = 0;
  state.ring_full = false;
}

void clear_all_locked(Registry& reg) {
  for (auto& state : reg.states) clear_state(*state);
  if (reg.phase_track) clear_state(*reg.phase_track);
}

// Forked children must not re-export the parent's pre-fork history: minimpi's
// ProcessComm forks rank 1.. from rank 0 after setup, and a child that kept
// the inherited spans would duplicate them in the merged timeline.
void atfork_child() {
  Registry& reg = registry();
  // Fresh mutexes: the forked child owns single-threaded copies, but a mutex
  // state inherited mid-flight would be undefined to lock.
  new (&reg.mutex) std::mutex;
  for (auto& state : reg.states)
    new (&state->trace_mutex) std::mutex;
  if (reg.phase_track) new (&reg.phase_track->trace_mutex) std::mutex;
  clear_all_locked(reg);
  run_phases_reset_for_fork();
  hist_reset_for_fork();
  default_live_model().reset_for_fork();
  comm::reset_for_fork();
}

std::once_flag g_atfork_once;

thread_local std::shared_ptr<ThreadState> t_state;

}  // namespace

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

void add_count(Counter c, std::uint64_t n) {
  auto& slot = thread_state().counters[static_cast<int>(c)];
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  // Job attribution: a thread bound to a JobObs (serving layer) mirrors the
  // increment into the job's block, so per-job deltas sum to the global
  // delta. Unbound threads (every one-shot run) pay one TLS load + branch.
  if (JobObs* job = t_job_sink) job->add_count(c, n);
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
  hist_reset();
  default_live_model().reset();
  set_rank(-1);
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kNewviewCalls:
      return "newview_calls";
    case Counter::kEvaluateCalls:
      return "evaluate_calls";
    case Counter::kDerivativeCalls:
      return "derivative_calls";
    case Counter::kPatternsEvaluated:
      return "patterns_evaluated";
    case Counter::kReductionCalls:
      return "reduction_calls";
    case Counter::kWorkforceJobs:
      return "workforce_jobs";
    case Counter::kBarrierWaitNs:
      return "barrier_wait_ns";
    case Counter::kSpansDropped:
      return "spans_dropped";
    case Counter::kFaultsInjected:
      return "faults_injected";
    case Counter::kRankFailures:
      return "rank_failures";
    case Counter::kUnitsRegranted:
      return "units_regranted";
    case Counter::kSyntheticDelayNs:
      return "synthetic_delay_ns";
    case Counter::kAlignParses:
      return "align_parses";
    case Counter::kAlignCacheHits:
      return "align_cache_hits";
    case Counter::kAlignCacheMisses:
      return "align_cache_misses";
    case Counter::kAlignCacheEvictions:
      return "align_cache_evictions";
    case Counter::kServeJobsSubmitted:
      return "serve_jobs_submitted";
    case Counter::kServeJobsCompleted:
      return "serve_jobs_completed";
    case Counter::kCommBytesSent:
      return "comm_bytes_sent";
    case Counter::kCommBytesRecv:
      return "comm_bytes_recv";
    case Counter::kCommRingStalls:
      return "comm_ring_stalls";
    case Counter::kCommRingStallNs:
      return "comm_ring_stall_ns";
    case Counter::kKernelFallback:
      return "kernel_fallbacks";
    case Counter::kCount:
      break;
  }
  return "unknown";
}

CounterSnapshot counters_snapshot() {
  CounterSnapshot snap;
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& state : reg.states)
    for (int i = 0; i < kNumCounters; ++i)
      snap.values[i] += state->counters[i].load(std::memory_order_relaxed);
  return snap;
}

namespace {

void push_span(detail::ThreadState& state, std::string name,
               std::uint64_t start_ns, std::uint64_t dur_ns) {
  std::lock_guard<std::mutex> lock(state.trace_mutex);
  detail::ThreadState::SpanEvent event{std::move(name), start_ns, dur_ns};
  if (state.ring.size() < kTraceCapacity) {
    state.ring.push_back(std::move(event));
    return;
  }
  state.ring_full = true;
  state.ring[state.ring_next] = std::move(event);
  state.ring_next = (state.ring_next + 1) % kTraceCapacity;
  detail::add_count(Counter::kSpansDropped, 1);
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
  auto& reg = detail::registry();
  std::shared_ptr<detail::ThreadState> track;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (!reg.phase_track) {
      reg.phase_track = std::make_shared<detail::ThreadState>();
      reg.phase_track->tid = kPhaseTrackTid;
    }
    track = reg.phase_track;
  }
  push_span(*track, std::move(name), start_ns, dur_ns);
}

std::string export_trace_fragment(int my_rank) {
  const int pid = my_rank >= 0 ? my_rank : 0;
  std::string out;
  bool first = true;

  // Process-name metadata so Perfetto labels each rank's track group.
  {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"rank %d\"}}",
                  pid, pid);
    out += buf;
    first = false;
  }

  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  bool any_event = false;
  const auto emit_ring = [&](detail::ThreadState& state) {
    std::lock_guard<std::mutex> tlock(state.trace_mutex);
    if (state.ring.empty()) return;
    any_event = true;
    // Chronological order: [ring_next, end) then [0, ring_next) once full.
    const std::size_t n = state.ring.size();
    const std::size_t begin = state.ring_full ? state.ring_next : 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& e = state.ring[(begin + i) % n];
      detail::append_span_event(out, e.name, e.start_ns, e.dur_ns, pid,
                                state.tid, first);
    }
  };
  for (const auto& state : reg.states) emit_ring(*state);
  if (reg.phase_track) {
    bool has_phases;
    {
      std::lock_guard<std::mutex> tlock(reg.phase_track->trace_mutex);
      has_phases = !reg.phase_track->ring.empty();
    }
    if (has_phases) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"tid\":%d,\"args\":{\"name\":\"phases\"}}",
                    pid, kPhaseTrackTid);
      out += buf;
      emit_ring(*reg.phase_track);
    }
  }
  return any_event ? out : std::string();
}

std::string merge_trace_fragments(const std::vector<std::string>& fragments) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& frag : fragments) {
    if (frag.empty()) continue;
    if (!first) out += ",\n";
    first = false;
    out += frag;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
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
  std::string out = "[\n";
  bool first = true;
  for (const auto& frag : fragments) {
    if (frag.empty()) continue;
    if (!first) out += ",\n";
    first = false;
    out += frag;
  }
  out += "\n]\n";
  return out;
}

}  // namespace raxh::obs
