// Observability core: process-wide enable flag, per-thread counters and
// latency histograms (hist.h), and lightweight scoped span tracing with
// thread/rank attribution.
//
// Cost model: every instrumentation point is an inline check of one relaxed
// atomic bool; with observability disabled nothing else happens, so hot
// kernels pay a single predictable branch. When enabled, counters and
// histogram samples land in the thread's one tally (telemetry.h: a padded
// block of relaxed atomics, owner-thread writes only — no contention, no
// lock prefix) and spans land in the thread's span ring (bounded memory;
// oldest spans are dropped and counted). A job block (metrics.h) holds the
// same tally and ring types; snapshots are folds over tallies.
//
// Rank attribution: obs::set_rank() stamps this process's exported events.
// Forked child ranks (minimpi's ProcessComm) start from a clean slate — a
// pthread_atfork handler clears counters, histograms, spans, and phases in
// the child so rank 0's pre-fork events are never duplicated into other
// ranks' exports.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace raxh::obs {

// ---------------------------------------------------------------------------
// Enable flag + rank attribution
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

// The runtime switch every instrumentation point checks. Default: off.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Coarse-grained rank stamped onto exported traces/metrics (-1 = unset).
void set_rank(int rank);
[[nodiscard]] int rank();

// Monotonic nanoseconds (CLOCK_MONOTONIC — coherent across forked ranks on
// the same host, so per-rank traces merge into one timeline).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Clears all counters, histograms, spans, and phase accumulations (tests;
// also run in forked children via pthread_atfork). Live threads stay
// registered.
void reset();

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

enum class Counter : int {
  kNewviewCalls = 0,     // likelihood newview kernel invocations
  kEvaluateCalls,        // edge log-likelihood evaluations
  kDerivativeCalls,      // Newton-Raphson derivative evaluations
  kPatternsEvaluated,    // patterns processed across all striped dispatches
  kReductionCalls,       // likelihood reductions (evaluate, NR derivatives)
  kWorkforceJobs,        // jobs dispatched to the thread crew
  kBarrierWaitNs,        // ns the master spent waiting on crew completion
  kSpansDropped,         // spans evicted from full ring buffers
  kFaultsInjected,       // fault-plan actions fired on this rank (minimpi)
  kRankFailures,         // dead peers detected (fault-tolerant driver)
  kUnitsRegranted,       // work units re-run on behalf of dead ranks
  kSyntheticDelayNs,     // injected (fault-plan) sleep time, kept out of
                         // latency histograms
  kAlignParses,          // alignments parsed + pattern-compressed (serve
                         // admission; a cache hit must NOT increment this)
  kAlignCacheHits,       // content-addressed alignment cache hits
  kAlignCacheMisses,     // ... and misses (admission had to parse)
  kAlignCacheEvictions,  // LRU evictions under the cache byte budget
  kServeJobsSubmitted,   // jobs accepted by the serving layer
  kServeJobsCompleted,   // jobs that reached a terminal state
  kCommBytesSent,        // payload bytes through Comm::send (comm plane)
  kCommBytesRecv,        // payload bytes through Comm::recv
  kCommRingStalls,       // full-shm-ring stall episodes on the send path
  kCommRingStallNs,      // ns spent stalled on full shm rings
  kKernelFallback,       // SIMD kernel member fell back to the scalar
                         // reference (layout unsupported, e.g. ncat_model >
                         // kMaxCatMatrices) — benches watch this to avoid
                         // measuring the wrong kernel
  kCount
};
inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

// Stable export names, indexed by Counter.
[[nodiscard]] const char* counter_name(Counter c);

namespace detail {
void add_count(Counter c, std::uint64_t n);
}  // namespace detail

// Add `n` to this thread's slot of counter `c`. No-op when disabled.
inline void count(Counter c, std::uint64_t n = 1) {
  if (!enabled()) return;
  detail::add_count(c, n);
}

// Synthetic-delay accounting: FaultyComm (minimpi/fault.h) reports its
// injected sleeps here, per thread, so latency instrumentation can subtract
// them — chaos runs must not pollute p95/p99 comm latency. Scopes snapshot
// the thread total at entry and subtract the delta at exit. Always tracked
// (independent of enabled(); the counter copy is gated as usual).
void add_synthetic_delay_ns(std::uint64_t ns);
[[nodiscard]] std::uint64_t synthetic_delay_ns_this_thread();

// Summed-over-threads counter values at a point in time.
struct CounterSnapshot {
  std::uint64_t values[kNumCounters] = {};
  [[nodiscard]] std::uint64_t operator[](Counter c) const {
    return values[static_cast<int>(c)];
  }
};
[[nodiscard]] CounterSnapshot counters_snapshot();

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

// Per-thread ring capacity in events; the oldest events are evicted (and
// kSpansDropped incremented) once a thread exceeds it.
inline constexpr std::size_t kTraceCapacity = 1 << 15;

// Record a completed span directly (non-RAII callers, e.g. merge tooling).
void record_span(std::string name, std::uint64_t start_ns,
                 std::uint64_t dur_ns);

// Exported tid of the dedicated phase track (see record_phase_span).
inline constexpr int kPhaseTrackTid = 1000;

// Record a span onto the process-wide "phases" track instead of the calling
// thread's ring. Phase markers are rare but load-bearing for reading a
// trace, so they must not compete for ring slots with high-frequency spans
// (a busy crew evicts tens of thousands of job spans per stage).
void record_phase_span(std::string name, std::uint64_t start_ns,
                       std::uint64_t dur_ns);

// RAII scoped span: samples the clock at construction and records on
// destruction. Nearly free when observability is disabled.
class Span {
 public:
  explicit Span(const char* name) : armed_(enabled()) {
    if (armed_) {
      name_ = name;
      start_ = now_ns();
    }
  }
  ~Span() {
    if (armed_) record_span(name_, start_, now_ns() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool armed_;
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

// This process's spans as a Chrome trace_event JSON fragment: a comma-joined
// sequence of event objects (no enclosing brackets) with pid=`rank` and
// tid=thread registration order. Empty string if no spans were recorded.
[[nodiscard]] std::string export_trace_fragment(int rank);

// Rank 0 merge: wraps per-rank fragments (e.g. from Comm::gather_strings)
// into one well-formed Chrome trace JSON document loadable in
// chrome://tracing or https://ui.perfetto.dev.
[[nodiscard]] std::string merge_trace_fragments(
    const std::vector<std::string>& fragments);

// One rank's counters, phase table, and latency histogram quantiles (see
// hist.h) (+ optional pre-rendered extra sections, e.g. the comm stats JSON
// from minimpi) as a JSON object.
[[nodiscard]] std::string export_metrics_fragment(
    int rank, const std::string& extra_sections = "");

// Rank 0 merge of per-rank metrics objects into a JSON array.
[[nodiscard]] std::string merge_metrics_fragments(
    const std::vector<std::string>& fragments);

}  // namespace raxh::obs
