// The socket-free heart of raxhd: a multi-tenant job service running N
// concurrent comprehensive analyses inside one process tree. Each job gets a
// JobContext (job-namespaced artifacts, its own LiveModel per logical rank,
// a cancel token) and executes on thread-backed minimpi ranks via the same
// run_hybrid_comprehensive the one-shot CLI uses — which is what makes a
// served job bit-identical to a `raxh` run with the same seeds and rank
// count.
//
// Pipeline: SUBMIT -> [admission thread: parse/compress or cache hit] ->
// ready queue -> [scheduler thread: priority+FIFO over job slots] ->
// executor thread per running job -> terminal state + result.
//
// The Server (serve/server.h) puts a socket in front of this; tests and
// bench_serve drive it directly.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/hybrid.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/proto.h"

namespace raxh::serve {

// Point-in-time service gauges for the metrics plane (serve/introspect.h).
struct ServiceStats {
  int queued = 0;   // submitted, not yet admitted
  int ready = 0;    // admitted, awaiting a slot
  int running = 0;
  int done = 0;
  int failed = 0;
  int cancelled = 0;
  std::uint64_t submitted_total = 0;
  int slots = 0;  // max_concurrent_jobs
};

struct ServiceOptions {
  int max_concurrent_jobs = 4;   // executor slots (each nranks x threads wide)
  std::size_t cache_bytes = 64u << 20;  // alignment cache budget (--cache-mb)
  int admission_lookahead = 2;   // double-buffer depth of admitted jobs
  // When non-empty, per-job artifacts (bootstrap checkpoints for jobs
  // submitted with checkpoint=true) land here, namespaced by job id.
  std::string artifact_dir;
  // Caps a single request's resource ask; a daemon shared by several clients
  // should not let one SUBMIT claim every core.
  int max_ranks_per_job = 16;
  int max_threads_per_rank = 16;
};

class ServiceCore {
 public:
  explicit ServiceCore(ServiceOptions options);
  ~ServiceCore();
  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  // Validates and enqueues; returns the assigned job id. Throws
  // std::invalid_argument on a malformed request (bad rank/thread/bootstrap
  // counts, empty alignment) and std::runtime_error after shutdown began.
  std::string submit(JobRequest request);

  // Point-in-time status; throws std::invalid_argument for an unknown id.
  [[nodiscard]] JobStatus status(const std::string& id);

  // All jobs, submission order.
  [[nodiscard]] std::vector<JobStatus> list();

  // Result of a kDone job; nullopt while non-terminal or not successful.
  [[nodiscard]] std::optional<JobResult> result(const std::string& id);

  // Request cancellation. Queued/ready jobs cancel immediately; a running
  // job unwinds cooperatively at its next work-unit boundary. Returns false
  // for an already-terminal job.
  bool cancel(const std::string& id);

  // Block until `id` is terminal (or `timeout_ms` elapses; <0 = forever).
  // Returns true iff terminal on return.
  bool wait(const std::string& id, long timeout_ms = -1);

  // Stop admission and scheduling, cancel queued and running jobs, join all
  // threads. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

  // Queue/state gauges for one scrape (consistent: taken under one lock).
  [[nodiscard]] ServiceStats stats() const;

  // The job's attribution block (counters/hists/spans charged to it); null
  // for an unknown id. Alive for as long as the job record is.
  [[nodiscard]] std::shared_ptr<obs::JobObs> job_obs(
      const std::string& id) const;

  // One merged Chrome trace over every job the daemon has seen: per job, a
  // lifecycle lane (SUBMIT->admission->queued->run spans) plus the rank/crew
  // spans its bound threads recorded, all under pid = the job's sequence
  // number. Loadable in chrome://tracing / Perfetto as-is.
  [[nodiscard]] std::string export_job_trace() const;

 private:
  struct Job {
    std::string id;
    JobRequest request;
    std::uint64_t seq = 0;
    JobState state = JobState::kQueued;
    std::string error;
    bool cache_hit = false;
    std::atomic<bool> cancel{false};
    std::shared_ptr<const PatternAlignment> patterns;
    std::vector<std::unique_ptr<obs::LiveModel>> live;  // one per logical rank
    std::shared_ptr<obs::JobObs> jobobs;  // attribution block, never null
    bool has_result = false;
    HybridResult result;
    std::chrono::steady_clock::time_point submitted_at, admitted_at,
        started_at, finished_at;
    std::thread worker;  // joined by the scheduler after terminal
  };

  void on_admitted(AdmissionOutcome outcome);
  void scheduler_loop();
  void execute(Job* job);
  void finish(Job* job, JobState terminal, std::string error);
  [[nodiscard]] JobStatus status_locked(const Job& job) const;

  ServiceOptions options_;
  AlignmentCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // scheduler + waiters
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  std::vector<Job*> order_;           // submission order (for list())
  std::uint64_t next_seq_ = 0;
  int running_ = 0;
  bool shutdown_ = false;

  std::unique_ptr<AdmissionPipeline> admission_;  // owns the reader thread
  std::thread scheduler_;
};

}  // namespace raxh::serve
