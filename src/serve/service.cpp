#include "serve/service.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "obs/obs.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/log.h"

namespace raxh::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// steady_clock epoch ns — the same clock obs::now_ns reads, so lifecycle
// spans and the spans bound threads record land on one timeline.
std::uint64_t ns_of(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

}  // namespace

ServiceCore::ServiceCore(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache_bytes) {
  RAXH_EXPECTS(options_.max_concurrent_jobs >= 1);
  if (!options_.artifact_dir.empty())
    std::filesystem::create_directories(options_.artifact_dir);
  admission_ = std::make_unique<AdmissionPipeline>(
      &cache_, options_.admission_lookahead,
      [this](AdmissionOutcome outcome) { on_admitted(std::move(outcome)); });
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

ServiceCore::~ServiceCore() { shutdown(); }

std::string ServiceCore::submit(JobRequest request) {
  if (request.alignment.empty())
    throw std::invalid_argument("submit: empty alignment");
  if (request.nranks < 1 || request.nranks > options_.max_ranks_per_job)
    throw std::invalid_argument("submit: nranks out of range");
  if (request.num_threads < 1 ||
      request.num_threads > options_.max_threads_per_rank)
    throw std::invalid_argument("submit: num_threads out of range");
  if (request.bootstraps < 1)
    throw std::invalid_argument("submit: bootstraps must be >= 1");

  auto job = std::make_unique<Job>();
  Job* raw = job.get();
  AdmissionTicket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) throw std::runtime_error("service is shutting down");
    job->seq = next_seq_++;
    job->id = "j" + std::to_string(job->seq);
    job->request = std::move(request);
    job->submitted_at = std::chrono::steady_clock::now();
    job->jobobs = std::make_shared<obs::JobObs>();
    ticket.job_id = job->id;
    ticket.jobobs = job->jobobs;
    ticket.raw = std::make_shared<const std::string>(job->request.alignment);
    ticket.model = job->request.model;
    ticket.priority = job->request.priority;
    ticket.seq = job->seq;
    order_.push_back(raw);
    jobs_[job->id] = std::move(job);
  }
  obs::count(obs::Counter::kServeJobsSubmitted);
  admission_->enqueue(std::move(ticket));
  return raw->id;
}

void ServiceCore::on_admitted(AdmissionOutcome outcome) {
  bool free_slot = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(outcome.job_id);
    Job* job = it == jobs_.end() ? nullptr : it->second.get();
    if (!job || job->state != JobState::kQueued) {
      // Cancelled while the pipeline was parsing it: the ticket charged a
      // lookahead slot that no scheduler pickup will ever release.
      free_slot = outcome.error.empty();
    } else if (!outcome.error.empty()) {
      job->state = JobState::kFailed;
      job->error = std::move(outcome.error);
      job->finished_at = std::chrono::steady_clock::now();
      obs::count(obs::Counter::kServeJobsCompleted);
    } else {
      job->patterns = std::move(outcome.patterns);
      job->cache_hit = outcome.cache_hit;
      job->state = JobState::kReady;
      job->admitted_at = std::chrono::steady_clock::now();
      obs::JobScope attribution(job->jobobs);
      obs::hist_record(obs::Hist::kAdmissionNs,
                       ns_between(job->submitted_at, job->admitted_at));
    }
  }
  // Failed admissions release their slot inside the pipeline itself.
  if (free_slot) admission_->job_started();
  cv_.notify_all();
}

void ServiceCore::scheduler_loop() {
  for (;;) {
    Job* picked = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        if (shutdown_) return true;
        if (running_ >= options_.max_concurrent_jobs) return false;
        return std::any_of(order_.begin(), order_.end(), [](const Job* j) {
          return j->state == JobState::kReady;
        });
      });
      if (shutdown_) break;
      // Priority first, submission order within a priority — the same
      // ordering admission uses, applied to the ready set.
      for (Job* j : order_) {
        if (j->state != JobState::kReady) continue;
        if (!picked || j->request.priority > picked->request.priority)
          picked = j;
      }
      if (!picked) continue;
      picked->state = JobState::kRunning;
      picked->started_at = std::chrono::steady_clock::now();
      ++running_;
      {
        obs::JobScope attribution(picked->jobobs);
        obs::hist_record(obs::Hist::kQueueWaitNs,
                         ns_between(picked->admitted_at, picked->started_at));
      }
      // One executor thread per running job; it blocks in run_thread_ranks
      // until every rank of the job joined. Assigned under mu_ so
      // status/list never observe the thread object mid-construction.
      picked->worker = std::thread([this, picked] { execute(picked); });
    }
    admission_->job_started();
  }

  // Shutdown: join every worker that ever started. finish() already
  // notified; workers unwind via the cancel flags set in shutdown().
  std::vector<Job*> started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Job* j : order_)
      if (j->worker.joinable()) started.push_back(j);
  }
  for (Job* j : started) j->worker.join();
}

void ServiceCore::execute(Job* job) {
  // The job's isolation bundle: namespaced artifacts, its own live models,
  // the cancel token, and hands-off process globals (the daemon hosts many
  // jobs; none of them owns the process rank stamp). The seeds travel in
  // hopts.analysis below, exactly as in a one-shot run.
  JobContext ctx;
  ctx.job_id = job->id;
  ctx.obs_job = job->jobobs;
  ctx.cancel = &job->cancel;
  ctx.owns_process_globals = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->live.clear();
    for (int r = 0; r < job->request.nranks; ++r)
      job->live.push_back(std::make_unique<obs::LiveModel>());
  }
  for (const auto& m : job->live) ctx.live_models.push_back(m.get());

  HybridOptions hopts;
  hopts.analysis.specified_bootstraps = job->request.bootstraps;
  hopts.analysis.parsimony_seed = job->request.parsimony_seed;
  hopts.analysis.bootstrap_seed = job->request.bootstrap_seed;
  hopts.analysis.num_threads = job->request.num_threads;
  if (job->request.fast_rounds > 0)
    hopts.analysis.fast.max_rounds = job->request.fast_rounds;
  if (job->request.slow_rounds > 0)
    hopts.analysis.slow.max_rounds = job->request.slow_rounds;
  if (job->request.thorough_rounds > 0)
    hopts.analysis.thorough.max_rounds = job->request.thorough_rounds;
  if (job->request.checkpoint && !options_.artifact_dir.empty()) {
    hopts.analysis.checkpoint_dir = options_.artifact_dir + "/ckpt";
    std::filesystem::create_directories(hopts.analysis.checkpoint_dir);
  }
  hopts.compute_support = true;
  hopts.run_bootstopping = false;

  std::mutex result_mu;
  bool cancelled = false;
  std::string error;
  try {
    mpi::run_thread_ranks(job->request.nranks, [&](mpi::Comm& comm) {
      // Nothing may escape this lambda: a non-rank-0 exception aborts the
      // process (the minimpi contract). A cancelled rank returns early; its
      // closed channels surface as RankFailed on the peers still inside a
      // collective, which is the expected unwind echo, not a failure.
      try {
        HybridResult r =
            run_hybrid_comprehensive(ctx, comm, *job->patterns, hopts);
        if (comm.rank() == 0) {
          std::lock_guard<std::mutex> lock(result_mu);
          job->result = std::move(r);
          job->has_result = true;
        }
      } catch (const JobCancelled&) {
        std::lock_guard<std::mutex> lock(result_mu);
        cancelled = true;
      } catch (const mpi::RankFailed&) {
        std::lock_guard<std::mutex> lock(result_mu);
        if (!job->cancel.load()) error = "rank failure inside job";
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(result_mu);
        if (error.empty()) error = e.what();
      }
    });
  } catch (const std::exception& e) {
    // RankFailed propagated out of rank 0's join path.
    if (!job->cancel.load() && error.empty()) error = e.what();
  }

  if (job->cancel.load() || cancelled)
    finish(job, JobState::kCancelled, "");
  else if (!error.empty() || !job->has_result)
    finish(job, JobState::kFailed,
           error.empty() ? "job produced no result" : error);
  else
    finish(job, JobState::kDone, "");
}

void ServiceCore::finish(Job* job, JobState terminal, std::string error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->state = terminal;
    job->error = std::move(error);
    job->finished_at = std::chrono::steady_clock::now();
    --running_;
    obs::JobScope attribution(job->jobobs);
    obs::hist_record(obs::Hist::kExecNs,
                     ns_between(job->started_at, job->finished_at));
  }
  obs::count(obs::Counter::kServeJobsCompleted);
  log_debug("job %s finished: %s", job->id.c_str(), job_state_name(terminal));
  cv_.notify_all();
}

JobStatus ServiceCore::status_locked(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.name = job.request.name;
  s.tenant = job.request.tenant;
  s.state = job.state;
  s.error = job.error;
  s.cache_hit = job.cache_hit;
  const auto now = std::chrono::steady_clock::now();
  switch (job.state) {
    case JobState::kQueued:
    case JobState::kReady:
      s.queue_s = seconds_between(job.submitted_at, now);
      break;
    case JobState::kRunning:
      s.queue_s = seconds_between(job.submitted_at, job.started_at);
      s.run_s = seconds_between(job.started_at, now);
      break;
    default: {
      // Terminal. A job cancelled before it ever ran has no started_at.
      const bool ran = job.started_at.time_since_epoch().count() != 0;
      s.queue_s = seconds_between(job.submitted_at,
                                  ran ? job.started_at : job.finished_at);
      if (ran) s.run_s = seconds_between(job.started_at, job.finished_at);
      break;
    }
  }
  if (job.state == JobState::kRunning || is_terminal(job.state)) {
    double sum = 0.0;
    int n = 0;
    for (const auto& m : job.live) {
      obs::ProgressSnapshot snap = m->snapshot();
      sum += snap.fraction;
      ++n;
      if (snap.rank == 0) s.phase = snap.phase;
      if (snap.has_lnl && (!s.has_lnl || snap.best_lnl > s.best_lnl)) {
        s.best_lnl = snap.best_lnl;
        s.has_lnl = true;
      }
    }
    if (n > 0) s.fraction = sum / n;
    if (job.state == JobState::kDone) s.fraction = 1.0;
  }
  return s;
}

JobStatus ServiceCore::status(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::invalid_argument("unknown job id: " + id);
  return status_locked(*it->second);
}

std::vector<JobStatus> ServiceCore::list() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(order_.size());
  for (const Job* j : order_) out.push_back(status_locked(*j));
  return out;
}

std::optional<JobResult> ServiceCore::result(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::invalid_argument("unknown job id: " + id);
  const Job& job = *it->second;
  if (job.state != JobState::kDone || !job.has_result) return std::nullopt;
  JobResult r;
  r.best_tree_newick = job.result.best_tree_newick;
  r.best_lnl = job.result.best_lnl;
  r.winner_rank = job.result.winner_rank;
  r.support_tree_newick = job.result.support_tree_newick;
  r.total_bootstrap_trees = job.result.total_bootstrap_trees;
  return r;
}

bool ServiceCore::cancel(const std::string& id) {
  Job* job = nullptr;
  bool was_waiting = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
      throw std::invalid_argument("unknown job id: " + id);
    job = it->second.get();
    if (is_terminal(job->state)) return false;
    job->cancel.store(true);
    if (job->state == JobState::kQueued || job->state == JobState::kReady) {
      was_waiting = job->state == JobState::kReady;
      job->state = JobState::kCancelled;
      job->finished_at = std::chrono::steady_clock::now();
      obs::count(obs::Counter::kServeJobsCompleted);
    }
    // A kRunning job unwinds cooperatively; execute() records the terminal
    // state when its ranks have joined.
  }
  admission_->discard(id);
  if (was_waiting) admission_->job_started();  // its lookahead slot frees
  cv_.notify_all();
  return true;
}

bool ServiceCore::wait(const std::string& id, long timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw std::invalid_argument("unknown job id: " + id);
  Job* job = it->second.get();
  const auto pred = [&] { return is_terminal(job->state); };
  if (timeout_ms < 0) {
    cv_.wait(lock, pred);
    return true;
  }
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), pred);
}

void ServiceCore::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    for (Job* j : order_) {
      if (is_terminal(j->state)) continue;
      j->cancel.store(true);
      if (j->state == JobState::kQueued || j->state == JobState::kReady) {
        j->state = JobState::kCancelled;
        j->finished_at = std::chrono::steady_clock::now();
        obs::count(obs::Counter::kServeJobsCompleted);
      }
    }
  }
  cv_.notify_all();
  admission_->stop();
  if (scheduler_.joinable()) scheduler_.join();
}

ServiceStats ServiceCore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s;
  s.slots = options_.max_concurrent_jobs;
  s.submitted_total = next_seq_;
  for (const Job* j : order_) {
    switch (j->state) {
      case JobState::kQueued:
        ++s.queued;
        break;
      case JobState::kReady:
        ++s.ready;
        break;
      case JobState::kRunning:
        ++s.running;
        break;
      case JobState::kDone:
        ++s.done;
        break;
      case JobState::kFailed:
        ++s.failed;
        break;
      case JobState::kCancelled:
        ++s.cancelled;
        break;
    }
  }
  return s;
}

std::shared_ptr<obs::JobObs> ServiceCore::job_obs(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second->jobobs;
}

std::string ServiceCore::export_job_trace() const {
  std::vector<std::string> fragments;
  std::lock_guard<std::mutex> lock(mu_);
  fragments.reserve(order_.size());
  for (const Job* j : order_) {
    // Lifecycle lane: SUBMIT -> admitted -> slot granted -> terminal, each
    // leg a span. Open legs (job still in flight) extend to "now" so a
    // mid-run export stays well-formed.
    const std::uint64_t now = obs::now_ns();
    const bool admitted = j->admitted_at.time_since_epoch().count() != 0;
    const bool started = j->started_at.time_since_epoch().count() != 0;
    const bool finished = j->finished_at.time_since_epoch().count() != 0;
    const std::uint64_t end = finished ? ns_of(j->finished_at) : now;
    std::vector<obs::JobObs::ExtraSpan> extra;
    {
      const std::uint64_t t0 = ns_of(j->submitted_at);
      const std::uint64_t t1 = admitted ? ns_of(j->admitted_at) : end;
      extra.push_back({"admission", t0, t1 > t0 ? t1 - t0 : 0,
                       obs::kJobLifecycleLane});
    }
    if (admitted) {
      const std::uint64_t t0 = ns_of(j->admitted_at);
      const std::uint64_t t1 = started ? ns_of(j->started_at) : end;
      extra.push_back({"queued", t0, t1 > t0 ? t1 - t0 : 0,
                       obs::kJobLifecycleLane});
    }
    if (started) {
      const std::uint64_t t0 = ns_of(j->started_at);
      extra.push_back({"run", t0, end > t0 ? end - t0 : 0,
                       obs::kJobLifecycleLane});
    }
    j->jobobs->set_lane_name(obs::kJobLifecycleLane, "lifecycle");
    std::string pname = "job " + j->id;
    if (!j->request.name.empty()) pname += " " + j->request.name;
    if (!j->request.tenant.empty()) pname += " tenant=" + j->request.tenant;
    fragments.push_back(j->jobobs->export_trace_fragment(
        static_cast<int>(j->seq), pname, extra));
  }
  return obs::merge_trace_fragments(fragments);
}

}  // namespace raxh::serve
