#include "parallel/workforce.h"

#include <algorithm>

#include "obs/flight.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/log.h"

namespace raxh {

namespace {

// Times one crew-job execution: feeds both the trace (a "wf.job" span) and
// the crew-job latency histogram from a single pair of clock samples.
inline void timed_job(const std::function<void(int, int)>& job, int tid,
                      int nthreads) {
  if (!obs::enabled()) {
    job(tid, nthreads);
    return;
  }
  const std::uint64_t start = obs::now_ns();
  job(tid, nthreads);
  const std::uint64_t dur = obs::now_ns() - start;
  obs::record_span("wf.job", start, dur);
  obs::detail::hist_add(obs::Hist::kCrewJobNs, dur);
}

// One polite busy-wait iteration: keeps the spinning hyperthread from
// starving its sibling without giving up the time slice.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

Stripe stripe(std::size_t total, int tid, int nthreads) {
  RAXH_EXPECTS(nthreads >= 1);
  RAXH_EXPECTS(tid >= 0 && tid < nthreads);
  const auto t = static_cast<std::size_t>(tid);
  const auto n = static_cast<std::size_t>(nthreads);
  return Stripe{total * t / n, total * (t + 1) / n};
}

std::vector<std::size_t> weighted_partition(
    std::span<const std::uint64_t> costs, int nthreads) {
  RAXH_EXPECTS(nthreads >= 1);
  const std::size_t n = costs.size();
  const auto nt = static_cast<std::uint64_t>(nthreads);
  std::vector<std::size_t> bounds(static_cast<std::size_t>(nthreads) + 1);

  // prefix[i] = summed cost of the first i items.
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + costs[i];
  const std::uint64_t total = prefix[n];

  bounds[0] = 0;
  bounds[static_cast<std::size_t>(nthreads)] = n;
  for (int t = 1; t < nthreads; ++t) {
    if (total == 0) {  // degenerate: no cost signal, split by count
      bounds[static_cast<std::size_t>(t)] =
          stripe(n, t, nthreads).begin;
      continue;
    }
    // Largest i with prefix[i] <= total*t/nthreads, compared exactly as
    // prefix[i]*nthreads <= total*t. With all-equal costs w this is
    // floor(n*t/nthreads) — identical to stripe(). Each boundary therefore
    // lands within one item's cost of the ideal cut.
    const std::uint64_t target = total * static_cast<std::uint64_t>(t);
    std::size_t lo = bounds[static_cast<std::size_t>(t) - 1], hi = n;
    while (lo < hi) {  // binary search for the last prefix <= target/nt
      const std::size_t mid = lo + (hi - lo + 1) / 2;
      if (prefix[mid] * nt <= target)
        lo = mid;
      else
        hi = mid - 1;
    }
    bounds[static_cast<std::size_t>(t)] = lo;
  }
  return bounds;
}

Workforce::Workforce(int num_threads)
    : num_threads_(num_threads), owner_(std::this_thread::get_id()) {
  RAXH_EXPECTS(num_threads >= 1);
  // Pause-spinning only pays off when every crew thread can run at once;
  // otherwise (crew > cores, or core count unknown) skip straight to the
  // yield tier so waiters hand their time slice to the thread they wait on.
  const auto cores = static_cast<int>(std::thread::hardware_concurrency());
  spin_pauses_ = (cores > 0 && num_threads <= cores) ? kSpinPauses : 0;
  // On a single-core machine a parked worker can never overlap the master,
  // so waking it per dispatch buys nothing — the master's inline help in
  // await_crew() runs the share instead and the futex wake is saved. An
  // unknown core count (0) conservatively wakes.
  wake_for_dispatch_ = cores != 1;
  resize_reduction(1);
  slots_ = std::vector<WorkerSlot>(static_cast<std::size_t>(num_threads - 1));
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  // Crew threads inherit the creator's job binding (if any): the serving
  // layer binds each rank thread to its job's JobObs, and the kernels the
  // crew runs must count against that same job. One-shot runs are unbound
  // and this is a captured null.
  auto job_binding = obs::current_job();
  const int job_lane = obs::current_job_lane();
  for (int tid = 1; tid < num_threads; ++tid)
    workers_.emplace_back([this, tid, job_binding, job_lane] {
      obs::JobScope scope(job_binding, job_lane);
      worker_loop(tid);
    });
}

Workforce::~Workforce() {
  shutdown_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void Workforce::note_job_error() noexcept {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!job_error_) job_error_ = std::current_exception();
}

void Workforce::run(const std::function<void(int, int)>& job) {
  RAXH_EXPECTS(std::this_thread::get_id() == owner_);
  RAXH_EXPECTS(!in_run_);
  obs::count(obs::Counter::kWorkforceJobs);
  // Crew jobs fire ~10^5/s on fine-grained kernels, so per-job flight events
  // would blow the recorder's <2% always-on budget; sample every 64th job.
  // The black box still shows a live, churning crew (and its job index),
  // while the forensically dense events — comm ops, phases, faults — stay
  // unsampled.
  const std::uint64_t job_index = job_count_++;
  const bool flight_on = obs::flight::enabled() && (job_index & 63) == 0;
  const std::uint64_t flight_start = flight_on ? obs::now_ns() : 0;
  const auto crew = static_cast<std::uint64_t>(num_threads_);
  if (flight_on)
    obs::flight::record(obs::flight::Kind::kJobBegin, crew, job_index);

  in_run_ = true;
  struct RunGuard {  // clears the reentrancy flag on every exit path
    bool& flag;
    ~RunGuard() { flag = false; }
  } run_guard{in_run_};

  if (num_threads_ == 1) {
    timed_job(job, 0, 1);
    if (flight_on)
      obs::flight::record(obs::flight::Kind::kJobEnd, crew,
                          obs::now_ns() - flight_start);
    return;
  }

  // Issue: publish the job, then broadcast the new generation. The release
  // store is what makes the job pointer (and all master-written job inputs)
  // visible to a worker's acquire load; seq_cst additionally orders it
  // against the parked-count check below so a concurrently parking worker
  // either sees the new generation under the mutex or is seen parked here.
  job_ = &job;
  const std::uint64_t gen =
      generation_.load(std::memory_order_relaxed) + 1;
  generation_.store(gen, std::memory_order_seq_cst);
  if (wake_for_dispatch_ &&
      start_parked_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
    }
    start_cv_.notify_all();
  }

  try {
    timed_job(job, 0, num_threads_);  // master participates
  } catch (...) {
    note_job_error();  // still drain the barrier below
  }

  // Flight duration semantics: kJobEnd covers dispatch + the master's own
  // job execution on every path (1-thread and crew), and the master's wait
  // for the crew is booked separately as kJobWait — so post-mortem critical
  // paths never double-count imbalance as kernel work.
  const bool timed = obs::enabled();
  const std::uint64_t master_done =
      (timed || flight_on) ? obs::now_ns() : 0;
  if (flight_on)
    obs::flight::record(obs::flight::Kind::kJobEnd, crew,
                        master_done - flight_start);

  // The master's wait for the crew is the fine-grained barrier of the
  // master/worker scheme; attribute it (count + latency histogram) so
  // thread-efficiency analyses (Figs. 5-6) can separate imbalance from
  // kernel work. Shares the master runs inline on behalf of unscheduled
  // workers (the help tier in await_crew) are booked here too: they are
  // time the master could not proceed because the crew had not absorbed
  // its work.
  await_crew(gen);
  job_ = nullptr;
  if (timed || flight_on) {
    const std::uint64_t waited = obs::now_ns() - master_done;
    if (timed) {
      obs::count(obs::Counter::kBarrierWaitNs, waited);
      obs::detail::hist_add(obs::Hist::kBarrierWaitNs, waited);
    }
    if (flight_on)
      obs::flight::record(obs::flight::Kind::kJobWait, crew, waited);
  }

  // Workers' writes to job_error_ happen-before their done_gen stores, which
  // await_crew() acquired — the lock-free read is safe.
  if (job_error_) {
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      error = job_error_;
      job_error_ = nullptr;
    }
    std::rethrow_exception(error);
  }
}

void Workforce::await_crew(std::uint64_t gen) {
  const int nworkers = num_threads_ - 1;
  const auto all_done = [&](std::memory_order order) {
    for (int i = 0; i < nworkers; ++i)
      if (slots_[static_cast<std::size_t>(i)].done_gen.load(order) != gen)
        return false;
    return true;
  };
  for (int spins = 0; spins < spin_pauses_; ++spins) {
    if (all_done(std::memory_order_acquire)) return;
    cpu_relax();
  }
  // Help-first: run any share whose worker has not claimed it yet inline.
  // On an oversubscribed or single-core machine the workers may not get
  // scheduled at all inside the spin window; executing their shares here
  // beats paying wakeup latency and context switches for them. On a machine
  // with idle cores the pause tier above gives woken workers time to claim,
  // so this only fires for genuinely absent workers.
  for (int i = 0; i < nworkers; ++i) {
    WorkerSlot& slot = slots_[static_cast<std::size_t>(i)];
    std::uint64_t expect = gen - 1;
    if (slot.claim_gen.compare_exchange_strong(expect, gen,
                                               std::memory_order_acq_rel)) {
      try {
        timed_job(*job_, i + 1, num_threads_);
      } catch (...) {
        note_job_error();
      }
      // The master is the only reader of done_gen; its own store needs no
      // cross-thread ordering.
      slot.done_gen.store(gen, std::memory_order_relaxed);
    }
  }
  for (int yields = 0; yields < kSpinYields; ++yields) {
    if (all_done(std::memory_order_acquire)) return;
    std::this_thread::yield();
  }
  if (all_done(std::memory_order_acquire)) return;
  // Park. A worker finishing while we are between the flag store and the
  // wait sees master_parked_ (seq_cst on both sides) and takes the mutex to
  // notify; a worker finishing before the store is observed by the seq_cst
  // re-check inside the predicate.
  std::unique_lock<std::mutex> lock(park_mutex_);
  master_parked_.store(true, std::memory_order_seq_cst);
  done_cv_.wait(lock, [&] { return all_done(std::memory_order_seq_cst); });
  master_parked_.store(false, std::memory_order_relaxed);
}

void Workforce::worker_loop(int tid) {
  Logger::instance().set_thread(tid);  // attributable interleaved log lines
  WorkerSlot& slot = slots_[static_cast<std::size_t>(tid) - 1];
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for the next generation (or shutdown): bounded spin, then yield,
    // then park.
    std::uint64_t gen;
    int pauses = 0;
    int yields = 0;
    for (;;) {
      gen = generation_.load(std::memory_order_acquire);
      if (gen != seen || shutdown_.load(std::memory_order_acquire)) break;
      if (pauses < spin_pauses_) {
        ++pauses;
        cpu_relax();
        continue;
      }
      if (yields < kSpinYields) {
        ++yields;
        std::this_thread::yield();
        continue;
      }
      std::unique_lock<std::mutex> lock(park_mutex_);
      start_parked_.fetch_add(1, std::memory_order_seq_cst);
      start_cv_.wait(lock, [&] {
        return generation_.load(std::memory_order_seq_cst) != seen ||
               shutdown_.load(std::memory_order_seq_cst);
      });
      start_parked_.fetch_sub(1, std::memory_order_relaxed);
      gen = generation_.load(std::memory_order_acquire);
      break;
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen = gen;

    // Claim this generation's share. A failed CAS means the master already
    // ran it inline (help-first) while we were waiting to be scheduled —
    // nothing to do, and the master owns the barrier arrival for it. The
    // monotonic claim word also makes stale-generation execution impossible:
    // a worker holding an old `gen` finds claim_gen already past gen-1.
    std::uint64_t expect = gen - 1;
    if (!slot.claim_gen.compare_exchange_strong(expect, gen,
                                                std::memory_order_acq_rel))
      continue;

    try {
      timed_job(*job_, tid, num_threads_);
    } catch (...) {
      note_job_error();  // barrier is still drained below; crew stays usable
    }

    // Completion: generation-sense-reversing barrier arrival. The store must
    // be seq_cst so it orders against the master_parked_ load — see
    // await_crew().
    slot.done_gen.store(gen, std::memory_order_seq_cst);
    if (master_parked_.load(std::memory_order_seq_cst)) {
      {
        std::lock_guard<std::mutex> lock(park_mutex_);
      }
      done_cv_.notify_one();
    }
  }
}

void Workforce::resize_reduction(std::size_t slots_per_thread) {
  reduction_slots_ = slots_per_thread;
  const std::size_t padded =
      (slots_per_thread + kPadDoubles - 1) / kPadDoubles * kPadDoubles +
      kPadDoubles;
  reduction_.assign(static_cast<std::size_t>(num_threads_) * padded, 0.0);
}

double& Workforce::reduction(int tid, std::size_t slot) {
  RAXH_EXPECTS(slot < reduction_slots_);
  const std::size_t padded =
      (reduction_slots_ + kPadDoubles - 1) / kPadDoubles * kPadDoubles +
      kPadDoubles;
  return reduction_[static_cast<std::size_t>(tid) * padded + slot];
}

double Workforce::sum_reduction(std::size_t slot) const {
  const std::size_t padded =
      (reduction_slots_ + kPadDoubles - 1) / kPadDoubles * kPadDoubles +
      kPadDoubles;
  double sum = 0.0;
  for (int t = 0; t < num_threads_; ++t)
    sum += reduction_[static_cast<std::size_t>(t) * padded + slot];
  return sum;
}

}  // namespace raxh
