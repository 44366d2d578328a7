// The fine-grained thread crew: the std::thread analogue of RAxML's Pthreads
// master/worker parallelization. One crew is created per coarse-grained rank;
// the likelihood engine dispatches per-pattern kernel jobs to it.
//
// Design follows RAxML's scheme: the master thread participates in every job,
// workers persist across jobs (no per-job thread spawn), and a barrier
// separates job issue from job completion. Work is split by striping the
// pattern range contiguously across threads (see stripe()) or, when
// per-pattern costs are known, by a weighted prefix-sum partition
// (weighted_partition()) that balances summed cost instead of pattern count.
//
// Dispatch is lock-free on the fast path. Likelihood jobs run ~5us, so the
// old mutex + two condition-variable handshakes per job dominated small-grain
// thread efficiency (the paper's Figs. 5-6 losses). Instead:
//  * Job issue is an atomic generation broadcast: the master publishes the
//    job pointer, then bumps `generation_` (release); spinning workers pick
//    it up with an acquire load.
//  * Each worker owns a cache-line-padded slot holding a claim word and a
//    completion word. A worker CASes its claim to the new generation before
//    executing; a master that has finished its own share steals any
//    still-unclaimed share and runs it inline (help-first), so a crew whose
//    workers cannot be scheduled — oversubscribed or single-core machines —
//    degrades to fast serial execution instead of blocking on wakeups.
//  * Completion is a generation-sense-reversing barrier: whoever executed a
//    share writes the generation into the slot's done word and the master
//    scans the slots. The strictly increasing 64-bit generation is the
//    "sense" — no reset phase, no ABA.
//  * Waiting is tiered and bounded: pause-spin (skipped when the crew
//    oversubscribes the hardware), a bounded run of yields, then park on the
//    old condition variables; the seq_cst parked-count / parked-flag
//    handshake makes the wakeup race-free.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace raxh {

// Contiguous sub-range [begin, end) of `total` items for thread `tid` of
// `nthreads` (balanced to within one item).
struct Stripe {
  std::size_t begin;
  std::size_t end;
};
Stripe stripe(std::size_t total, int tid, int nthreads);

// Cost-aware split: boundaries (size nthreads+1, bounds[t]..bounds[t+1] is
// thread t's range) partitioning [0, costs.size()) contiguously so each
// thread's summed cost is balanced to within one item's cost. With all-equal
// costs the boundaries reduce exactly to stripe(); an all-zero cost vector
// falls back to stripe() as well. Deterministic for a fixed nthreads.
std::vector<std::size_t> weighted_partition(std::span<const std::uint64_t> costs,
                                            int nthreads);

class Workforce {
 public:
  // `num_threads` >= 1; one of them is the calling (master) thread, so
  // num_threads-1 workers are spawned.
  explicit Workforce(int num_threads);
  ~Workforce();

  Workforce(const Workforce&) = delete;
  Workforce& operator=(const Workforce&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  // Execute job(tid, num_threads) on every thread (master runs tid 0) and
  // wait until all have finished. Must be called from the thread that
  // constructed the crew; jobs must not call run() reentrantly — both are
  // enforced (RAXH_EXPECTS). If any thread's job throws, the barrier is
  // still drained (every thread finishes, the crew stays usable) and the
  // first captured exception is rethrown on the master.
  void run(const std::function<void(int tid, int nthreads)>& job);

  // Cache-line-padded per-thread accumulator block for reductions.
  // reduction(i) is thread i's slot; sum_reduction() adds them up in fixed
  // tid order, so reductions are deterministic for a fixed thread count.
  void resize_reduction(std::size_t slots_per_thread);
  [[nodiscard]] std::size_t reduction_slots() const { return reduction_slots_; }
  double& reduction(int tid, std::size_t slot = 0);
  [[nodiscard]] double sum_reduction(std::size_t slot = 0) const;

 private:
  // One worker's dispatch slot, padded so per-job claim/done traffic never
  // shares a cache line between workers. claim_gen is CASed from gen-1 to
  // gen by whoever executes the share (the worker, or the helping master);
  // done_gen is the sense-reversing barrier arrival.
  struct alignas(64) WorkerSlot {
    std::atomic<std::uint64_t> claim_gen{0};
    std::atomic<std::uint64_t> done_gen{0};
  };

  void worker_loop(int tid);
  // Record the first exception thrown by any thread during the current job.
  void note_job_error() noexcept;
  // Master-side completion barrier: spin, then park on done_cv_.
  void await_crew(std::uint64_t gen);

  static constexpr std::size_t kPadDoubles = 8;  // 64-byte lines
  // Tiered waiting: pause-spin (only when the crew fits the hardware — on an
  // oversubscribed machine a pause spin just burns the time slice the peer
  // needs), then a bounded run of sched_yields (cheap cooperative handoff
  // when threads share cores), then park on the condition variable. At
  // ~5us/job a dispatch normally completes well inside the spin window; the
  // park path only triggers between phases or on an idle crew.
  static constexpr int kSpinPauses = 1 << 12;
  static constexpr int kSpinYields = 1 << 7;

  int num_threads_;
  int spin_pauses_;         // 0 when the crew oversubscribes the hardware
  bool wake_for_dispatch_;  // notify parked workers on publish (false on a
                            // single-core machine: inline help is cheaper
                            // than a futex wake that cannot run in parallel)
  std::thread::id owner_;   // run() is owner-thread-only (enforced)
  std::vector<std::thread> workers_;

  // --- lock-free dispatch state ---
  std::atomic<std::uint64_t> generation_{0};  // job broadcast (release store)
  std::atomic<bool> shutdown_{false};
  const std::function<void(int, int)>* job_ = nullptr;  // published by generation_
  std::vector<WorkerSlot> slots_;  // [num_threads_-1] completion slots

  // --- spin-then-park fallback ---
  std::mutex park_mutex_;
  std::condition_variable start_cv_;  // workers park here between jobs
  std::condition_variable done_cv_;   // master parks here awaiting the crew
  std::atomic<int> start_parked_{0};  // workers currently parked
  std::atomic<bool> master_parked_{false};

  // --- per-job exception capture ---
  std::mutex error_mutex_;
  std::exception_ptr job_error_;  // first throw of the current job

  bool in_run_ = false;          // master-only reentrancy guard
  std::uint64_t job_count_ = 0;  // total jobs dispatched (flight sampling)

  std::size_t reduction_slots_ = 1;
  std::vector<double> reduction_;  // [thread][slot] padded
};

}  // namespace raxh
