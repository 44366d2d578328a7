// The per-job state of one comprehensive analysis ("-f a") that the analysis
// options do not carry: where its artifacts go, where its progress and
// telemetry land, how it is cancelled, and whether it may touch process-wide
// attribution. run_comprehensive_rank and run_hybrid_comprehensive take it
// first; the serving layer (src/serve/) fills one per job so N analyses can
// share a process tree, and the one-shot CLI passes a default-constructed
// `{}`. Seeds are not here: they come from the options alone.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "util/cancel.h"

namespace raxh::obs {
class LiveModel;
class JobObs;
}  // namespace raxh::obs

namespace raxh {

struct JobContext {
  // Namespaces this job's checkpoint files (core/checkpoint.h). Empty = the
  // plain per-rank file names.
  std::string job_id;

  // When set, every rank thread of the job (and the crews it spawns) binds
  // this block so counters/histograms/spans are charged to the job as well
  // as the process-global pool. Null = no per-job attribution (one-shot CLI).
  std::shared_ptr<obs::JobObs> obs_job;

  // Cooperative cancellation: polled between work units (and between SPR
  // rounds inside search/); null = never cancelled. The pointee must outlive
  // every rank of the job.
  const std::atomic<bool>* cancel = nullptr;

  // Per-logical-rank live progress models, indexed by rank. Empty = the
  // process-default model (one-shot CLI, where each ProcessComm rank is its
  // own process). The serving layer points these at the job record's models
  // so STREAM can aggregate per-job progress while N jobs run concurrently.
  std::vector<obs::LiveModel*> live_models;

  // A served job must not retag process-wide attribution (logger rank, obs
  // rank): concurrent jobs would fight over it and the daemon's own rank
  // stamp would corrupt. True only when the process hosts this one job.
  bool owns_process_globals = true;

  void throw_if_cancelled() const { raxh::throw_if_cancelled(cancel); }

  // The live model comprehensive stages should report into for logical rank
  // `rank` (the process default when this context carries none).
  [[nodiscard]] obs::LiveModel& live_for_rank(int rank) const;
};

}  // namespace raxh
