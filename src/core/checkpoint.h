// Checkpoint persistence for long bootstrap runs (RAxML grew an equivalent
// facility for multi-day analyses). A checkpoint file stores a
// BootstrapSnapshot — PRNG states, the carried tree, finished replicates —
// in a line-oriented text format with a version header.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "search/bootstrap.h"

namespace raxh {

// Write `snapshot` to `path` atomically (write temp + rename). Throws
// std::runtime_error on I/O failure.
void save_bootstrap_checkpoint(const std::string& path,
                               const BootstrapSnapshot& snapshot);

// Read a checkpoint; nullopt if the file does not exist. Throws
// std::runtime_error on a malformed or version-incompatible file.
std::optional<BootstrapSnapshot> load_bootstrap_checkpoint(
    const std::string& path);

// Convenience: a persist callback for RapidBootstrap::run_resumable that
// saves to `path` after every replicate.
std::function<void(const BootstrapSnapshot&)> checkpoint_to(std::string path);

// The per-logical-rank checkpoint file inside a checkpoint directory:
// dir/rank<r>.ckpt for an empty job id, dir/job<id>.rank<r>.ckpt otherwise.
// Keyed by *logical* rank so a survivor re-granted a dead rank's bootstraps
// finds (and resumes) the dead rank's snapshot; keyed by job id so two
// concurrent jobs sharing one directory never clobber (or cross-resume) each
// other's snapshots. The id is sanitized so it can never introduce a path
// component.
std::string rank_checkpoint_path(const std::string& dir,
                                 const std::string& job_id, int rank);

}  // namespace raxh
