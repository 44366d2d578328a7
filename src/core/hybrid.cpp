#include "core/hybrid.h"

#include <optional>

#include "likelihood/engine.h"
#include "obs/flight.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "obs/postmortem.h"
#include "tree/consensus.h"
#include "util/check.h"
#include "util/log.h"

namespace raxh {

namespace {

// Fault-tolerant protocol tags, outside user space and the collectives'
// 1000000+ range. The protocol is a star around rank 0 (the job controller):
//  * barrier  — worker sends "arrived", root answers "go" (replaces the
//    paper's post-bootstrap MPI_Barrier);
//  * report   — worker ships its packed RankReport to root;
//  * control  — root sends REGRANT <logical rank> or FINISH <winner + meta>
//    (the latter replaces the final MPI_Bcast).
constexpr int kFtBarrierTag = 900001;
constexpr int kFtReportTag = 900002;
constexpr int kFtControlTag = 900003;

constexpr std::uint8_t kCtrlRegrant = 1;
constexpr std::uint8_t kCtrlFinish = 2;

mpi::Bytes pack_report(const RankReport& r) {
  mpi::Packer p;
  p.put<std::int32_t>(r.rank);
  p.put_string(r.best_tree_newick);
  p.put(r.best_lnl);
  p.put(r.cat_lnl);
  p.put_doubles(
      {r.times.bootstrap, r.times.fast, r.times.slow, r.times.thorough});
  p.put<std::int32_t>(r.resumed_replicates);
  p.put<std::uint64_t>(r.bootstrap_newicks.size());
  for (const auto& nwk : r.bootstrap_newicks) p.put_string(nwk);
  return p.take();
}

RankReport unpack_report(const mpi::Bytes& bytes) {
  mpi::Unpacker u(bytes);
  RankReport r;
  r.rank = u.get<std::int32_t>();
  r.best_tree_newick = u.get_string();
  r.best_lnl = u.get<double>();
  r.cat_lnl = u.get<double>();
  const std::vector<double> t = u.get_doubles();
  RAXH_ASSERT(t.size() == 4);
  r.times = StageTimes{t[0], t[1], t[2], t[3]};
  r.resumed_replicates = u.get<std::int32_t>();
  const auto nboots = u.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < nboots; ++i)
    r.bootstrap_newicks.push_back(u.get_string());
  return r;
}

// Rank 0's post-search reporting (support values, bootstopping) — real wall
// time, so it gets its own phase in the component breakdown. `blobs` holds
// newline-joined replicate newicks, one entry per logical rank.
void finalize_on_root(const JobContext& ctx, const PatternAlignment& patterns,
                      const HybridOptions& options,
                      const std::vector<std::string>& blobs,
                      HybridResult& result) {
  obs::ScopedPhase phase("finalize");
  ctx.live_for_rank(0).begin_stage("finalize");

  std::vector<Tree> replicate_trees;
  for (const auto& blob : blobs) {
    std::size_t pos = 0;
    while (pos < blob.size()) {
      const std::size_t end = blob.find('\n', pos);
      const std::string line = blob.substr(pos, end - pos);
      if (!line.empty())
        replicate_trees.push_back(Tree::parse_newick(line, patterns.names()));
      if (end == std::string::npos) break;
      pos = end + 1;
    }
  }
  result.total_bootstrap_trees = static_cast<int>(replicate_trees.size());

  if (options.compute_support && !replicate_trees.empty()) {
    BipartitionTable table;
    for (const auto& t : replicate_trees) table.add_tree(t);
    const Tree best_tree =
        Tree::parse_newick(result.best_tree_newick, patterns.names());
    result.support_tree_newick =
        annotate_support(best_tree, patterns.names(), table);
  }
  if (options.run_bootstopping && replicate_trees.size() >= 2) {
    result.bootstop = frequency_criterion(replicate_trees);
  }
}

// The paper's communication pattern, verbatim: Barrier after the bootstraps,
// MAXLOC + Bcast of the winner at the end, report-only gathers. Any rank
// death hangs or aborts — that is the pre-fault-tolerance contract.
HybridResult run_plain(const JobContext& ctx, mpi::Comm& comm,
                       const PatternAlignment& patterns,
                       const HybridOptions& options, Workforce* crew) {
  const int rank = comm.rank();
  const int nranks = comm.size();

  RankReport report = run_comprehensive_rank(
      ctx, patterns, options.analysis, rank, nranks, crew,
      [&comm] { comm.barrier(); });

  HybridResult result;

  // End-of-run synchronization: the winner selection plus the report-only
  // gathers. On a rank that finished early this is mostly waiting on peers,
  // so it is a component of its own in the breakdown ("sync").
  std::vector<std::vector<double>> all_times, all_lnls;
  std::vector<std::string> all_bootstraps;
  {
    obs::ScopedPhase phase("sync");
    ctx.live_for_rank(rank).begin_stage("sync");

    // Select the global winner (MPI_MAXLOC) and broadcast its tree — the
    // paper's "call to MPI_Bcast" that ends the run.
    const auto best = comm.allreduce_maxloc(report.best_lnl);
    result.best_lnl = best.value;
    result.winner_rank = best.rank;
    result.best_tree_newick = report.best_tree_newick;
    comm.bcast_string(result.best_tree_newick, best.rank);

    // Report-only gathers (outside the paper's hot path): stage times,
    // per-rank final likelihoods, and the replicates for support values.
    const std::vector<double> my_times = {report.times.bootstrap,
                                          report.times.fast, report.times.slow,
                                          report.times.thorough};
    all_times = comm.gather_doubles(my_times, 0);
    all_lnls = comm.gather_doubles({report.best_lnl}, 0);

    std::string my_bootstraps;
    for (const auto& nwk : report.bootstrap_newicks) {
      my_bootstraps += nwk;
      my_bootstraps += '\n';
    }
    all_bootstraps = comm.gather_strings(my_bootstraps, 0);
  }

  if (rank == 0) {
    for (const auto& t : all_times) {
      RAXH_ASSERT(t.size() == 4);
      result.rank_times.push_back(StageTimes{t[0], t[1], t[2], t[3]});
    }
    for (const auto& l : all_lnls) result.rank_lnls.push_back(l.at(0));
    finalize_on_root(ctx, patterns, options, all_bootstraps, result);
  }
  return result;
}

// The fault-tolerant driver. Same work, star-shaped communication: rank 0
// plays job controller, detects dead peers through RankFailed, and re-grants
// their unfinished *logical* shares round-robin to survivors (or runs them
// itself when no worker is left). Logical share k always runs with seeds
// derived from k — never from the physical rank executing it — so the final
// tree and lnL are bit-identical to a fault-free run.
HybridResult run_fault_tolerant(const JobContext& ctx, mpi::Comm& comm,
                                const PatternAlignment& patterns,
                                const HybridOptions& options, Workforce* crew) {
  const int rank = comm.rank();
  const int nranks = comm.size();
  const auto tick = [&comm] { comm.fault_tick(); };

  if (rank != 0) {
    // Worker: run the original share (with the FT barrier in the paper's
    // barrier slot), then serve REGRANT orders until FINISH arrives. A
    // re-granted share skips the barrier — that synchronization point is
    // already globally past.
    const auto run_share = [&](int logical, bool with_barrier) {
      std::function<void()> barrier;
      if (with_barrier)
        barrier = [&comm] {
          static const std::uint32_t kFlightName =
              obs::flight::name_id("ft.barrier");
          const std::uint64_t start = obs::now_ns();
          obs::flight::record(obs::flight::Kind::kCollBegin, kFlightName);
          comm.send(0, kFtBarrierTag, {});
          comm.recv(0, kFtBarrierTag);
          obs::flight::record(obs::flight::Kind::kCollEnd, kFlightName,
                              obs::now_ns() - start);
        };
      const RankReport rep =
          run_comprehensive_rank(ctx, patterns, options.analysis, logical,
                                 nranks, crew, barrier, {}, tick);
      comm.send(0, kFtReportTag, pack_report(rep));
    };
    run_share(rank, /*with_barrier=*/true);

    HybridResult result;
    for (;;) {
      const mpi::Bytes msg = comm.recv(0, kFtControlTag);
      mpi::Unpacker u(msg);
      const auto op = u.get<std::uint8_t>();
      if (op == kCtrlRegrant) {
        const int logical = u.get<std::int32_t>();
        obs::flight::record(obs::flight::Kind::kRegrant,
                            static_cast<std::uint64_t>(logical),
                            static_cast<std::uint64_t>(rank));
        log_info("rank %d re-granted logical share %d", rank, logical);
        run_share(logical, /*with_barrier=*/false);
        continue;
      }
      RAXH_ASSERT(op == kCtrlFinish);
      result.best_tree_newick = u.get_string();
      result.best_lnl = u.get<double>();
      result.winner_rank = u.get<std::int32_t>();
      const auto nfailed = u.get<std::uint64_t>();
      for (std::uint64_t i = 0; i < nfailed; ++i)
        result.failed_ranks.push_back(u.get<std::int32_t>());
      result.resumed_replicates = u.get<std::int32_t>();
      return result;
    }
  }

  // --- Rank 0: controller + its own logical share 0 ---
  std::vector<bool> dead(nranks, false);
  const auto mark_dead = [&](int w, const char* where) {
    if (dead[w]) return;
    dead[w] = true;
    obs::count(obs::Counter::kRankFailures);
    obs::flight::record(obs::flight::Kind::kRankDead,
                        static_cast<std::uint64_t>(w),
                        obs::flight::name_id(where));
    log_warn("rank %d failed (detected at %s); its work will be re-granted",
             w, where);
    // Sweep the black boxes: persist the survivor's own ring so the failure
    // context is on disk even if recovery later wedges, then read the dead
    // rank's box (it dumps before its death is observable) and name its
    // last completed comm op in the recovery log.
    obs::flight::dump_now(comm.rank(), "peer failure detected");
    const std::string box = obs::flight::dump_path_for_rank(w);
    if (const auto last = obs::pm::last_op_summary(box, w))
      log_warn("rank %d black box: %s", w, last->c_str());
    else
      log_warn("rank %d black box not available at %s", w, box.c_str());
  };

  // Reports keyed by *logical* rank; a missing entry is an unfinished share.
  std::vector<std::optional<RankReport>> reports(nranks);
  const auto try_recv_report = [&](int w) {
    try {
      RankReport rep = unpack_report(comm.recv(w, kFtReportTag));
      RAXH_ASSERT(rep.rank >= 0 && rep.rank < nranks);
      reports[rep.rank] = std::move(rep);
    } catch (const mpi::RankFailed&) {
      mark_dead(w, "report collection");
    }
  };

  // Overlapped report collection: one report irecv per surviving worker is
  // posted right after the barrier release, and the tick callback harvests
  // whichever have arrived while rank 0 is still running its own share. A
  // worker that finishes early hands its report over immediately instead of
  // waiting for the controller — the irecv/test overlap the tree collectives
  // refactor added to minimpi.
  std::vector<std::optional<mpi::Comm::Request>> pending_reports(nranks);
  const auto harvest_ready_reports = [&] {
    for (int w = 1; w < nranks; ++w) {
      if (!pending_reports[w]) continue;
      try {
        if (!comm.test(*pending_reports[w])) continue;
        RankReport rep = unpack_report(pending_reports[w]->payload());
        RAXH_ASSERT(rep.rank >= 0 && rep.rank < nranks);
        reports[rep.rank] = std::move(rep);
      } catch (const mpi::RankFailed&) {
        mark_dead(w, "report collection");
      }
      pending_reports[w].reset();
    }
  };
  const auto root_tick = [&] {
    comm.fault_tick();
    harvest_ready_reports();
  };

  RankReport own = run_comprehensive_rank(
      ctx, patterns, options.analysis, 0, nranks, crew,
      [&] {
        // The FT barrier: collect an arrival from every worker still
        // believed live (a failed recv marks the worker dead — its share is
        // re-granted later), then release the survivors.
        static const std::uint32_t kFlightName =
            obs::flight::name_id("ft.barrier");
        const std::uint64_t start = obs::now_ns();
        obs::flight::record(obs::flight::Kind::kCollBegin, kFlightName);
        for (int w = 1; w < nranks; ++w) {
          if (dead[w]) continue;
          try {
            comm.recv(w, kFtBarrierTag);
          } catch (const mpi::RankFailed&) {
            mark_dead(w, "barrier");
          }
        }
        for (int w = 1; w < nranks; ++w) {
          if (dead[w]) continue;
          try {
            comm.send(w, kFtBarrierTag, {});
          } catch (const mpi::RankFailed&) {
            mark_dead(w, "barrier release");
          }
        }
        // Every released worker owes exactly one first-round report next;
        // post its irecv now so the tick callback can harvest it mid-share.
        for (int w = 1; w < nranks; ++w)
          if (!dead[w]) pending_reports[w] = comm.irecv(w, kFtReportTag);
        obs::flight::record(obs::flight::Kind::kCollEnd, kFlightName,
                            obs::now_ns() - start);
      },
      {}, root_tick);
  reports[0] = std::move(own);

  HybridResult result;
  {
    obs::ScopedPhase phase("sync");
    ctx.live_for_rank(0).begin_stage("sync");

    // Drain whatever first-round reports the tick harvests did not already
    // pick up during rank 0's own share (typically the stragglers).
    for (int w = 1; w < nranks; ++w) {
      if (!pending_reports[w]) continue;
      try {
        RankReport rep = unpack_report(comm.wait(*pending_reports[w]));
        RAXH_ASSERT(rep.rank >= 0 && rep.rank < nranks);
        reports[rep.rank] = std::move(rep);
      } catch (const mpi::RankFailed&) {
        mark_dead(w, "report collection");
      }
      pending_reports[w].reset();
    }

    // Re-grant loop: hand each unfinished logical share to the next live
    // worker, round-robin, until every share has reported. A worker that
    // dies mid-regrant just sends the share back into the pool. With no
    // workers left the controller runs the share itself — the run degrades
    // to serial rather than failing.
    const auto next_pending = [&] {
      for (int k = 0; k < nranks; ++k)
        if (!reports[k]) return k;
      return -1;
    };
    int cursor = 1;
    for (int k = next_pending(); k != -1; k = next_pending()) {
      int w = -1;
      for (int i = 0; i < nranks - 1; ++i) {
        const int cand = 1 + (cursor - 1 + i) % (nranks - 1);
        if (!dead[cand]) {
          w = cand;
          break;
        }
      }
      obs::count(obs::Counter::kUnitsRegranted);
      if (w == -1) {
        log_warn("no surviving workers; controller re-running share %d", k);
        reports[k] = run_comprehensive_rank(ctx, patterns, options.analysis,
                                            k, nranks, crew, {}, {}, tick);
        continue;
      }
      cursor = 1 + w % (nranks - 1);
      obs::flight::record(obs::flight::Kind::kRegrant,
                          static_cast<std::uint64_t>(k),
                          static_cast<std::uint64_t>(w));
      log_info("re-granting logical share %d to rank %d", k, w);
      mpi::Packer order;
      order.put<std::uint8_t>(kCtrlRegrant);
      order.put<std::int32_t>(k);
      try {
        comm.send(w, kFtControlTag, order.take());
      } catch (const mpi::RankFailed&) {
        mark_dead(w, "regrant order");
        continue;
      }
      try_recv_report(w);  // a failure leaves the share pending; loop retries
    }

    // Deterministic winner selection over logical shares — the same strict
    // max / lowest-rank-wins scan allreduce_maxloc performs, so the
    // fault-tolerant path picks the identical winner.
    int winner = 0;
    for (int k = 1; k < nranks; ++k)
      if (reports[k]->best_lnl > reports[winner]->best_lnl) winner = k;
    result.best_lnl = reports[winner]->best_lnl;
    result.winner_rank = winner;
    result.best_tree_newick = reports[winner]->best_tree_newick;
    for (int w = 1; w < nranks; ++w)
      if (dead[w]) result.failed_ranks.push_back(w);
    for (int k = 0; k < nranks; ++k)
      result.resumed_replicates += reports[k]->resumed_replicates;

    // FINISH to the survivors (the Bcast's replacement). A send can still
    // hit a rank that died after its last report; that only shrinks the
    // audience.
    mpi::Packer fin;
    fin.put<std::uint8_t>(kCtrlFinish);
    fin.put_string(result.best_tree_newick);
    fin.put(result.best_lnl);
    fin.put<std::int32_t>(result.winner_rank);
    fin.put<std::uint64_t>(result.failed_ranks.size());
    for (const int f : result.failed_ranks) fin.put<std::int32_t>(f);
    fin.put<std::int32_t>(result.resumed_replicates);
    const mpi::Bytes fin_bytes = fin.take();
    for (int w = 1; w < nranks; ++w) {
      if (dead[w]) continue;
      try {
        comm.send(w, kFtControlTag, fin_bytes);
      } catch (const mpi::RankFailed&) {
        mark_dead(w, "finish broadcast");
      }
    }
  }

  // Rank 0 holds every share's report, so the report-only data needs no
  // gathers: assemble it locally, in logical-rank order.
  std::vector<std::string> blobs;
  for (int k = 0; k < nranks; ++k) {
    result.rank_times.push_back(reports[k]->times);
    result.rank_lnls.push_back(reports[k]->best_lnl);
    std::string blob;
    for (const auto& nwk : reports[k]->bootstrap_newicks) {
      blob += nwk;
      blob += '\n';
    }
    blobs.push_back(std::move(blob));
  }
  finalize_on_root(ctx, patterns, options, blobs, result);
  return result;
}

}  // namespace

HybridResult run_hybrid_comprehensive(const JobContext& ctx, mpi::Comm& comm,
                                      const PatternAlignment& patterns,
                                      const HybridOptions& options) {
  const int rank = comm.rank();
  const int nranks = comm.size();
  // Process-wide rank attribution (logger prefix, obs counter tagging) is
  // only safe to touch when this process hosts exactly one rank of one job —
  // a served job shares the daemon process with its siblings.
  if (ctx.owns_process_globals) {
    Logger::instance().set_rank(nranks > 1 ? rank : -1);
    obs::set_rank(rank);
  }
  // Per-job attribution (served jobs): bind this rank thread to the job's
  // telemetry block on trace lane `rank`. Bound before the crew spawns so
  // the workers inherit the binding. No-op (null scope) for one-shot runs.
  obs::JobScope job_attribution(ctx.obs_job, rank);
  if (ctx.obs_job)
    ctx.obs_job->set_lane_name(rank, "rank " + std::to_string(rank));

  Workforce crew(options.analysis.num_threads);
  Workforce* crew_ptr =
      options.analysis.num_threads > 1 ? &crew : nullptr;

  HybridResult result =
      options.fault_tolerant
          ? run_fault_tolerant(ctx, comm, patterns, options, crew_ptr)
          : run_plain(ctx, comm, patterns, options, crew_ptr);

  ctx.live_for_rank(rank).end_run();
  if (ctx.owns_process_globals) Logger::instance().set_rank(-1);
  return result;
}

}  // namespace raxh
