#include "core/comprehensive.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "likelihood/engine.h"
#include "obs/live.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "search/bootstrap.h"
#include "search/parsimony.h"
#include "tree/bipartition.h"
#include "tree/tree.h"
#include "util/check.h"
#include "util/log.h"

namespace raxh {

namespace {

struct ScoredTree {
  Tree tree;
  double lnl;
};

// Relative per-unit stage costs feeding the live progress fraction (and thus
// the aggregator's ETA): one bootstrap replicate is the unit. Ratios derived
// from the paper's Figs. 3/4 component breakdowns (bootstraps ~45% of a
// serial run over 100 units, fast ~20% over 20, slow ~20% over 10, thorough
// ~15% over 1). They shape progress reporting only — never scheduling.
constexpr double kFastUnitWeight = 2.5;
constexpr double kSlowUnitWeight = 4.5;
constexpr double kThoroughUnitWeight = 25.0;

}  // namespace

RankReport run_comprehensive_rank(
    const JobContext& ctx, const PatternAlignment& patterns,
    const ComprehensiveOptions& options, int rank, int nranks, Workforce* crew,
    const std::function<void()>& after_bootstraps,
    const std::function<bool(double)>& select_thorough,
    const std::function<void()>& on_unit) {
  RAXH_EXPECTS(rank >= 0 && rank < nranks);
  obs::LiveModel& live = ctx.live_for_rank(rank);
  const auto unit_done = [&] {
    live.unit_done();
    ctx.throw_if_cancelled();
    if (on_unit) on_unit();
  };

  RankReport report;
  report.rank = rank;
  const HybridSchedule schedule =
      make_schedule(options.specified_bootstraps, nranks);
  report.counts = schedule.per_rank;

  const RankSeeds seeds =
      seeds_for_rank(options.parsimony_seed, options.bootstrap_seed, rank);

  // Model setup: empirical base frequencies, unit exchangeabilities; the
  // searches optimize from there. The search engine uses CAT (as the paper's
  // "-m GTRCAT" runs do); the final evaluation uses GAMMA.
  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  LikelihoodEngine cat_engine(patterns, gtr,
                              RateModel::cat(patterns.num_patterns()), crew);

  // Stage wall times land in a per-rank accumulator (the Figs. 3/4 report
  // path) and, via ScopedPhase, in the process-wide obs::run_phases() table
  // and the span trace behind --report-components / --trace-out.
  obs::PhaseAccumulator stage_times;

  // Live progress model (obs/live.h): this rank's Table-2 work grant, so
  // heartbeats can report units done vs granted and the rank-0 aggregator
  // can project an ETA. Updated once per completed search unit.
  live.begin_run(
      rank,
      {{"bootstrap", report.counts.bootstraps, 1.0},
       {"fast", report.counts.fast_searches, kFastUnitWeight},
       {"slow", report.counts.slow_searches, kSlowUnitWeight},
       {"thorough", report.counts.thorough_searches, kThoroughUnitWeight}});

  // --- Stage 1: rapid bootstraps ---
  std::vector<BootstrapReplicate> replicates;
  {
    obs::ScopedPhase phase("bootstrap", &stage_times);
    live.begin_stage("bootstrap");
    RapidBootstrap bootstrapper(cat_engine, patterns, seeds.bootstrap_seed,
                                seeds.parsimony_seed, ctx.cancel);
    // The resumable path's per-replicate callback doubles as the live
    // progress tick and checkpoint persist (bit-identical to run()
    // otherwise). Checkpoints are keyed by the job id plus the *logical*
    // rank: the job id keeps concurrent jobs sharing one checkpoint
    // directory from clobbering each other, the logical rank lets a
    // survivor re-granted a dead rank's bootstraps resume that rank's own
    // snapshot.
    BootstrapSnapshot progress_snapshot;
    std::string checkpoint_path;
    if (!options.checkpoint_dir.empty()) {
      checkpoint_path =
          rank_checkpoint_path(options.checkpoint_dir, ctx.job_id, rank);
      if (auto loaded = load_bootstrap_checkpoint(checkpoint_path)) {
        // A snapshot from a finished or over-granted previous run replays
        // only up to this run's grant.
        if (loaded->next_replicate <= report.counts.bootstraps)
          progress_snapshot = std::move(*loaded);
      }
      report.resumed_replicates = progress_snapshot.next_replicate;
      if (report.resumed_replicates > 0)
        log_info("rank %d resuming bootstraps from checkpoint (%d/%d done)",
                 rank, report.resumed_replicates, report.counts.bootstraps);
    }
    replicates = bootstrapper.run_resumable(
        report.counts.bootstraps, progress_snapshot,
        [&](const BootstrapSnapshot& snapshot) {
          if (!checkpoint_path.empty())
            save_bootstrap_checkpoint(checkpoint_path, snapshot);
          unit_done();
        });
  }
  for (const auto& rep : replicates)
    report.bootstrap_newicks.push_back(rep.tree.to_newick(patterns.names()));

  if (after_bootstraps) {
    // The paper's mid-run barrier: waiting on slower ranks is neither
    // bootstrap nor fast-search work, so it gets its own component.
    obs::ScopedPhase phase("sync");
    live.begin_stage("sync");
    after_bootstraps();
  }

  // --- Stage 2: fast ML searches from the best bootstrap trees ---
  std::vector<ScoredTree> fast_results;
  {
    obs::ScopedPhase phase("fast", &stage_times);
    live.begin_stage("fast");
    // Rank replicates by their (bootstrap-weighted) lnL and take the local
    // best as starting points — the local, communication-free selection of
    // paper §2.2.
    std::vector<std::size_t> order(replicates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return replicates[a].lnl > replicates[b].lnl;
    });
    const auto nfast = static_cast<std::size_t>(report.counts.fast_searches);
    cat_engine.reset_weights();
    SearchSettings fast_with_cancel = options.fast;
    fast_with_cancel.cancel = ctx.cancel;
    for (std::size_t i = 0; i < nfast && i < order.size(); ++i) {
      Tree tree = replicates[order[i]].tree;
      cat_engine.optimize_cat_rates(tree);
      SprSearch search(cat_engine, fast_with_cancel);
      const double lnl = search.run(tree);
      fast_results.push_back(ScoredTree{std::move(tree), lnl});
      unit_done();
      live.report_lnl(lnl);
    }
  }

  // --- Stage 3: slow ML searches on the locally best fast trees ---
  std::vector<ScoredTree> slow_results;
  {
    obs::ScopedPhase phase("slow", &stage_times);
    live.begin_stage("slow");
    std::sort(fast_results.begin(), fast_results.end(),
              [](const ScoredTree& a, const ScoredTree& b) {
                return a.lnl > b.lnl;
              });
    const auto nslow = static_cast<std::size_t>(report.counts.slow_searches);
    SearchSettings slow_with_cancel = options.slow;
    slow_with_cancel.cancel = ctx.cancel;
    for (std::size_t i = 0; i < nslow && i < fast_results.size(); ++i) {
      Tree tree = fast_results[i].tree;
      SprSearch search(cat_engine, slow_with_cancel);
      const double lnl = search.run(tree);
      slow_results.push_back(ScoredTree{std::move(tree), lnl});
      unit_done();
      live.report_lnl(lnl);
    }
  }

  // --- Stage 4: one thorough search from the local best slow tree ---
  {
    obs::ScopedPhase phase("thorough", &stage_times);
    live.begin_stage("thorough");
    RAXH_ASSERT(!slow_results.empty());
    const auto best_it = std::max_element(
        slow_results.begin(), slow_results.end(),
        [](const ScoredTree& a, const ScoredTree& b) { return a.lnl < b.lnl; });
    const Tree slow_best = best_it->tree;
    Tree searched = slow_best;
    const bool run_thorough =
        !select_thorough || select_thorough(best_it->lnl);
    if (run_thorough) {
      SearchSettings thorough_with_cancel = options.thorough;
      thorough_with_cancel.cancel = ctx.cancel;
      SprSearch search(cat_engine, thorough_with_cancel);
      report.cat_lnl = search.run(searched);
    } else {
      report.cat_lnl = best_it->lnl;
    }

    // Final model + branch-length evaluation under GAMMA, as "-f a" reports.
    // The CAT-driven thorough search can (rarely, on degenerate data)
    // regress the GAMMA score; score both candidates under the final
    // criterion and keep the better one.
    LikelihoodEngine gamma_engine(patterns, cat_engine.gtr(),
                                  RateModel::gamma(options.initial_alpha),
                                  crew);
    auto gamma_score = [&](Tree& tree) {
      // Full model re-optimization under GAMMA (branches, GTR, alpha) to
      // convergence, so the final score depends only on the topology — not
      // on whatever model state the CAT stages left behind.
      return gamma_engine.optimize_all(tree, 0.02, 5);
    };
    const double searched_lnl = gamma_score(searched);
    report.best_lnl = searched_lnl;
    report.best_tree_newick = searched.to_newick(patterns.names());
    if (run_thorough) {
      Tree fallback = slow_best;
      const double fallback_lnl = gamma_score(fallback);
      if (fallback_lnl > searched_lnl) {
        report.best_lnl = fallback_lnl;
        report.best_tree_newick = fallback.to_newick(patterns.names());
      }
    }
    unit_done();
    // Heartbeats track the search-criterion (CAT) score; the final GAMMA
    // evaluation lives on a different scale and is reported via the normal
    // program output instead.
    live.report_lnl(report.cat_lnl);
  }

  report.times.bootstrap = stage_times.total("bootstrap");
  report.times.fast = stage_times.total("fast");
  report.times.slow = stage_times.total("slow");
  report.times.thorough = stage_times.total("thorough");

  log_debug("rank %d/%d done: lnL=%.4f (CAT %.4f)", rank, nranks,
            report.best_lnl, report.cat_lnl);
  return report;
}

}  // namespace raxh
