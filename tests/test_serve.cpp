// The serving layer, socket-free: AlignmentCache content addressing and
// exact LRU, admission that skips parse/compress work on cache hits
// (asserted through the obs counters), priority scheduling, job-namespaced
// checkpoint artifacts (the clobber regression), cooperative cancellation,
// and the core promise — concurrent daemon jobs produce trees bit-identical
// to a direct run_hybrid_comprehensive with the same seeds and rank count.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bio/io.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/hybrid.h"
#include "json_validator.h"
#include "minimpi/comm.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/cache.h"
#include "serve/service.h"

namespace raxh {
namespace {

// Raw PHYLIP bytes, as a client would read them off disk. Distinct seeds
// give byte-distinct alignments of identical shape.
std::string phylip_text(std::uint64_t seed) {
  SimConfig cfg;
  cfg.taxa = 8;
  cfg.distinct_sites = 90;
  cfg.total_sites = 120;
  cfg.seed = seed;
  std::ostringstream out;
  write_phylip(out, simulate_alignment(cfg).alignment);
  return out.str();
}

std::shared_ptr<const PatternAlignment> compress_text(const std::string& raw) {
  std::istringstream in(raw);
  return std::make_shared<const PatternAlignment>(
      PatternAlignment::compress(read_phylip(in)));
}

// Small but real: 6 replicates, shortened SPR rounds. ~0.3 s per job.
serve::JobRequest small_request(std::string alignment, std::string name,
                                int nranks = 1) {
  serve::JobRequest r;
  r.alignment = std::move(alignment);
  r.name = std::move(name);
  r.bootstraps = 6;
  r.nranks = nranks;
  r.num_threads = 1;
  r.fast_rounds = 1;
  r.slow_rounds = 1;
  r.thorough_rounds = 2;
  return r;
}

// What ServiceCore::execute builds from small_request — the golden path runs
// the same options as a one-shot run does, with a default JobContext.
HybridOptions golden_options(const serve::JobRequest& r) {
  HybridOptions o;
  o.analysis.specified_bootstraps = r.bootstraps;
  o.analysis.parsimony_seed = r.parsimony_seed;
  o.analysis.bootstrap_seed = r.bootstrap_seed;
  o.analysis.num_threads = r.num_threads;
  o.analysis.fast.max_rounds = r.fast_rounds;
  o.analysis.slow.max_rounds = r.slow_rounds;
  o.analysis.thorough.max_rounds = r.thorough_rounds;
  o.compute_support = true;
  o.run_bootstopping = false;
  return o;
}

HybridResult golden_run(const serve::JobRequest& r) {
  const auto patterns = compress_text(r.alignment);
  const HybridOptions options = golden_options(r);
  HybridResult result;
  mpi::run_thread_ranks(r.nranks, [&](mpi::Comm& comm) {
    HybridResult local = run_hybrid_comprehensive({}, comm, *patterns, options);
    if (comm.rank() == 0) result = std::move(local);
  });
  return result;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- AlignmentCache ---------------------------------------------------------

TEST(ServeCache, ContentAddressingHitsAndMisses) {
  serve::AlignmentCache cache(1u << 20);
  const std::string raw = phylip_text(1);

  EXPECT_EQ(cache.find(raw, "GTRCAT"), nullptr);  // cold
  const auto patterns = compress_text(raw);
  cache.insert(raw, "GTRCAT", patterns);
  // A hit returns the exact cached object, not a re-parse.
  EXPECT_EQ(cache.find(raw, "GTRCAT").get(), patterns.get());

  // One flipped alignment byte is a different key.
  std::string edited = raw;
  const std::size_t pos = edited.size() - 2;
  edited[pos] = edited[pos] == 'A' ? 'C' : 'A';
  EXPECT_NE(serve::AlignmentCache::fingerprint(raw),
            serve::AlignmentCache::fingerprint(edited));
  EXPECT_EQ(cache.find(edited, "GTRCAT"), nullptr);

  // Same bytes, different model config: also a miss.
  EXPECT_EQ(cache.find(raw, "GTRGAMMA"), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ServeCache, ExactLruEvictionUnderByteBudget) {
  const std::string raw_a = phylip_text(11);
  const std::string raw_b = phylip_text(12);
  const std::string raw_c = phylip_text(13);
  const auto pat_a = compress_text(raw_a);
  const auto pat_b = compress_text(raw_b);
  const auto pat_c = compress_text(raw_c);
  const std::size_t total = serve::AlignmentCache::approx_bytes(*pat_a) +
                            serve::AlignmentCache::approx_bytes(*pat_b) +
                            serve::AlignmentCache::approx_bytes(*pat_c);

  // Budget fits two entries but not three: the third insert must evict
  // exactly the least-recently-used one.
  serve::AlignmentCache cache(total - 1);
  cache.insert(raw_a, "GTRCAT", pat_a);
  cache.insert(raw_b, "GTRCAT", pat_b);
  ASSERT_NE(cache.find(raw_a, "GTRCAT"), nullptr);  // refresh A: B is now LRU
  cache.insert(raw_c, "GTRCAT", pat_c);

  EXPECT_EQ(cache.find(raw_b, "GTRCAT"), nullptr);  // B evicted
  EXPECT_NE(cache.find(raw_a, "GTRCAT"), nullptr);  // A survived (recency)
  EXPECT_NE(cache.find(raw_c, "GTRCAT"), nullptr);  // newest never self-evicts
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ServeCache, OversizedEntryStillServesItsJob) {
  const std::string raw = phylip_text(21);
  serve::AlignmentCache cache(1);  // budget smaller than any alignment
  cache.insert(raw, "GTRCAT", compress_text(raw));
  EXPECT_NE(cache.find(raw, "GTRCAT"), nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// --- ServiceCore ------------------------------------------------------------

TEST(ServeService, RejectsMalformedSubmissions) {
  serve::ServiceOptions opts;
  serve::ServiceCore svc(opts);
  serve::JobRequest r = small_request(phylip_text(2), "bad");
  r.alignment.clear();
  EXPECT_THROW(svc.submit(r), std::invalid_argument);
  r = small_request(phylip_text(2), "bad");
  r.nranks = 0;
  EXPECT_THROW(svc.submit(r), std::invalid_argument);
  r.nranks = opts.max_ranks_per_job + 1;
  EXPECT_THROW(svc.submit(r), std::invalid_argument);
  r = small_request(phylip_text(2), "bad");
  r.bootstraps = 0;
  EXPECT_THROW(svc.submit(r), std::invalid_argument);
  EXPECT_THROW(svc.status("nope"), std::invalid_argument);
}

TEST(ServeService, CacheHitSkipsParseAndCompress) {
  obs::set_enabled(true);
  const obs::CounterSnapshot before = obs::counters_snapshot();

  serve::ServiceOptions opts;
  opts.max_concurrent_jobs = 2;
  serve::ServiceCore svc(opts);
  const std::string raw = phylip_text(3);

  const std::string first = svc.submit(small_request(raw, "cold"));
  ASSERT_TRUE(svc.wait(first, 60000));
  const std::string second = svc.submit(small_request(raw, "warm"));
  ASSERT_TRUE(svc.wait(second, 60000));

  const obs::CounterSnapshot after = obs::counters_snapshot();
  using C = obs::Counter;
  // Two submissions, one parse: the warm job rode the cache.
  EXPECT_EQ(after[C::kAlignParses] - before[C::kAlignParses], 1u);
  EXPECT_EQ(after[C::kAlignCacheMisses] - before[C::kAlignCacheMisses], 1u);
  EXPECT_EQ(after[C::kAlignCacheHits] - before[C::kAlignCacheHits], 1u);
  EXPECT_EQ(after[C::kServeJobsSubmitted] - before[C::kServeJobsSubmitted],
            2u);
  EXPECT_EQ(after[C::kServeJobsCompleted] - before[C::kServeJobsCompleted],
            2u);

  EXPECT_FALSE(svc.status(first).cache_hit);
  EXPECT_TRUE(svc.status(second).cache_hit);

  // Same seeds + same alignment: the cached-admission job's trees are
  // bit-identical to the parsed-admission job's.
  const auto r1 = svc.result(first);
  const auto r2 = svc.result(second);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->best_tree_newick, r2->best_tree_newick);
  EXPECT_EQ(r1->support_tree_newick, r2->support_tree_newick);
  EXPECT_EQ(r1->best_lnl, r2->best_lnl);
}

TEST(ServeService, PriorityBeatsSubmissionOrder) {
  serve::ServiceOptions opts;
  opts.max_concurrent_jobs = 1;  // force a queue behind the first job
  opts.admission_lookahead = 4;
  serve::ServiceCore svc(opts);
  const std::string raw = phylip_text(4);

  const std::string blocker = svc.submit(small_request(raw, "blocker"));
  serve::JobRequest low = small_request(raw, "low");
  low.priority = 0;
  serve::JobRequest high = small_request(raw, "high");
  high.priority = 5;
  const std::string low_id = svc.submit(low);
  const std::string high_id = svc.submit(high);

  ASSERT_TRUE(svc.wait(blocker, 60000));
  ASSERT_TRUE(svc.wait(low_id, 60000));
  ASSERT_TRUE(svc.wait(high_id, 60000));

  // The high-priority job jumped the line: it started while the earlier
  // low-priority submission kept waiting, so it spent strictly less time
  // queued despite being submitted later.
  const serve::JobStatus low_s = svc.status(low_id);
  const serve::JobStatus high_s = svc.status(high_id);
  ASSERT_EQ(low_s.state, serve::JobState::kDone);
  ASSERT_EQ(high_s.state, serve::JobState::kDone);
  EXPECT_GT(low_s.queue_s, high_s.queue_s);
}

TEST(ServeService, CheckpointArtifactsAreJobNamespaced) {
  // Regression: before job-id namespacing, two concurrent jobs sharing one
  // checkpoint dir clobbered each other's rank<r>.ckpt files.
  const auto dir = fresh_dir("raxh_serve_ckpt_test");
  serve::ServiceOptions opts;
  opts.max_concurrent_jobs = 2;
  opts.artifact_dir = dir.string();
  serve::ServiceCore svc(opts);

  serve::JobRequest a = small_request(phylip_text(5), "ckpt-a", 2);
  serve::JobRequest b = small_request(phylip_text(6), "ckpt-b", 2);
  a.checkpoint = b.checkpoint = true;
  const std::string id_a = svc.submit(a);
  const std::string id_b = svc.submit(b);
  ASSERT_TRUE(svc.wait(id_a, 60000));
  ASSERT_TRUE(svc.wait(id_b, 60000));
  ASSERT_EQ(svc.status(id_a).state, serve::JobState::kDone);
  ASSERT_EQ(svc.status(id_b).state, serve::JobState::kDone);

  std::set<std::string> files;
  for (const auto& e :
       std::filesystem::directory_iterator(dir / "ckpt"))
    files.insert(e.path().filename().string());
  // Both jobs × both ranks, all four distinct — nobody overwrote anybody.
  for (const std::string& id : {id_a, id_b})
    for (const int rank : {0, 1})
      EXPECT_TRUE(files.count("job" + id + ".rank" + std::to_string(rank) +
                              ".ckpt"))
          << "missing checkpoint for job " << id << " rank " << rank;
  EXPECT_EQ(files.size(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(ServeService, ConcurrentJobsBitIdenticalToDirectRuns) {
  // The acceptance gate: >= 4 jobs in flight at once, two sharing an
  // alignment, every result bit-identical to a direct in-process run with
  // the same seeds and rank count.
  const std::string shared = phylip_text(7);
  const std::string other = phylip_text(8);

  serve::JobRequest req_a = small_request(shared, "shared-1", 2);
  serve::JobRequest req_b = small_request(shared, "shared-2", 2);
  serve::JobRequest req_c = small_request(other, "other", 2);
  serve::JobRequest req_d = small_request(shared, "reseeded", 2);
  req_d.parsimony_seed = 777;
  req_d.bootstrap_seed = 888;

  serve::ServiceOptions opts;
  opts.max_concurrent_jobs = 4;
  opts.admission_lookahead = 4;
  serve::ServiceCore svc(opts);
  const std::string id_a = svc.submit(req_a);
  const std::string id_b = svc.submit(req_b);
  const std::string id_c = svc.submit(req_c);
  const std::string id_d = svc.submit(req_d);
  for (const auto& id : {id_a, id_b, id_c, id_d}) {
    ASSERT_TRUE(svc.wait(id, 120000));
    ASSERT_EQ(svc.status(id).state, serve::JobState::kDone)
        << "job " << id << ": " << svc.status(id).error;
  }

  const HybridResult gold_shared = golden_run(req_a);
  const HybridResult gold_other = golden_run(req_c);
  const HybridResult gold_reseeded = golden_run(req_d);

  const auto check = [&](const std::string& id, const HybridResult& gold) {
    const auto r = svc.result(id);
    ASSERT_TRUE(r.has_value()) << "job " << id;
    EXPECT_EQ(r->best_tree_newick, gold.best_tree_newick) << "job " << id;
    EXPECT_EQ(r->support_tree_newick, gold.support_tree_newick)
        << "job " << id;
    EXPECT_EQ(r->best_lnl, gold.best_lnl) << "job " << id;
    EXPECT_EQ(r->winner_rank, gold.winner_rank) << "job " << id;
    EXPECT_EQ(r->total_bootstrap_trees, gold.total_bootstrap_trees)
        << "job " << id;
  };
  check(id_a, gold_shared);
  check(id_b, gold_shared);  // shared alignment, shared seeds: same trees
  check(id_c, gold_other);
  check(id_d, gold_reseeded);
}

TEST(ServeService, CancelQueuedJobNeverRuns) {
  serve::ServiceOptions opts;
  opts.max_concurrent_jobs = 1;
  serve::ServiceCore svc(opts);
  const std::string raw = phylip_text(9);
  const std::string blocker = svc.submit(small_request(raw, "blocker"));
  const std::string victim = svc.submit(small_request(raw, "victim"));

  EXPECT_TRUE(svc.cancel(victim));
  ASSERT_TRUE(svc.wait(victim, 60000));
  const serve::JobStatus s = svc.status(victim);
  EXPECT_EQ(s.state, serve::JobState::kCancelled);
  EXPECT_EQ(s.run_s, 0.0);  // never started
  EXPECT_FALSE(svc.result(victim).has_value());
  EXPECT_FALSE(svc.cancel(victim));  // already terminal

  ASSERT_TRUE(svc.wait(blocker, 60000));
  EXPECT_EQ(svc.status(blocker).state, serve::JobState::kDone);
}

TEST(ServeService, CancelRunningJobUnwindsCooperatively) {
  serve::ServiceOptions opts;
  opts.max_concurrent_jobs = 1;
  serve::ServiceCore svc(opts);
  // Enough replicates that cancellation lands mid-run.
  serve::JobRequest r = small_request(phylip_text(10), "long", 2);
  r.bootstraps = 60;
  const std::string id = svc.submit(r);

  while (svc.status(id).state != serve::JobState::kRunning) {
    ASSERT_FALSE(serve::is_terminal(svc.status(id).state))
        << "job reached a terminal state before it could be cancelled";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(svc.cancel(id));
  ASSERT_TRUE(svc.wait(id, 60000));
  EXPECT_EQ(svc.status(id).state, serve::JobState::kCancelled);
  EXPECT_FALSE(svc.result(id).has_value());
}

TEST(ServeService, ShutdownCancelsOutstandingWork) {
  serve::ServiceOptions opts;
  opts.max_concurrent_jobs = 1;
  serve::ServiceCore svc(opts);
  const std::string raw = phylip_text(14);
  serve::JobRequest slow = small_request(raw, "running", 1);
  slow.bootstraps = 60;
  const std::string running = svc.submit(slow);
  const std::string queued = svc.submit(small_request(raw, "queued"));
  while (svc.status(running).state != serve::JobState::kRunning)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

  svc.shutdown();
  EXPECT_TRUE(serve::is_terminal(svc.status(running).state));
  EXPECT_EQ(svc.status(queued).state, serve::JobState::kCancelled);
  EXPECT_THROW(svc.submit(small_request(raw, "late")),
               std::runtime_error);
}

// --- Attribution / metrics plane --------------------------------------------

TEST(ServeAttribution, ConcurrentJobDeltasSumToGlobalDelta) {
  obs::reset();
  obs::set_enabled(true);
  serve::ServiceOptions opts;
  opts.max_concurrent_jobs = 2;
  serve::ServiceCore svc(opts);
  const obs::CounterSnapshot before = obs::counters_snapshot();
  // Distinct alignments (no cache hit hides a parse), 2 ranks each, and 2
  // slots so the jobs genuinely overlap — the scenario where process-global
  // counters alone cannot tell the jobs apart.
  const std::string a = svc.submit(small_request(phylip_text(31), "a", 2));
  const std::string b = svc.submit(small_request(phylip_text(32), "b", 2));
  ASSERT_TRUE(svc.wait(a, 120000));
  ASSERT_TRUE(svc.wait(b, 120000));
  ASSERT_EQ(svc.status(a).state, serve::JobState::kDone);
  ASSERT_EQ(svc.status(b).state, serve::JobState::kDone);
  const obs::CounterSnapshot after = obs::counters_snapshot();
  const auto job_a = svc.job_obs(a);
  const auto job_b = svc.job_obs(b);
  ASSERT_NE(job_a, nullptr);
  ASSERT_NE(job_b, nullptr);
  const obs::CounterSnapshot ca = job_a->counters();
  const obs::CounterSnapshot cb = job_b->counters();
  // Every event of these families fires on a thread bound to exactly one of
  // the two jobs (rank threads, their crews, the admission pipeline), so the
  // per-job deltas must sum to the process-global delta — the attribution
  // invariant. Daemon housekeeping counters (e.g. kServeJobsSubmitted, which
  // fires on the unbound submitter thread) are deliberately not listed.
  const obs::Counter attributed[] = {
      obs::Counter::kNewviewCalls,      obs::Counter::kEvaluateCalls,
      obs::Counter::kDerivativeCalls,   obs::Counter::kPatternsEvaluated,
      obs::Counter::kReductionCalls,    obs::Counter::kWorkforceJobs,
      obs::Counter::kAlignParses,
  };
  for (const obs::Counter c : attributed) {
    const int i = static_cast<int>(c);
    EXPECT_EQ(after.values[i] - before.values[i], ca.values[i] + cb.values[i])
        << "counter " << obs::counter_name(c);
  }
  EXPECT_GT(ca.values[static_cast<int>(obs::Counter::kNewviewCalls)], 0u);
  EXPECT_GT(cb.values[static_cast<int>(obs::Counter::kNewviewCalls)], 0u);
  EXPECT_EQ(ca.values[static_cast<int>(obs::Counter::kAlignParses)], 1u);
  EXPECT_EQ(cb.values[static_cast<int>(obs::Counter::kAlignParses)], 1u);
  // The lifecycle latencies landed in each job's block too.
  EXPECT_EQ(job_a->hist(obs::Hist::kAdmissionNs).count, 1u);
  EXPECT_EQ(job_a->hist(obs::Hist::kQueueWaitNs).count, 1u);
  EXPECT_EQ(job_a->hist(obs::Hist::kExecNs).count, 1u);
  obs::set_enabled(false);
  obs::reset();
}

TEST(ServeService, TenantIsEchoedAndAggregated) {
  serve::ServiceOptions opts;
  serve::ServiceCore svc(opts);
  serve::JobRequest r = small_request(phylip_text(33), "tagged");
  r.tenant = "alice";
  const std::string id = svc.submit(r);
  EXPECT_EQ(svc.status(id).tenant, "alice");
  ASSERT_TRUE(svc.wait(id, 120000));
  EXPECT_EQ(svc.list().at(0).tenant, "alice");
  const serve::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.submitted_total, 1u);
  EXPECT_EQ(stats.done, 1);
  EXPECT_EQ(stats.running + stats.queued + stats.ready, 0);
  EXPECT_EQ(stats.slots, opts.max_concurrent_jobs);
}

TEST(ServeService, ExportJobTraceIsValidMergedChromeJson) {
  obs::reset();
  obs::set_enabled(true);
  serve::ServiceOptions opts;
  serve::ServiceCore svc(opts);
  serve::JobRequest r = small_request(phylip_text(34), "traced", 2);
  r.tenant = "bob";
  const std::string id = svc.submit(r);
  ASSERT_TRUE(svc.wait(id, 120000));
  ASSERT_EQ(svc.status(id).state, serve::JobState::kDone);
  const std::string trace = svc.export_job_trace();
  EXPECT_TRUE(testutil::JsonValidator(trace).valid()) << trace.substr(0, 400);
  // Lifecycle lane, rank lanes, and the job's identity all present.
  EXPECT_NE(trace.find("\"admission\""), std::string::npos);
  EXPECT_NE(trace.find("\"queued\""), std::string::npos);
  EXPECT_NE(trace.find("\"run\""), std::string::npos);
  EXPECT_NE(trace.find("rank 0"), std::string::npos);
  EXPECT_NE(trace.find("rank 1"), std::string::npos);
  EXPECT_NE(trace.find("tenant=bob"), std::string::npos);
  obs::set_enabled(false);
  obs::reset();
}

}  // namespace
}  // namespace raxh
