// obs/hist.h: log2 bucket boundaries (zero, exact powers of two, u64-max),
// enable gating, concurrent multi-thread recording with merged snapshots,
// quantile behaviour, the latency JSON section inside
// export_metrics_fragment(), and the workforce/minimpi feeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "json_validator.h"
#include "minimpi/comm.h"
#include "obs/hist.h"
#include "obs/obs.h"
#include "parallel/workforce.h"

namespace raxh {
namespace {

using obs::Hist;
using testutil::JsonValidator;

class HistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST(HistBuckets, ZeroGetsItsOwnBucket) {
  EXPECT_EQ(obs::hist_bucket(0), 0);
  EXPECT_EQ(obs::hist_bucket_lower(0), 0u);
  EXPECT_EQ(obs::hist_bucket_upper(0), 0u);
}

TEST(HistBuckets, PowersOfTwoOpenNewBuckets) {
  // Bucket b >= 1 covers [2^(b-1), 2^b - 1]: each exact power of two is the
  // first value of its bucket, and 2^k - 1 is the last value of the previous.
  for (int k = 0; k < 63; ++k) {
    const std::uint64_t pow2 = std::uint64_t{1} << k;
    EXPECT_EQ(obs::hist_bucket(pow2), k + 1) << "2^" << k;
    EXPECT_EQ(obs::hist_bucket_lower(k + 1), pow2);
    if (k > 0) {
      EXPECT_EQ(obs::hist_bucket(pow2 - 1), k) << "2^" << k << "-1";
    }
    EXPECT_EQ(obs::hist_bucket_upper(k), pow2 - 1);
  }
  EXPECT_EQ(obs::hist_bucket(1), 1);
  EXPECT_EQ(obs::hist_bucket(2), 2);
  EXPECT_EQ(obs::hist_bucket(3), 2);
  EXPECT_EQ(obs::hist_bucket(4), 3);
}

TEST(HistBuckets, U64MaxLandsInLastBucket) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(obs::hist_bucket(kMax), 64);
  EXPECT_LT(obs::hist_bucket(kMax), obs::kHistBuckets);
  EXPECT_EQ(obs::hist_bucket_upper(64), kMax);
  EXPECT_EQ(obs::hist_bucket_lower(64), std::uint64_t{1} << 63);
}

TEST(HistBuckets, EveryValueWithinItsBucketRange) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
                          std::uint64_t{1000}, std::uint64_t{123456789},
                          std::numeric_limits<std::uint64_t>::max()}) {
    const int b = obs::hist_bucket(v);
    EXPECT_GE(v, obs::hist_bucket_lower(b)) << v;
    EXPECT_LE(v, obs::hist_bucket_upper(b)) << v;
  }
}

TEST(HistDisabled, RecordIsNoOpWhenDisabled) {
  obs::set_enabled(false);
  obs::reset();
  obs::hist_record(Hist::kCrewJobNs, 1234);
  EXPECT_EQ(obs::hist_snapshot(Hist::kCrewJobNs).count, 0u);
}

TEST_F(HistTest, RecordAccumulatesCountSumMax) {
  obs::hist_record(Hist::kCrewJobNs, 100);
  obs::hist_record(Hist::kCrewJobNs, 200);
  obs::hist_record(Hist::kCrewJobNs, 50);
  const auto snap = obs::hist_snapshot(Hist::kCrewJobNs);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum_ns, 350u);
  EXPECT_EQ(snap.max_ns, 200u);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 350.0 / 3.0);
  // Histograms are independent.
  EXPECT_EQ(obs::hist_snapshot(Hist::kCollectiveNs).count, 0u);
}

TEST_F(HistTest, ConcurrentThreadsMergeIntoOneSnapshot) {
  constexpr int kThreads = 8;
  constexpr int kSamplesPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSamplesPerThread; ++i)
        obs::hist_record(Hist::kBarrierWaitNs,
                         static_cast<std::uint64_t>(t * kSamplesPerThread + i));
    });
  }
  for (auto& th : threads) th.join();

  const auto snap = obs::hist_snapshot(Hist::kBarrierWaitNs);
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kSamplesPerThread);
  EXPECT_EQ(snap.max_ns,
            static_cast<std::uint64_t>(kThreads) * kSamplesPerThread - 1);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST_F(HistTest, QuantilesAreOrderedAndBounded) {
  for (std::uint64_t v = 1; v <= 10000; ++v)
    obs::hist_record(Hist::kCrewJobNs, v);
  const auto snap = obs::hist_snapshot(Hist::kCrewJobNs);
  const auto p50 = snap.quantile_ns(0.50);
  const auto p95 = snap.quantile_ns(0.95);
  const auto p99 = snap.quantile_ns(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, snap.max_ns);
  EXPECT_GE(p50, 1u);
  // Log-bucket interpolation is exact to within one octave.
  EXPECT_GE(p50, 2500u);
  EXPECT_LE(p50, 10000u);
}

TEST_F(HistTest, QuantileOfUniformBucketIsExactish) {
  // All samples identical: every quantile must land on that value's bucket.
  for (int i = 0; i < 100; ++i) obs::hist_record(Hist::kCollectiveNs, 4096);
  const auto snap = obs::hist_snapshot(Hist::kCollectiveNs);
  for (double q : {0.01, 0.5, 0.99, 1.0}) {
    const auto v = snap.quantile_ns(q);
    EXPECT_GE(v, obs::hist_bucket_lower(obs::hist_bucket(4096)));
    EXPECT_LE(v, snap.max_ns);
  }
}

TEST_F(HistTest, EmptySnapshotQuantileIsZero) {
  const auto snap = obs::hist_snapshot(Hist::kCrewJobNs);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.quantile_ns(0.5), 0u);
  EXPECT_DOUBLE_EQ(snap.mean_ns(), 0.0);
}

TEST_F(HistTest, MetricsFragmentEmbedsValidLatencySections) {
  obs::hist_record(Hist::kCrewJobNs, 1500);
  obs::hist_record(Hist::kBarrierWaitNs, 300);
  obs::hist_record(Hist::kCollectiveNs, 77777);
  const std::string fragment = obs::export_metrics_fragment(0);
  EXPECT_TRUE(JsonValidator(fragment).valid()) << fragment;
  EXPECT_NE(fragment.find("\"latency\":{"), std::string::npos);
  for (const char* section : {"\"crew_job\":", "\"barrier_wait\":",
                              "\"collective\":"})
    EXPECT_NE(fragment.find(section), std::string::npos) << section;
  for (const char* stat : {"\"p50_ns\":", "\"p95_ns\":", "\"p99_ns\":",
                           "\"mean_ns\":", "\"max_ns\":"})
    EXPECT_NE(fragment.find(stat), std::string::npos) << stat;
}

TEST_F(HistTest, WorkforceFeedsCrewJobAndBarrierHistograms) {
  {
    Workforce crew(4);
    for (int i = 0; i < 16; ++i)
      crew.run([](int, int) { /* trivially short job */ });
  }
  const auto jobs = obs::hist_snapshot(Hist::kCrewJobNs);
  const auto waits = obs::hist_snapshot(Hist::kBarrierWaitNs);
  // 16 dispatches x 4 participating threads.
  EXPECT_EQ(jobs.count, 64u);
  // One master wait per dispatch.
  EXPECT_EQ(waits.count, 16u);
}

TEST_F(HistTest, ThreadCommCollectivesFeedLatencyHistogram) {
  mpi::run_thread_ranks(2, [](mpi::Comm& comm) {
    comm.barrier();
    double v = comm.rank() == 0 ? 42.0 : 7.0;
    comm.allreduce_max(v);
  });
  // 2 ranks x (1 barrier + 1 allreduce); the bcast nested inside the
  // allreduce books no sample of its own.
  EXPECT_EQ(obs::hist_snapshot(Hist::kCollectiveNs).count, 4u);
}

TEST_F(HistTest, ResetClearsEverything) {
  obs::hist_record(Hist::kCrewJobNs, 999);
  obs::hist_reset();
  EXPECT_EQ(obs::hist_snapshot(Hist::kCrewJobNs).count, 0u);
}

}  // namespace
}  // namespace raxh
