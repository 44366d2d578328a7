// obs/: counters (enable gating, per-thread accumulation), span tracing and
// the Chrome trace_event export, phase timers + the component-table renderer,
// and the rank-0 merge path across forked process ranks.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "json_validator.h"
#include "minimpi/comm.h"
#include "obs/hist.h"
#include "obs/obs.h"
#include "obs/phase.h"
#include "parallel/workforce.h"

namespace raxh {
namespace {

using testutil::JsonValidator;

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1))
    ++n;
  return n;
}

// Extracts `"field":<number>` from the first event object whose name matches.
double event_field(const std::string& fragment, const std::string& name,
                   const std::string& field) {
  const std::size_t at = fragment.find("\"name\":\"" + name + "\"");
  EXPECT_NE(at, std::string::npos) << "no event named " << name;
  if (at == std::string::npos) return -1.0;
  const std::size_t end = fragment.find('}', at);
  const std::size_t f = fragment.find("\"" + field + "\":", at);
  EXPECT_TRUE(f != std::string::npos && f < end) << field << " missing";
  if (f == std::string::npos || f >= end) return -1.0;
  return std::strtod(fragment.c_str() + f + field.size() + 3, nullptr);
}

// Every test starts from a clean, disabled slate (obs state is process-wide).
class ObsTest : public ::testing::Test {
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

TEST_F(ObsTest, CountersDisabledAreNoOps) {
  obs::set_enabled(false);
  obs::count(obs::Counter::kNewviewCalls, 100);
  EXPECT_EQ(obs::counters_snapshot()[obs::Counter::kNewviewCalls], 0u);
}

TEST_F(ObsTest, CountersAccumulateWhenEnabled) {
  obs::count(obs::Counter::kNewviewCalls);
  obs::count(obs::Counter::kNewviewCalls, 4);
  obs::count(obs::Counter::kPatternsEvaluated, 1846);
  const auto snap = obs::counters_snapshot();
  EXPECT_EQ(snap[obs::Counter::kNewviewCalls], 5u);
  EXPECT_EQ(snap[obs::Counter::kPatternsEvaluated], 1846u);
  EXPECT_EQ(snap[obs::Counter::kEvaluateCalls], 0u);
}

TEST_F(ObsTest, CountersSumAcrossCrewThreads) {
  Workforce crew(4);
  crew.run([](int, int) { obs::count(obs::Counter::kEvaluateCalls, 10); });
  const auto snap = obs::counters_snapshot();
  EXPECT_EQ(snap[obs::Counter::kEvaluateCalls], 40u);
  // The crew job itself is instrumented: one dispatch, one span per thread.
  EXPECT_EQ(snap[obs::Counter::kWorkforceJobs], 1u);
}

TEST_F(ObsTest, WorkforceBarrierWaitIsAttributed) {
  Workforce crew(3);
  crew.run([](int tid, int) {
    if (tid != 0)  // master finishes first and must wait on the crew
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_GT(obs::counters_snapshot()[obs::Counter::kBarrierWaitNs], 0u);
}

TEST_F(ObsTest, SpanNestingChildWithinParent) {
  {
    obs::Span outer("outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::Span inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string frag = obs::export_trace_fragment(0);
  const double outer_ts = event_field(frag, "outer", "ts");
  const double outer_dur = event_field(frag, "outer", "dur");
  const double inner_ts = event_field(frag, "inner", "ts");
  const double inner_dur = event_field(frag, "inner", "dur");
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
  EXPECT_GT(inner_dur, 0.0);
}

TEST_F(ObsTest, SpansDisabledRecordNothing) {
  obs::set_enabled(false);
  { obs::Span span("ghost"); }
  EXPECT_EQ(obs::export_trace_fragment(0), "");
}

TEST_F(ObsTest, MergedTraceIsWellFormedJson) {
  { obs::Span span("a \"quoted\"\nname\t"); }  // exercise escaping
  { obs::Span span("plain"); }
  const std::string merged =
      obs::merge_trace_fragments({obs::export_trace_fragment(0)});
  EXPECT_TRUE(JsonValidator(merged).valid()) << merged;
  EXPECT_NE(merged.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(merged.find("process_name"), std::string::npos);
}

TEST_F(ObsTest, MergeSkipsEmptyFragments) {
  { obs::Span span("only"); }
  const std::string merged = obs::merge_trace_fragments(
      {"", obs::export_trace_fragment(3), "", ""});
  EXPECT_TRUE(JsonValidator(merged).valid()) << merged;
  EXPECT_EQ(count_occurrences(merged, "\"only\""), 1);
  EXPECT_NE(merged.find("\"pid\":3"), std::string::npos);
}

TEST_F(ObsTest, MetricsFragmentAndMergeAreWellFormed) {
  obs::count(obs::Counter::kReductionCalls, 7);
  obs::run_phases().add("bootstrap", 1.5);
  const std::string frag = obs::export_metrics_fragment(0);
  EXPECT_TRUE(JsonValidator(frag).valid()) << frag;
  EXPECT_NE(frag.find("\"reduction_calls\":7"), std::string::npos);
  EXPECT_NE(frag.find("\"bootstrap\":1.5"), std::string::npos);

  const std::string merged = obs::merge_metrics_fragments(
      {frag, obs::export_metrics_fragment(1, "\"extra\":{\"k\":1}")});
  EXPECT_TRUE(JsonValidator(merged).valid()) << merged;
  EXPECT_NE(merged.find("\"rank\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"extra\""), std::string::npos);
}

TEST_F(ObsTest, PhaseAccumulatorStartStopAndAdd) {
  obs::PhaseAccumulator acc;
  acc.start("fast");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  acc.start("slow");  // implicit stop of "fast"
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  acc.stop();
  acc.add("fast", 1.0);
  EXPECT_GT(acc.total("fast"), 1.0);
  EXPECT_GT(acc.total("slow"), 0.0);
  EXPECT_EQ(acc.total("missing"), 0.0);
  EXPECT_NEAR(acc.sum(), acc.total("fast") + acc.total("slow"), 1e-12);
  const auto phases = acc.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].first, "fast");  // first-start order
  EXPECT_EQ(phases[1].first, "slow");
}

TEST_F(ObsTest, ScopedPhaseFeedsRunPhasesAndLocal) {
  obs::PhaseAccumulator local;
  {
    obs::ScopedPhase phase("bootstrap", &local);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(obs::run_phases().total("bootstrap"), 0.0);
  EXPECT_NEAR(local.total("bootstrap"), obs::run_phases().total("bootstrap"),
              1e-9);
  // Enabled, so the phase also lands in the trace.
  EXPECT_NE(obs::export_trace_fragment(0).find("phase:bootstrap"),
            std::string::npos);
}

TEST_F(ObsTest, PhaseSerializationRoundTrips) {
  obs::PhaseAccumulator acc;
  acc.add("bootstrap", 12.25);
  acc.add("fast", 3.5);
  acc.add("odd name", 0.125);
  const auto back = obs::deserialize_phases(obs::serialize_phases(acc));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].first, "bootstrap");
  EXPECT_DOUBLE_EQ(back[0].second, 12.25);
  EXPECT_EQ(back[2].first, "odd name");
  EXPECT_DOUBLE_EQ(back[2].second, 0.125);
  EXPECT_TRUE(obs::deserialize_phases("").empty());
}

TEST_F(ObsTest, ComponentTableHasUnionColumnsAndSums) {
  const std::vector<std::vector<std::pair<std::string, double>>> rows = {
      {{"bootstrap", 10.0}, {"fast", 2.0}},
      {{"bootstrap", 8.0}, {"thorough", 4.0}}};
  const std::string table =
      obs::format_component_table(rows, {"0", "1"}, "rank");
  EXPECT_NE(table.find("rank"), std::string::npos);
  EXPECT_NE(table.find("bootstrap"), std::string::npos);
  EXPECT_NE(table.find("fast"), std::string::npos);
  EXPECT_NE(table.find("thorough"), std::string::npos);
  EXPECT_NE(table.find("12.0"), std::string::npos);  // row 0 sum
}

TEST_F(ObsTest, ResetClearsEverything) {
  obs::count(obs::Counter::kNewviewCalls, 3);
  obs::hist_record(obs::Hist::kCrewJobNs, 777);
  { obs::Span span("gone"); }
  obs::run_phases().add("fast", 1.0);
  obs::reset();
  EXPECT_EQ(obs::counters_snapshot()[obs::Counter::kNewviewCalls], 0u);
  EXPECT_EQ(obs::hist_snapshot(obs::Hist::kCrewJobNs).count, 0u);
  EXPECT_EQ(obs::export_trace_fragment(0), "");
  EXPECT_EQ(obs::run_phases().total("fast"), 0.0);
}

// One thread overruns its ring: the oldest spans are evicted and counted,
// and the export keeps the survivors oldest first.
TEST_F(ObsTest, ThreadSpanRingEvictsOldestAndCountsDrops) {
  const std::size_t total = obs::kTraceCapacity + 100;
  for (std::size_t i = 0; i < total; ++i)
    obs::record_span("s" + std::to_string(i), i, 1);
  EXPECT_EQ(obs::counters_snapshot()[obs::Counter::kSpansDropped], 100u);
  const std::string frag = obs::export_trace_fragment(0);
  EXPECT_EQ(frag.find("\"s0\""), std::string::npos);
  EXPECT_EQ(frag.find("\"s99\""), std::string::npos);
  const std::size_t oldest = frag.find("\"s100\"");
  const std::size_t newest =
      frag.find("\"s" + std::to_string(total - 1) + "\"");
  ASSERT_NE(oldest, std::string::npos);
  ASSERT_NE(newest, std::string::npos);
  EXPECT_LT(oldest, newest);
  EXPECT_EQ(count_occurrences(frag, "\"ph\":\"X\""),
            static_cast<int>(obs::kTraceCapacity));
}

// The acceptance-criteria path: forked ranks each record spans, rank 0
// gathers and merges them into one valid trace with per-rank attribution.
// The parent's pre-fork span, counter increment and histogram sample must
// appear exactly once, in rank 0's exports (the pthread_atfork child
// handler clears inherited state in ranks 1..).
TEST_F(ObsTest, ProcessRanksMergeToOneTrace) {
  { obs::Span span("prefork"); }
  obs::count(obs::Counter::kNewviewCalls, 4242);
  obs::hist_record(obs::Hist::kCrewJobNs, 777);
  std::string merged;
  std::vector<std::string> metrics;
  mpi::run_process_ranks(3, [&merged, &metrics](mpi::Comm& comm) {
    obs::set_rank(comm.rank());
    const std::string span_name = "rankspan" + std::to_string(comm.rank());
    {
      obs::Span span(span_name.c_str());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::string metrics_fragment =
        obs::export_metrics_fragment(comm.rank());
    const auto fragments =
        comm.gather_strings(obs::export_trace_fragment(comm.rank()), 0);
    const auto metrics_fragments = comm.gather_strings(metrics_fragment, 0);
    if (comm.rank() == 0) {
      if (fragments.size() != 3 || metrics_fragments.size() != 3) std::abort();
      merged = obs::merge_trace_fragments(fragments);
      metrics = metrics_fragments;
    }
  });
  EXPECT_TRUE(JsonValidator(merged).valid()) << merged;
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(count_occurrences(merged, "rankspan" + std::to_string(r)), 1)
        << merged;
    EXPECT_GE(count_occurrences(merged, "\"pid\":" + std::to_string(r)), 1);
  }
  EXPECT_EQ(count_occurrences(merged, "prefork"), 1) << merged;
  ASSERT_EQ(metrics.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const std::string& m = metrics[static_cast<std::size_t>(r)];
    EXPECT_TRUE(JsonValidator(m).valid()) << m;
    const int shown = r == 0 ? 1 : 0;
    EXPECT_EQ(count_occurrences(m, "\"newview_calls\":4242"), shown) << m;
    EXPECT_EQ(count_occurrences(m, "\"crew_job\":{\"count\":1,"), shown)
        << m;
  }
}

}  // namespace
}  // namespace raxh
