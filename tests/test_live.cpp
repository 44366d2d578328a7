// obs/live.h: the per-rank progress model, the ndjson heartbeat wire format
// (format/parse round trip, torn-line rejection), the pure ETA/straggler
// math over synthetic heartbeat streams, the writer's on-disk output, and
// directory-scan aggregation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "json_validator.h"
#include "obs/live.h"
#include "obs/obs.h"

namespace raxh {
namespace {

using obs::Heartbeat;
using testutil::JsonValidator;

class LiveTest : public ::testing::Test {
 protected:
  void SetUp() override { live.reset(); }
  void TearDown() override {
    obs::set_enabled(false);
    live.reset();
  }

  obs::LiveModel& live = obs::default_live_model();
};

// Synthetic heartbeat: a rank that has reached `fraction` after `elapsed_s`.
Heartbeat beat(int rank, double fraction, double elapsed_s,
               bool done = false) {
  Heartbeat hb;
  hb.rank = rank;
  hb.fraction = fraction;
  hb.elapsed_s = elapsed_s;
  hb.done = done;
  hb.phase = done ? "done" : "fast";
  return hb;
}

// --- progress model --------------------------------------------------------

TEST_F(LiveTest, WeightedFractionTracksThePlan) {
  live.begin_run(3, {{"a", 2, 1.0}, {"b", 1, 2.0}});  // total weight 4
  live.begin_stage("a");
  auto snap = live.snapshot();
  EXPECT_EQ(snap.rank, 3);
  EXPECT_EQ(snap.phase, "a");
  EXPECT_EQ(snap.units_total, 2);
  EXPECT_DOUBLE_EQ(snap.fraction, 0.0);
  EXPECT_TRUE(snap.running);

  live.unit_done();
  EXPECT_DOUBLE_EQ(live.snapshot().fraction, 0.25);
  live.unit_done();
  EXPECT_DOUBLE_EQ(live.snapshot().fraction, 0.5);

  // Unplanned phases relabel without unit accounting; completed-stage
  // weight is preserved.
  live.begin_stage("sync");
  snap = live.snapshot();
  EXPECT_EQ(snap.phase, "sync");
  EXPECT_EQ(snap.units_total, 0);
  EXPECT_DOUBLE_EQ(snap.fraction, 0.5);

  live.begin_stage("b");
  live.unit_done();
  EXPECT_DOUBLE_EQ(live.snapshot().fraction, 1.0);

  live.end_run();
  snap = live.snapshot();
  EXPECT_EQ(snap.phase, "done");
  EXPECT_DOUBLE_EQ(snap.fraction, 1.0);
  EXPECT_FALSE(snap.running);
}

TEST_F(LiveTest, BestLnlKeepsTheMaximum) {
  live.begin_run(0, {{"a", 1, 1.0}});
  EXPECT_FALSE(live.snapshot().has_lnl);
  live.report_lnl(-5000.0);
  live.report_lnl(-4000.0);
  live.report_lnl(-4500.0);  // worse: ignored
  const auto snap = live.snapshot();
  EXPECT_TRUE(snap.has_lnl);
  EXPECT_DOUBLE_EQ(snap.best_lnl, -4000.0);
}

// --- wire format -----------------------------------------------------------

TEST_F(LiveTest, HeartbeatLineIsValidJsonAndRoundTrips) {
  obs::ProgressSnapshot snap;
  snap.rank = 2;
  snap.phase = "bootstrap";
  snap.units_done = 7;
  snap.units_total = 25;
  snap.fraction = 0.28;
  snap.best_lnl = -1234.5625;
  snap.has_lnl = true;
  snap.elapsed_s = 12.5;

  const std::string line = obs::format_heartbeat_line(snap, 987654321, 42);
  EXPECT_TRUE(JsonValidator(line).valid()) << line;

  const auto hb = obs::parse_heartbeat_line(line);
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->ts_ns, 987654321u);
  EXPECT_EQ(hb->rank, 2);
  EXPECT_EQ(hb->phase, "bootstrap");
  EXPECT_EQ(hb->units_done, 7);
  EXPECT_EQ(hb->units_total, 25);
  EXPECT_DOUBLE_EQ(hb->fraction, 0.28);
  EXPECT_TRUE(hb->has_lnl);
  EXPECT_DOUBLE_EQ(hb->best_lnl, -1234.5625);
  EXPECT_DOUBLE_EQ(hb->elapsed_s, 12.5);
  EXPECT_EQ(hb->newview_calls, 42u);
  EXPECT_FALSE(hb->done);
}

TEST_F(LiveTest, HeartbeatWithoutLnlSerializesNull) {
  obs::ProgressSnapshot snap;
  snap.rank = 0;
  snap.phase = "setup";
  const std::string line = obs::format_heartbeat_line(snap, 1, 0);
  EXPECT_NE(line.find("\"best_lnl\":null"), std::string::npos);
  EXPECT_TRUE(JsonValidator(line).valid()) << line;
  const auto hb = obs::parse_heartbeat_line(line);
  ASSERT_TRUE(hb.has_value());
  EXPECT_FALSE(hb->has_lnl);
}

TEST_F(LiveTest, ParseRejectsGarbageAndTornLines) {
  EXPECT_FALSE(obs::parse_heartbeat_line("").has_value());
  EXPECT_FALSE(obs::parse_heartbeat_line("not json").has_value());
  EXPECT_FALSE(obs::parse_heartbeat_line("{}").has_value());
  EXPECT_FALSE(obs::parse_heartbeat_line("{\"ts_ns\":12}").has_value());

  obs::ProgressSnapshot snap;
  snap.rank = 1;
  snap.phase = "slow";
  snap.fraction = 0.5;
  snap.elapsed_s = 3.0;
  const std::string line = obs::format_heartbeat_line(snap, 123, 0);
  ASSERT_TRUE(obs::parse_heartbeat_line(line).has_value());
  // A writer killed mid-append leaves a prefix of the line; every proper
  // prefix must be rejected, not mis-parsed.
  for (std::size_t cut = 1; cut < line.size(); ++cut)
    EXPECT_FALSE(obs::parse_heartbeat_line(line.substr(0, cut)).has_value())
        << "prefix length " << cut;
}

// --- ETA / straggler math --------------------------------------------------

TEST(AggregateStatus, EtaTracksTheSlowestRankAndConverges) {
  // Ranks progress at constant rate 0.01/s; at time t the true remaining
  // time is 100 - t, and the projection must reproduce it exactly.
  for (double t : {10.0, 25.0, 50.0, 90.0}) {
    const std::vector<Heartbeat> latest = {beat(0, t / 100.0, t),
                                           beat(1, t / 100.0, t)};
    const auto status = obs::aggregate_status(latest, 2, 2.0);
    EXPECT_NEAR(status.eta_s, 100.0 - t, 1e-9) << "t=" << t;
    EXPECT_NEAR(status.fraction, t / 100.0, 1e-12);
  }
}

TEST(AggregateStatus, EtaIsBoundByTheSlowestUnfinishedRank) {
  // Rank 1 is half as fast; the fleet ETA is its projection.
  const std::vector<Heartbeat> latest = {beat(0, 0.8, 40.0),
                                         beat(1, 0.4, 40.0)};
  const auto status = obs::aggregate_status(latest, 2, 10.0);
  EXPECT_NEAR(status.eta_s, (1.0 - 0.4) / (0.4 / 40.0), 1e-9);  // 60 s
}

TEST(AggregateStatus, ThreeTimesSlowerRankIsFlaggedExactly) {
  // Rank 3 progresses at 1/3 the rate of the other three ranks.
  const std::vector<Heartbeat> latest = {
      beat(0, 0.6, 100.0), beat(1, 0.6, 100.0), beat(2, 0.6, 100.0),
      beat(3, 0.2, 100.0)};
  const auto status = obs::aggregate_status(latest, 4, 2.0);
  ASSERT_EQ(status.stragglers.size(), 1u);
  EXPECT_EQ(status.stragglers[0].first, 3);
  EXPECT_NEAR(status.stragglers[0].second, 1.0 / 3.0, 1e-9);

  // The same stream with a laxer factor (rate threshold median/4 <
  // rank 3's rate) must flag nobody.
  EXPECT_TRUE(obs::aggregate_status(latest, 4, 4.0).stragglers.empty());
}

TEST(AggregateStatus, FinishedRanksAreNeverStragglers) {
  const std::vector<Heartbeat> latest = {
      beat(0, 0.9, 100.0), beat(1, 0.9, 100.0),
      beat(2, 0.1, 100.0, /*done=*/true)};
  EXPECT_TRUE(obs::aggregate_status(latest, 3, 2.0).stragglers.empty());
}

TEST(AggregateStatus, AllDoneMeansZeroEta) {
  const std::vector<Heartbeat> latest = {beat(0, 1.0, 10.0, true),
                                         beat(1, 1.0, 12.0, true)};
  const auto status = obs::aggregate_status(latest, 2, 2.0);
  EXPECT_DOUBLE_EQ(status.eta_s, 0.0);
}

TEST(AggregateStatus, NoProgressMeansUnknownEta) {
  const auto none = obs::aggregate_status({}, 2, 2.0);
  EXPECT_EQ(none.ranks_reporting, 0);
  EXPECT_DOUBLE_EQ(none.eta_s, -1.0);
  EXPECT_NE(obs::format_status_line(none).find("ETA --"), std::string::npos);

  // A rank that has reported but not progressed projects no rate either.
  const auto stalled = obs::aggregate_status({beat(0, 0.0, 5.0)}, 1, 2.0);
  EXPECT_DOUBLE_EQ(stalled.eta_s, -1.0);
}

TEST(AggregateStatus, StatusLineCarriesEtaAndStragglers) {
  const std::vector<Heartbeat> latest = {
      beat(0, 0.6, 100.0), beat(1, 0.6, 100.0), beat(2, 0.6, 100.0),
      beat(3, 0.2, 100.0)};
  const auto status = obs::aggregate_status(latest, 4, 2.0);
  const std::string line = obs::format_status_line(status);
  EXPECT_NE(line.find("live:"), std::string::npos) << line;
  EXPECT_NE(line.find("4/4 ranks"), std::string::npos) << line;
  EXPECT_NE(line.find("ETA"), std::string::npos) << line;
  EXPECT_NE(line.find("STRAGGLER rank 3"), std::string::npos) << line;
}

// --- writer + directory scan ----------------------------------------------

TEST_F(LiveTest, WriterProducesParseableNdjson) {
  const std::string dir = ::testing::TempDir() + "raxh_live_writer";
  live.begin_run(7, {{"a", 4, 1.0}});
  live.begin_stage("a");
  {
    obs::HeartbeatWriter writer(obs::HeartbeatOptions{dir, 7, 10});
    for (int i = 0; i < 4; ++i) {
      live.unit_done();
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
    live.end_run();
  }  // destructor stops: final line flushed

  std::ifstream in(obs::heartbeat_path(dir, 7));
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  Heartbeat last;
  while (std::getline(in, line)) {
    const auto hb = obs::parse_heartbeat_line(line);
    ASSERT_TRUE(hb.has_value()) << line;
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
    EXPECT_EQ(hb->rank, 7);
    last = *hb;
    ++lines;
  }
  EXPECT_GE(lines, 2);  // at least the immediate first beat + the final one
  EXPECT_TRUE(last.done);
  EXPECT_DOUBLE_EQ(last.fraction, 1.0);
  EXPECT_EQ(last.phase, "done");
}

TEST_F(LiveTest, ScanToleratesTornLinesAndAggregates) {
  const std::string dir = ::testing::TempDir() + "raxh_live_scan";
  live.reset();
  {
    obs::HeartbeatWriter w0(obs::HeartbeatOptions{dir, 0, 1000});
    obs::HeartbeatWriter w1(obs::HeartbeatOptions{dir, 1, 1000});
  }  // one beat each
  {
    // Overwrite with controlled content: rank 0 progressing, rank 1's file
    // ends in a torn line that must be skipped in favour of the previous.
    std::ofstream f0(obs::heartbeat_path(dir, 0), std::ios::trunc);
    obs::ProgressSnapshot s;
    s.rank = 0;
    s.phase = "fast";
    s.fraction = 0.5;
    s.elapsed_s = 10.0;
    f0 << obs::format_heartbeat_line(s, 1000, 0) << '\n';

    std::ofstream f1(obs::heartbeat_path(dir, 1), std::ios::trunc);
    s.rank = 1;
    s.fraction = 0.25;
    const std::string full = obs::format_heartbeat_line(s, 1000, 0);
    f1 << full << '\n' << full.substr(0, full.size() / 2);  // torn append
  }
  const auto status = obs::scan_heartbeat_dir(dir, 2, 2.0);
  EXPECT_EQ(status.ranks_reporting, 2);
  EXPECT_NEAR(status.fraction, (0.5 + 0.25) / 2.0, 1e-9);
  EXPECT_GT(status.eta_s, 0.0);
}

}  // namespace
}  // namespace raxh
