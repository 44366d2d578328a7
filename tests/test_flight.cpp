// Flight recorder (obs/flight.*) and post-mortem analysis (obs/postmortem.*):
// dump/decode round trips, ring-wrap semantics, hostile-input fuzzing with
// the same truncation / bit-flip / trailing-garbage matrix the checkpoint
// fuzzer uses, and end-to-end integration — an injected rank death must
// leave black boxes whose merged post-mortem names the dead rank and its
// last completed comm op, and on a fault-free run the critical-path report
// must reconcile with the phase timers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/hybrid.h"
#include "minimpi/comm.h"
#include "minimpi/fault.h"
#include "obs/flight.h"
#include "obs/phase.h"
#include "obs/postmortem.h"
#include "parallel/workforce.h"

namespace raxh {
namespace {

namespace flight = obs::flight;
namespace pm = obs::pm;

std::string fresh_dir(const char* stem) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string(stem) + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A small deterministic box for the fuzz tests: a few events of every
// payload shape, dumped for rank 3.
std::string make_box(const std::string& dir) {
  flight::reset();
  flight::set_thread_rank(3);
  flight::set_dump_dir(dir);
  const std::uint32_t barrier = flight::name_id("mpi.barrier");
  flight::record(flight::Kind::kPhaseBegin, flight::name_id("bootstrap"));
  flight::record(flight::Kind::kSendBegin, flight::peer_tag(0, 17), 64);
  flight::record(flight::Kind::kSendEnd, flight::peer_tag(0, 17), 64);
  flight::record(flight::Kind::kCollBegin, barrier);
  flight::record(flight::Kind::kCollEnd, barrier, 1234567);
  flight::record(flight::Kind::kPhaseEnd, flight::name_id("bootstrap"),
                 9876543);
  EXPECT_TRUE(flight::dump_now(3, "fuzz fixture", /*fatal=*/true));
  return flight::dump_path_for_rank(3);
}

// --- recording + dump/decode round trip ---

TEST(Flight, DumpRoundTripsEventsNamesAndReason) {
  const std::string dir = fresh_dir("raxh_flight_rt");
  const std::string path = make_box(dir);

  const flight::Blackbox box = flight::read_blackbox(path);
  EXPECT_EQ(box.rank, 3);
  EXPECT_TRUE(box.fatal);
  EXPECT_EQ(box.reason, "fuzz fixture");
  EXPECT_EQ(box.torn, 0u);
  EXPECT_EQ(box.dropped, 0u);

  const auto events = box.all_events();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, flight::Kind::kPhaseBegin);
  EXPECT_EQ(box.name(events[0].a), "bootstrap");
  EXPECT_EQ(events[1].kind, flight::Kind::kSendBegin);
  EXPECT_EQ(flight::peer_of(events[1].a), 0);
  EXPECT_EQ(flight::tag_of(events[1].a), 17);
  EXPECT_EQ(events[1].b, 64u);
  EXPECT_EQ(events[4].kind, flight::Kind::kCollEnd);
  EXPECT_EQ(box.name(events[4].a), "mpi.barrier");
  EXPECT_EQ(events[4].b, 1234567u);
  for (const auto& ev : events) EXPECT_EQ(ev.rank, 3);
  // Timestamps are monotone within one ring.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);

  std::filesystem::remove_all(dir);
}

TEST(Flight, RingWrapKeepsNewestEventsAndCountsDropped) {
  const std::string dir = fresh_dir("raxh_flight_wrap");
  flight::reset();
  flight::set_thread_rank(0);
  flight::set_dump_dir(dir);
  const std::size_t extra = 100;
  const std::size_t total = flight::kRingCapacity + extra;
  for (std::size_t i = 0; i < total; ++i)
    flight::record(flight::Kind::kNote, 1, i);
  ASSERT_TRUE(flight::dump_now(0, "wrap"));

  const flight::Blackbox box =
      flight::read_blackbox(flight::dump_path_for_rank(0));
  const flight::Blackbox::RingDump* ring = nullptr;
  for (const auto& r : box.rings)
    if (r.head == total) ring = &r;
  ASSERT_NE(ring, nullptr) << "no ring with head " << total;
  EXPECT_EQ(ring->events.size(), flight::kRingCapacity);
  EXPECT_EQ(box.dropped, extra);
  // Oldest surviving event is the one right after the wrapped-away prefix;
  // the newest is the last recorded.
  EXPECT_EQ(ring->events.front().b, extra);
  EXPECT_EQ(ring->events.back().b, total - 1);

  std::filesystem::remove_all(dir);
}

TEST(Flight, DisabledRecorderIsANoOp) {
  flight::reset();
  const std::uint64_t before = flight::events_recorded();
  flight::set_enabled(false);
  flight::record(flight::Kind::kNote, 1, 2);
  EXPECT_EQ(flight::events_recorded(), before);
  flight::set_enabled(true);
  flight::record(flight::Kind::kNote, 1, 2);
  EXPECT_EQ(flight::events_recorded(), before + 1);
}

TEST(Flight, DumpWithoutConfiguredDirFailsCleanly) {
  flight::set_dump_dir("");
  EXPECT_EQ(flight::dump_path_for_rank(0), "");
  EXPECT_FALSE(flight::dump_now(0, "nowhere"));
}

// --- hostile-input fuzzing: the checkpoint fuzzer's matrix, applied to
//     black boxes. Every corrupt file must throw a diagnostic, never crash
//     or half-parse. ---

TEST(FlightFuzz, EveryTruncationIsRejected) {
  const std::string dir = fresh_dir("raxh_flight_trunc");
  const std::string path = make_box(dir);
  const std::string full = slurp(path);
  ASSERT_GT(full.size(), 80u);
  EXPECT_NO_THROW(flight::read_blackbox(path));
  for (std::size_t len = 0; len < full.size(); len += 3) {
    spit(path, full.substr(0, len));
    EXPECT_THROW(flight::read_blackbox(path), std::runtime_error)
        << "truncation to " << len << " of " << full.size()
        << " bytes was accepted";
  }
  std::filesystem::remove_all(dir);
}

TEST(FlightFuzz, EveryBitFlipIsRejected) {
  const std::string dir = fresh_dir("raxh_flight_flip");
  const std::string path = make_box(dir);
  const std::string full = slurp(path);
  // Any flipped byte lands in the checksummed region, the checksum itself,
  // or the end marker — all three must fail the integrity checks.
  for (std::size_t pos = 0; pos < full.size(); pos += 2) {
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    spit(path, mutated);
    EXPECT_THROW(flight::read_blackbox(path), std::runtime_error)
        << "bit flip at byte " << pos << " was accepted";
  }
  std::filesystem::remove_all(dir);
}

TEST(FlightFuzz, TrailingGarbageIsRejected) {
  const std::string dir = fresh_dir("raxh_flight_tail");
  const std::string path = make_box(dir);
  const std::string full = slurp(path);
  spit(path, full + "junk after the end marker");
  EXPECT_THROW(flight::read_blackbox(path), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(FlightFuzz, TinyAndEmptyFilesAreRejected) {
  const std::string dir = fresh_dir("raxh_flight_tiny");
  const std::string path = dir + "/rank0.blackbox";
  spit(path, "");
  EXPECT_THROW(flight::read_blackbox(path), std::runtime_error);
  spit(path, "RAXHBBX1");
  EXPECT_THROW(flight::read_blackbox(path), std::runtime_error);
  spit(path, std::string(25, 'x'));
  EXPECT_THROW(flight::read_blackbox(path), std::runtime_error);
  EXPECT_THROW(flight::read_blackbox(dir + "/missing.blackbox"),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(FlightFuzz, ReadDirSkipsCorruptBoxesWithDiagnostics) {
  const std::string dir = fresh_dir("raxh_flight_dir");
  make_box(dir);  // rank3.blackbox, valid
  spit(dir + "/rank9.blackbox", "not a black box at all");
  std::vector<std::string> errors;
  const auto boxes = pm::read_dir(dir, &errors);
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes[0].rank, 3);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("rank9.blackbox"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// --- post-mortem analysis ---

TEST(Postmortem, LastOpSummaryNamesTheLastCompletedOp) {
  const std::string dir = fresh_dir("raxh_flight_lastop");
  flight::reset();
  flight::set_thread_rank(1);
  flight::set_dump_dir(dir);
  flight::record(flight::Kind::kSendBegin, flight::peer_tag(0, 900002), 48);
  flight::record(flight::Kind::kSendEnd, flight::peer_tag(0, 900002), 48);
  flight::record(flight::Kind::kRecvBegin, flight::peer_tag(0, 900003));
  ASSERT_TRUE(flight::dump_now(1, "injected rank death", /*fatal=*/true));

  const auto summary =
      pm::last_op_summary(flight::dump_path_for_rank(1), 1);
  ASSERT_TRUE(summary.has_value());
  EXPECT_NE(summary->find("ft.report"), std::string::npos) << *summary;

  // Unreadable box → nullopt, never a throw.
  EXPECT_FALSE(pm::last_op_summary(dir + "/missing.blackbox", 1).has_value());

  // A rank that died before completing any comm op says so.
  flight::reset();
  flight::record(flight::Kind::kSendBegin, flight::peer_tag(0, 5));
  ASSERT_TRUE(flight::dump_now(1, "early death", /*fatal=*/true));
  const auto early = pm::last_op_summary(flight::dump_path_for_rank(1), 1);
  ASSERT_TRUE(early.has_value());
  EXPECT_NE(early->find("before completing any comm op"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(Postmortem, MergeDeduplicatesRingsSharedBetweenBoxes) {
  // Thread-backend boxes all carry every ring of the process; merging the
  // boxes of two ranks must not double-count events.
  const std::string dir = fresh_dir("raxh_flight_dedupe");
  flight::reset();
  flight::set_thread_rank(0);
  flight::set_dump_dir(dir);
  flight::record(flight::Kind::kNote, flight::name_id("solo"));
  flight::record(flight::Kind::kNote, flight::name_id("solo"));
  ASSERT_TRUE(flight::dump_now(0, "box a"));
  ASSERT_TRUE(flight::dump_now(1, "box b"));

  std::vector<flight::Blackbox> boxes = {
      flight::read_blackbox(flight::dump_path_for_rank(0)),
      flight::read_blackbox(flight::dump_path_for_rank(1))};
  const pm::Merged merged = pm::merge(boxes);
  EXPECT_EQ(merged.events.size(), 2u);
  std::filesystem::remove_all(dir);
}

// --- integration: injected death → black boxes → post-mortem report ---

const PatternAlignment& tiny_patterns() {
  static const PatternAlignment patterns = [] {
    SimConfig cfg;
    cfg.taxa = 8;
    cfg.distinct_sites = 90;
    cfg.total_sites = 120;
    cfg.seed = 2026;
    return PatternAlignment::compress(simulate_alignment(cfg).alignment);
  }();
  return patterns;
}

HybridOptions tiny_options(bool fault_tolerant) {
  HybridOptions o;
  o.analysis.specified_bootstraps = 6;
  o.analysis.fast.max_rounds = 1;
  o.analysis.slow.max_rounds = 1;
  o.analysis.thorough.max_rounds = 2;
  o.analysis.slow.optimize_model = false;
  o.analysis.thorough.optimize_model = false;
  o.compute_support = false;
  o.run_bootstopping = false;
  o.fault_tolerant = fault_tolerant;
  return o;
}

TEST(FlightIntegration, PostMortemNamesDeadRankOnBothBackends) {
  const mpi::FaultPlan plan = mpi::FaultPlan::parse("die@1,4");
  for (const bool processes : {false, true}) {
    const std::string dir = fresh_dir(processes ? "raxh_flight_pm_p"
                                                : "raxh_flight_pm_t");
    flight::set_dump_dir(dir);
    flight::reset();
    const auto fn = [&](mpi::Comm& inner) {
      mpi::FaultyComm comm(inner, plan);
      run_hybrid_comprehensive({}, comm, tiny_patterns(), tiny_options(true));
    };
    if (processes)
      mpi::run_process_ranks(3, fn);
    else
      mpi::run_thread_ranks(3, fn);

    std::vector<std::string> errors;
    const auto boxes = pm::read_dir(dir, &errors);
    EXPECT_TRUE(errors.empty());
    ASSERT_FALSE(boxes.empty());
    const pm::Merged merged = pm::merge(boxes);
    ASSERT_EQ(merged.dead.size(), 1u);
    EXPECT_EQ(merged.dead[0].first, 1);
    const std::string report = pm::format_postmortem(merged);
    EXPECT_NE(report.find("rank 1 died"), std::string::npos) << report;
    EXPECT_TRUE(report.find("last completed comm op") != std::string::npos ||
                report.find("before completing any comm op") !=
                    std::string::npos)
        << report;
    // The reports must all render without throwing on real data.
    EXPECT_FALSE(pm::format_timeline(merged).empty());
    EXPECT_FALSE(pm::format_barrier_report(merged).empty());
    EXPECT_FALSE(pm::format_critical_path(merged).empty());
    std::filesystem::remove_all(dir);
  }
}

TEST(FlightIntegration, CriticalPathReconcilesWithPhaseTimers) {
  // Fault-free 4-rank run on the thread backend: the flight recorder's
  // kPhaseEnd events carry the same clock samples run_phases() accumulates,
  // so per-stage sums across ranks must match the phase-timer table within
  // 5% (the slack covers only the phases the main thread adds outside rank
  // context — there are none here — and float-vs-ns rounding).
  const std::string dir = fresh_dir("raxh_flight_cp");
  flight::set_dump_dir(dir);
  flight::reset();
  obs::run_phases().clear();
  mpi::run_thread_ranks(4, [&](mpi::Comm& comm) {
    run_hybrid_comprehensive({}, comm, tiny_patterns(), tiny_options(false));
    flight::dump_now(comm.rank(), "end of run");
  });

  std::vector<std::string> errors;
  const auto boxes = pm::read_dir(dir, &errors);
  ASSERT_TRUE(errors.empty());
  ASSERT_EQ(boxes.size(), 4u);
  const pm::Merged merged = pm::merge(boxes);
  EXPECT_EQ(merged.ranks.size(), 4u);
  EXPECT_EQ(merged.dropped, 0u);

  const auto table = pm::stage_table(merged);
  ASSERT_FALSE(table.empty());
  double stages_checked = 0;
  for (const auto& row : table) {
    const double timer_s = obs::run_phases().total(row.stage);
    double flight_s = 0.0;
    for (double s : row.per_rank_s) flight_s += s;
    if (timer_s < 1e-4) continue;  // sub-0.1ms stages are all noise
    EXPECT_NEAR(flight_s, timer_s, 0.05 * timer_s)
        << "stage " << row.stage << " diverges from the phase timers";
    ++stages_checked;
  }
  EXPECT_GE(stages_checked, 2) << "run too fast to compare any stage";
  std::filesystem::remove_all(dir);
}

TEST(Flight, CrewJobDurationsConsistentAcrossPaths) {
  // Regression: kJobEnd used to cover just the job on a 1-thread crew but
  // dispatch + job + the master's wait on a real crew, so post-mortem
  // critical paths double-counted imbalance as kernel work. Now kJobEnd is
  // dispatch + the master's own share on BOTH paths, and the wait for the
  // crew is its own kJobWait event (crew path only). A fresh crew's first
  // job (index 0) is always inside the 1-in-64 sample.
  const std::string dir = fresh_dir("raxh_flight_crew");
  flight::reset();
  flight::set_enabled(true);
  flight::set_dump_dir(dir);

  {
    Workforce solo(1);
    solo.run([](int, int) {});
  }
  {
    Workforce crew(2);
    crew.run([](int, int) {});
  }

  ASSERT_TRUE(flight::dump_now(0, "crew dispatch test"));
  const auto box = flight::read_blackbox(flight::dump_path_for_rank(0));
  int begin[2] = {0, 0}, end[2] = {0, 0}, wait[2] = {0, 0};
  for (const auto& ev : box.all_events()) {
    if (ev.a != 1 && ev.a != 2) continue;  // a = crew size on job events
    const std::size_t crew_size = ev.a == 1 ? 0 : 1;
    switch (ev.kind) {
      case flight::Kind::kJobBegin: ++begin[crew_size]; break;
      case flight::Kind::kJobEnd: ++end[crew_size]; break;
      case flight::Kind::kJobWait: ++wait[crew_size]; break;
      default: break;
    }
  }
  EXPECT_EQ(begin[0], 1);
  EXPECT_EQ(end[0], 1);
  EXPECT_EQ(wait[0], 0);  // 1-thread crew: nothing to wait for
  EXPECT_EQ(begin[1], 1);
  EXPECT_EQ(end[1], 1);
  EXPECT_EQ(wait[1], 1);  // crew path books the barrier wait separately
  flight::set_dump_dir("");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace raxh
