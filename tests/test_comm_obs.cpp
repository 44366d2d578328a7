// Comm-plane observability (obs/comm_obs.* + the minimpi hooks): the
// per-(peer, op) edge matrix must reconcile *exactly* with Comm::Stats (its
// view) on both backends, both transports, and both collective topologies,
// with observability on or off; one collective call books one duration
// into the flight recorder, the latency histogram and the barrier wait;
// shm-ring
// backpressure must surface in the ring gauges; nonblocking report
// collection must show positive overlap; the metrics JSON round-trips
// through the raxh_comm parser; and an injected slow rank shows up as a
// named slow tree edge in the offline report.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/hybrid.h"
#include "minimpi/comm.h"
#include "minimpi/fault.h"
#include "obs/comm_obs.h"
#include "obs/flight.h"
#include "obs/hist.h"
#include "obs/obs.h"
#include "obs/postmortem.h"

namespace raxh {
namespace {

namespace comm_obs = obs::comm;
namespace flight = obs::flight;
namespace pm = obs::pm;

// Every test drives the process-wide comm plane; scope it so tests neither
// see each other's traffic nor leak enabled observability to later suites.
struct CommObsScope {
  CommObsScope() {
    obs::set_enabled(true);
    comm_obs::reset();
  }
  ~CommObsScope() {
    obs::set_enabled(false);
    comm_obs::reset();
  }
};

bool op_matches(const comm_obs::EdgeTotals& t, const mpi::Comm::OpStats& s) {
  return t.msgs_sent == s.msgs_sent && t.bytes_sent == s.bytes_sent &&
         t.msgs_recv == s.msgs_recv && t.bytes_recv == s.bytes_recv;
}

// A traffic mix touching every op class: a p2p ring exchange, a barrier, a
// bcast, an allreduce, and a gather.
void run_traffic(mpi::Comm& comm) {
  const int n = comm.size();
  const int next = (comm.rank() + 1) % n;
  const int prev = (comm.rank() + n - 1) % n;
  comm.send(next, 42, mpi::Bytes(257, 0x11));
  (void)comm.recv(prev, 42);
  comm.barrier();
  mpi::Bytes blob(513, 0x22);
  comm.bcast(blob, 0);
  (void)comm.allreduce_sum(comm.rank() + 1.0);
  (void)comm.gather_strings(std::string(100 + comm.rank(), 'x'), 0);
}

// In-rank exact reconciliation of the rank's live matrix block against its
// own CommStats, reduced to rank 0 (whose gtest expectations are visible on
// both backends — process ranks 1.. are forked children).
void reconcile_rank(mpi::Comm& comm, std::atomic<int>* failures) {
  run_traffic(comm);
  const comm_obs::BlockTotals t = comm_obs::totals(comm.comm_matrix());
  const mpi::Comm::Stats& s = comm.stats();
  const mpi::Comm::OpStats* per[comm_obs::kNumOps] = {
      &s.p2p, &s.barrier, &s.bcast, &s.reduce, &s.gather};
  bool ok = comm.comm_matrix() != nullptr;
  for (int op = 0; op < comm_obs::kNumOps; ++op)
    ok = ok && op_matches(t.per_op[op], *per[op]);
  ok = ok && t.per_op[comm_obs::kOpP2p].bytes_sent >= 257;
  const double bad = comm.allreduce_sum(ok ? 0.0 : 1.0);
  if (comm.rank() == 0)
    failures->store(static_cast<int>(bad), std::memory_order_relaxed);
}

TEST(CommObs, MatrixReconcilesOnBothBackendsTransportsAndTopologies) {
  for (const bool processes : {false, true}) {
    for (const mpi::Transport transport :
         {mpi::Transport::kSocketpair, mpi::Transport::kShm}) {
      for (const mpi::CollectiveAlgo algo :
           {mpi::CollectiveAlgo::kStar, mpi::CollectiveAlgo::kTree}) {
        CommObsScope scope;
        mpi::CommOptions options;
        options.transport = transport;
        options.collectives = algo;
        std::atomic<int> failures{-1};
        const auto fn = [&](mpi::Comm& comm) {
          reconcile_rank(comm, &failures);
        };
        if (processes)
          mpi::run_process_ranks(3, fn, options);
        else
          mpi::run_thread_ranks(3, fn, options);
        EXPECT_EQ(failures.load(), 0)
            << (processes ? "process" : "thread") << " backend, "
            << (transport == mpi::Transport::kShm ? "shm" : "socketpair")
            << " transport, "
            << (algo == mpi::CollectiveAlgo::kTree ? "tree" : "star")
            << " collectives";
      }
    }
  }
}

TEST(CommObs, FaultDecoratorMatrixReconcilesToo) {
  // FaultyComm keeps its own counted stats; its matrix block (same rank as
  // the inner comm) must reconcile against them just like a plain Comm's.
  CommObsScope scope;
  const mpi::FaultPlan plan = mpi::FaultPlan::parse("delay@1,2,5");
  std::atomic<int> failures{-1};
  mpi::run_thread_ranks(3, [&](mpi::Comm& inner) {
    mpi::FaultyComm comm(inner, plan);
    const comm_obs::BlockTotals before = comm_obs::totals(comm.comm_matrix());
    EXPECT_EQ(before.per_op[comm_obs::kOpP2p].msgs_sent, 0u);
    reconcile_rank(comm, &failures);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(CommObs, StatsAreTheMatrixWithObsOff) {
  // Message and byte counts do not wait for obs::enabled(): a disabled run
  // still has a matrix, stats() is its per-op fold, and nothing is timed.
  obs::set_enabled(false);
  comm_obs::reset();
  mpi::run_thread_ranks(3, [](mpi::Comm& comm) {
    run_traffic(comm);
    ASSERT_NE(comm.comm_matrix(), nullptr);
    const comm_obs::BlockTotals t = comm_obs::totals(comm.comm_matrix());
    const mpi::Comm::Stats s = comm.stats();
    const mpi::Comm::OpStats per[comm_obs::kNumOps] = {
        s.p2p, s.barrier, s.bcast, s.reduce, s.gather};
    for (int op = 0; op < comm_obs::kNumOps; ++op) {
      EXPECT_TRUE(op_matches(t.per_op[op], per[op])) << comm_obs::op_name(op);
      EXPECT_EQ(t.per_op[op].send_ns, 0u) << comm_obs::op_name(op);
      EXPECT_EQ(t.per_op[op].recv_ns, 0u) << comm_obs::op_name(op);
    }
    EXPECT_GE(s.p2p.bytes_sent, 257u);
    EXPECT_GT(s.total().msgs_recv, 0u);
    EXPECT_EQ(t.overlap.inflight_ns, 0u);
    EXPECT_EQ(t.overlap.blocked_ns, 0u);
    EXPECT_EQ(s.synthetic_delay_ns, 0u);

    comm.reset_stats();
    const comm_obs::BlockTotals zt = comm_obs::totals(comm.comm_matrix());
    const mpi::Comm::Stats zs = comm.stats();
    for (int op = 0; op < comm_obs::kNumOps; ++op) {
      EXPECT_EQ(zt.per_op[op].msgs_sent + zt.per_op[op].msgs_recv, 0u);
      EXPECT_EQ(zt.per_op[op].bytes_sent + zt.per_op[op].bytes_recv, 0u);
    }
    EXPECT_EQ(zs.total().msgs_sent + zs.total().msgs_recv, 0u);
    EXPECT_EQ(zs.total().bytes_sent + zs.total().bytes_recv, 0u);
    EXPECT_EQ(zs.barrier_wait_ns, 0u);
  });
  comm_obs::reset();
}

// --- shm ring gauges ---

TEST(CommObs, ShmRingBackpressureSurfacesInRingGauges) {
  CommObsScope scope;
  mpi::CommOptions options;
  options.transport = mpi::Transport::kShm;
  options.shm_ring_bytes = 1024;  // tiny ring: a 16 KiB send must stall
  mpi::run_thread_ranks(2, [&](mpi::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, mpi::Bytes(16384, 0x33));
    } else {
      // Hold the drain back long enough that the sender provably fills the
      // ring and enters a full-ring stall before the first read.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      (void)comm.recv(0, 7);
    }
    comm.barrier();
  }, options);
  const comm_obs::Snapshot snap = comm_obs::snapshot();
  std::uint64_t stalls = 0, stalled_ns = 0, hwm = 0;
  for (const auto& r : snap.rings) {
    stalls += r.t.stalls;
    stalled_ns += r.t.stalled_ns;
    hwm = std::max(hwm, r.t.hwm_bytes);
  }
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(stalled_ns, 0u);
  EXPECT_GT(hwm, 0u);
  EXPECT_LE(hwm, options.shm_ring_bytes);
  EXPECT_EQ(comm_obs::stalled_now(), 0);  // every stall scope closed
}

// --- nonblocking overlap ---

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

TEST(CommObs, OverlappedReportCollectionHasPositiveOverlap) {
  // The fault-tolerant driver posts one report irecv per worker and tests
  // them while sharing results (hybrid.cpp): across the run, time in flight
  // must exceed time blocked in test()/wait() — the overlap the nonblocking
  // API actually bought — and the ratio must come out positive.
  CommObsScope scope;
  mpi::run_thread_ranks(3, [&](mpi::Comm& comm) {
    run_hybrid_comprehensive({}, comm, tiny_patterns(), tiny_options(true));
  });
  const comm_obs::Snapshot snap = comm_obs::snapshot();
  comm_obs::OverlapTotals sum;
  for (const auto& o : snap.overlap) {
    sum.requests += o.t.requests;
    sum.test_completions += o.t.test_completions;
    sum.wait_completions += o.t.wait_completions;
    sum.inflight_ns += o.t.inflight_ns;
    sum.blocked_ns += o.t.blocked_ns;
  }
  EXPECT_GT(sum.requests, 0u);
  EXPECT_GT(sum.test_completions + sum.wait_completions, 0u);
  EXPECT_GT(sum.inflight_ns, sum.blocked_ns);
  EXPECT_GT(sum.overlap_ratio(), 0.0);
}

// --- metrics JSON round trip + offline report ---

// The exact composition the one-shot CLI uses for --metrics-out: per-rank
// fragments with the CommStats and comm-matrix sections, gathered to rank 0
// and merged into one JSON array.
std::string collect_metrics_doc(mpi::Comm& comm) {
  const std::string fragment = obs::export_metrics_fragment(
      comm.rank(),
      comm.stats().to_json() + "," + comm_obs::to_json_section(comm.rank()));
  const std::vector<std::string> fragments =
      comm.gather_strings(fragment, 0);
  return comm.rank() == 0 ? obs::merge_metrics_fragments(fragments)
                          : std::string();
}

TEST(CommObs, MetricsJsonRoundTripsAndReconcilesOffline) {
  CommObsScope scope;
  std::string doc;
  mpi::run_thread_ranks(3, [&](mpi::Comm& comm) {
    run_traffic(comm);
    const std::string merged = collect_metrics_doc(comm);
    if (comm.rank() == 0) doc = merged;
  });
  ASSERT_FALSE(doc.empty());

  std::string error;
  const std::vector<comm_obs::RankDump> ranks =
      comm_obs::parse_metrics_report(doc, &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(ranks.size(), 3u);
  for (const comm_obs::RankDump& rank : ranks) {
    EXPECT_TRUE(rank.has_comm_stats);
    EXPECT_TRUE(rank.has_matrix);
    std::string detail;
    EXPECT_TRUE(comm_obs::reconciles(rank, &detail)) << detail;
  }
  bool ok = false;
  const std::string report = comm_obs::format_report(ranks, 10, &ok);
  EXPECT_TRUE(ok) << report;
  EXPECT_NE(report.find("reconcile exactly"), std::string::npos) << report;

  // Corrupting one matrix byte count must flip reconciliation, proving the
  // equality assertion has teeth.
  comm_obs::RankDump broken = ranks[0];
  ASSERT_FALSE(broken.edges.empty());
  broken.edges[0].t.bytes_sent += 1;
  std::string detail;
  EXPECT_FALSE(comm_obs::reconciles(broken, &detail));
  EXPECT_FALSE(detail.empty());
}

TEST(CommObs, SlowTreeEdgeIsNamedInTheOfflineReport) {
  // Chaos-delay scenario: with binomial-tree collectives rooted at 0 and 3
  // ranks, rank 2's bcast parent is rank 0. Delaying rank 2's first recvs
  // inflates the receiver-side latency of exactly the r0 -> r2 edge, and
  // the slow-edge table must put that edge on top, by name.
  CommObsScope scope;
  const mpi::FaultPlan plan =
      mpi::FaultPlan::parse("delay@2,1,25;delay@2,2,25");
  std::string doc;
  mpi::run_thread_ranks(3, [&](mpi::Comm& inner) {
    mpi::FaultyComm comm(inner, plan);
    comm.set_collectives(mpi::CollectiveAlgo::kTree);
    for (int i = 0; i < 4; ++i) {
      mpi::Bytes blob(2048, 0x44);
      comm.bcast(blob, 0);
    }
    const std::string merged = collect_metrics_doc(comm);
    if (comm.rank() == 0) doc = merged;
  });
  ASSERT_FALSE(doc.empty());

  std::string error;
  const auto ranks = comm_obs::parse_metrics_report(doc, &error);
  ASSERT_TRUE(error.empty()) << error;
  bool ok = false;
  const std::string report = comm_obs::format_report(ranks, 5, &ok);
  EXPECT_TRUE(ok) << report;
  const std::size_t slow = report.find("slow edges");
  ASSERT_NE(slow, std::string::npos) << report;
  const std::size_t top_row = report.find("#1", slow);
  ASSERT_NE(top_row, std::string::npos) << report;
  const std::size_t eol = report.find('\n', top_row);
  EXPECT_NE(report.substr(top_row, eol - top_row).find("r0 -> r2"),
            std::string::npos)
      << report;
}

// --- collective tracing + postmortem clock offsets over shm ---

std::string fresh_dir(const char* stem) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string(stem) + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(CommObs, PostmortemEstimatesClockOffsetsOverShmTransport) {
  // The same injected-death postmortem that test_flight runs over the
  // socketpair mesh, but over shm rings: offset estimation must still place
  // every rank on the merged timeline, and the collective-edge report must
  // render from the kCollEdge events the tree collectives now stamp.
  const mpi::FaultPlan plan = mpi::FaultPlan::parse("die@1,4");
  for (const bool processes : {false, true}) {
    const std::string dir =
        fresh_dir(processes ? "raxh_commobs_pm_p" : "raxh_commobs_pm_t");
    flight::set_dump_dir(dir);
    flight::reset();
    mpi::CommOptions options;
    options.transport = mpi::Transport::kShm;
    const auto fn = [&](mpi::Comm& inner) {
      mpi::FaultyComm comm(inner, plan);
      run_hybrid_comprehensive({}, comm, tiny_patterns(), tiny_options(true));
    };
    if (processes)
      mpi::run_process_ranks(3, fn, options);
    else
      mpi::run_thread_ranks(3, fn, options);

    std::vector<std::string> errors;
    const auto boxes = pm::read_dir(dir, &errors);
    EXPECT_TRUE(errors.empty());
    ASSERT_FALSE(boxes.empty());
    const pm::Merged merged = pm::merge(boxes);
    ASSERT_EQ(merged.dead.size(), 1u);
    EXPECT_EQ(merged.dead[0].first, 1);
    // Every merged rank got a clock-offset estimate.
    for (const int rank : merged.ranks) {
      bool found = false;
      for (const auto& [r, offset] : merged.offsets) {
        if (r != rank) continue;
        found = true;
        // Same-host estimates must stay far below the run's duration.
        EXPECT_LT(std::abs(static_cast<double>(offset)), 60e9);
      }
      EXPECT_TRUE(found) << "no offset estimate for rank " << rank;
    }
    EXPECT_FALSE(pm::format_timeline(merged).empty());
    EXPECT_FALSE(pm::format_edge_report(merged).empty());
    flight::set_dump_dir("");
    std::filesystem::remove_all(dir);
  }
}

TEST(CommObs, TreeCollectivesStampCollectiveEdgeEvents) {
  // Tree collectives bracket each hop with a kCollEdge event carrying the
  // (collective id, parent -> child) edge; merging the boxes must yield an
  // edge report that names mpi.bcast hops and their per-instance critical
  // edges.
  const std::string dir = fresh_dir("raxh_commobs_edges");
  flight::set_dump_dir(dir);
  flight::reset();
  mpi::CommOptions options;
  options.collectives = mpi::CollectiveAlgo::kTree;
  mpi::run_thread_ranks(3, [&](mpi::Comm& comm) {
    for (int i = 0; i < 3; ++i) {
      mpi::Bytes blob(1024, 0x55);
      comm.bcast(blob, 0);
    }
    comm.barrier();
    flight::dump_now(comm.rank(), "end of run");
  }, options);

  std::vector<std::string> errors;
  const auto boxes = pm::read_dir(dir, &errors);
  ASSERT_TRUE(errors.empty());
  const pm::Merged merged = pm::merge(boxes);
  bool saw_edge = false;
  for (const auto& ev : merged.events)
    if (ev.kind == flight::Kind::kCollEdge) saw_edge = true;
  EXPECT_TRUE(saw_edge);
  const std::string report = pm::format_edge_report(merged);
  EXPECT_NE(report.find("mpi.bcast"), std::string::npos) << report;
  EXPECT_NE(report.find("critical edge"), std::string::npos) << report;
  flight::set_dump_dir("");
  std::filesystem::remove_all(dir);
}

TEST(CommObs, CollectiveDurationIsOneMeasurement) {
  // One barrier per rank, no fault plan: the flight kCollEnd duration, the
  // rank's barrier_wait_ns and its collective-latency sample all come from
  // the same pair of clock samples, so they are equal, not merely close.
  CommObsScope scope;
  obs::reset();
  const std::string dir = fresh_dir("raxh_commobs_one");
  flight::set_enabled(true);
  flight::set_dump_dir(dir);
  flight::reset();
  std::uint64_t wait[2] = {0, 0};
  mpi::run_thread_ranks(2, [&](mpi::Comm& comm) {
    comm.barrier();
    wait[comm.rank()] = comm.stats().barrier_wait_ns;
    flight::dump_now(comm.rank(), "end of run");
  });

  for (int r = 0; r < 2; ++r) {
    const flight::Blackbox box =
        flight::read_blackbox(flight::dump_path_for_rank(r));
    std::vector<std::uint64_t> ends;
    for (const auto& ev : box.all_events())
      if (ev.kind == flight::Kind::kCollEnd && ev.rank == r &&
          box.name(ev.a) == "mpi.barrier")
        ends.push_back(ev.b);
    ASSERT_EQ(ends.size(), 1u) << "rank " << r;
    EXPECT_GT(wait[r], 0u);
    EXPECT_EQ(wait[r], ends[0]) << "rank " << r;
  }
  const obs::HistSnapshot hist = obs::hist_snapshot(obs::Hist::kCollectiveNs);
  EXPECT_EQ(hist.count, 2u);
  EXPECT_EQ(hist.sum_ns, wait[0] + wait[1]);
  flight::set_dump_dir("");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace raxh
