// Cross-backend collective conformance: every {thread, process} backend ×
// {socketpair, shm} transport × {star, tree} algorithm × rank-count
// combination must produce bit-identical collective results, preserve
// MAXLOC's lowest-rank tie-breaking, and count identical per-op Comm::Stats
// traffic for the same protocol. This suite is the gate that makes the tree
// collectives / shm transport refactor safe to sit under the fault layer and
// the flight recorder: if a combination drifts, it fails here, not in a
// chaos run.
//
// Verification pattern: every rank checks its own view locally and reduces
// an ok-flag; rank 0 (always the calling process/thread, so its captures are
// visible to gtest on both backends) asserts the count. A wedged collective
// trips the test timeout rather than hiding a hang.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "minimpi/comm.h"

namespace raxh::mpi {
namespace {

// gtest prints a param that has no PrintTo as its raw bytes, and CTest bakes
// that text into the discovered test names. Every field is 4 bytes wide so
// the struct has no padding: padding bytes hold stale heap residue, which
// would make the names change from one build to the next.
struct Cfg {
  std::int32_t processes;  // 0 = thread ranks, 1 = process ranks
  Transport transport;
  CollectiveAlgo algo;
  int nranks;
};

std::string cfg_name(const testing::TestParamInfo<Cfg>& info) {
  const Cfg& c = info.param;
  std::string s = c.processes ? "Process" : "Thread";
  s += c.transport == Transport::kShm ? "Shm" : "Sock";
  s += c.algo == CollectiveAlgo::kTree ? "Tree" : "Star";
  s += std::to_string(c.nranks);
  return s;
}

CommOptions options_for(const Cfg& c) {
  CommOptions o;
  o.transport = c.transport;
  o.collectives = c.algo;
  return o;
}

void run_cfg(const Cfg& c, const std::function<void(Comm&)>& fn) {
  if (c.processes)
    run_process_ranks(c.nranks, fn, options_for(c));
  else
    run_thread_ranks(c.nranks, fn, options_for(c));
}

std::vector<Cfg> make_configs(bool with_processes) {
  std::vector<Cfg> out;
  for (const bool procs : {false, true}) {
    if (procs && !with_processes) continue;
    for (const Transport t : {Transport::kSocketpair, Transport::kShm})
      for (const CollectiveAlgo a :
           {CollectiveAlgo::kStar, CollectiveAlgo::kTree})
        for (const int n : {2, 3, 4, 8}) out.push_back(Cfg{procs, t, a, n});
  }
  return out;
}

// A reduction operand that punishes any change of FP association order:
// alternating signs, an irrational-ish mantissa, and a tiny rank-dependent
// tail well below the sum's ulp at double precision.
double operand(int r) {
  const double sign = (r % 2 == 0) ? 1.0 : -1.0;
  return sign * (static_cast<double>(r) + 1.0) / 3.0 +
         1e-13 * static_cast<double>(r);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// The reference fold: rank-ascending, seeded with rank 0's operand — the
// exact association order the runtime promises, so equality below is
// equality of bit patterns, not approximate agreement.
double expected_sum(int n) {
  double t = operand(0);
  for (int r = 1; r < n; ++r) t += operand(r);
  return t;
}

double expected_max(int n) {
  double best = operand(0);
  for (int r = 1; r < n; ++r) best = best < operand(r) ? operand(r) : best;
  return best;
}

class Conformance : public testing::TestWithParam<Cfg> {};

INSTANTIATE_TEST_SUITE_P(AllMeshes, Conformance,
                         testing::ValuesIn(make_configs(true)), cfg_name);

TEST_P(Conformance, ReductionsAreBitIdenticalToRankOrderFold) {
  const Cfg cfg = GetParam();
  const int n = cfg.nranks;
  double oks = 0.0;
  std::uint64_t root_sum_bits = 0;
  run_cfg(cfg, [&](Comm& comm) {
    const double sum = comm.allreduce_sum(operand(comm.rank()));
    const double max = comm.allreduce_max(operand(comm.rank()));
    const long lsum = comm.allreduce_sum_long(comm.rank() + 1);
    bool ok = bits(sum) == bits(expected_sum(n));
    ok = ok && bits(max) == bits(expected_max(n));
    ok = ok && lsum == static_cast<long>(n) * (n + 1) / 2;
    const double agreed = comm.allreduce_sum(ok ? 1.0 : 0.0);
    if (comm.rank() == 0) {
      oks = agreed;
      root_sum_bits = bits(sum);
    }
  });
  EXPECT_EQ(oks, static_cast<double>(n));
  // The headline claim, stated on the bit level: identical across every
  // backend, transport, and algorithm because the expected fold is
  // config-independent.
  EXPECT_EQ(root_sum_bits, bits(expected_sum(n)));
}

TEST_P(Conformance, MaxlocPicksWinnerAndBreaksTiesToLowestRank) {
  const Cfg cfg = GetParam();
  const int n = cfg.nranks;
  double oks = 0.0;
  run_cfg(cfg, [&](Comm& comm) {
    // Distinct values: the winner is the largest operand's rank.
    int expected_winner = 0;
    for (int r = 1; r < n; ++r)
      if (operand(r) > operand(expected_winner)) expected_winner = r;
    const auto best = comm.allreduce_maxloc(operand(comm.rank()));
    bool ok = best.rank == expected_winner &&
              bits(best.value) == bits(operand(expected_winner));

    // All-way tie: lowest rank wins.
    const auto tie = comm.allreduce_maxloc(7.25);
    ok = ok && tie.rank == 0 && tie.value == 7.25;

    // Partial tie away from rank 0: ranks >= 1 share the max; rank 1 wins.
    const auto partial =
        comm.allreduce_maxloc(comm.rank() == 0 ? -1.0 : 2.5);
    ok = ok && partial.rank == (n > 1 ? 1 : 0);

    const double agreed = comm.allreduce_sum(ok ? 1.0 : 0.0);
    if (comm.rank() == 0) oks = agreed;
  });
  EXPECT_EQ(oks, static_cast<double>(n));
}

TEST_P(Conformance, BcastDeliversVerbatimFromEveryRoot) {
  const Cfg cfg = GetParam();
  const int n = cfg.nranks;
  // Larger than the default 64 KiB shm ring: on the shm transport this
  // forces chunked streaming through the ring, including wraparound.
  const std::size_t big = (std::size_t{1} << 17) + 13;
  double oks = 0.0;
  run_cfg(cfg, [&](Comm& comm) {
    bool ok = true;
    for (int root = 0; root < n; ++root) {
      Bytes payload;
      if (comm.rank() == root) {
        payload.resize(big);
        for (std::size_t i = 0; i < big; ++i)
          payload[i] = static_cast<std::uint8_t>((i * 31 + root) & 0xff);
      }
      comm.bcast(payload, root);
      ok = ok && payload.size() == big;
      if (ok)
        for (std::size_t i = 0; i < big; i += 997)
          ok = ok &&
               payload[i] == static_cast<std::uint8_t>((i * 31 + root) & 0xff);
    }
    const double agreed = comm.allreduce_sum(ok ? 1.0 : 0.0);
    if (comm.rank() == 0) oks = agreed;
  });
  EXPECT_EQ(oks, static_cast<double>(n));
}

TEST_P(Conformance, GathersCollectInRankOrder) {
  const Cfg cfg = GetParam();
  const int n = cfg.nranks;
  double oks = 0.0;
  std::vector<std::string> root_strings;
  run_cfg(cfg, [&](Comm& comm) {
    const int r = comm.rank();
    // Per-rank payloads of very different sizes, so a merge that mixes up
    // framing or rank tags cannot pass by accident.
    std::vector<double> mine;
    for (int i = 0; i <= r; ++i) mine.push_back(operand(r) * (i + 1));
    const std::string tag(static_cast<std::size_t>(1 + 100 * r),
                          static_cast<char>('a' + r));

    bool ok = true;
    for (int root = 0; root < n; ++root) {
      const auto rows = comm.gather_doubles(mine, root);
      const auto strings = comm.gather_strings(tag, root);
      if (comm.rank() == root) {
        ok = ok && rows.size() == static_cast<std::size_t>(n) &&
             strings.size() == static_cast<std::size_t>(n);
        for (int s = 0; ok && s < n; ++s) {
          const auto& row = rows[static_cast<std::size_t>(s)];
          ok = row.size() == static_cast<std::size_t>(s) + 1;
          for (int i = 0; ok && i <= s; ++i)
            ok = bits(row[static_cast<std::size_t>(i)]) ==
                 bits(operand(s) * (i + 1));
          ok = ok && strings[static_cast<std::size_t>(s)] ==
                         std::string(static_cast<std::size_t>(1 + 100 * s),
                                     static_cast<char>('a' + s));
        }
        if (root == 0 && comm.rank() == 0) root_strings = strings;
      } else {
        ok = ok && rows.empty() && strings.empty();
      }
    }
    const double agreed = comm.allreduce_sum(ok ? 1.0 : 0.0);
    if (comm.rank() == 0) oks = agreed;
  });
  EXPECT_EQ(oks, static_cast<double>(n));
  ASSERT_EQ(root_strings.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(root_strings[static_cast<std::size_t>(n - 1)],
            std::string(static_cast<std::size_t>(1 + 100 * (n - 1)),
                        static_cast<char>('a' + n - 1)));
}

TEST_P(Conformance, NonblockingSendRecvRoundTrip) {
  const Cfg cfg = GetParam();
  const int n = cfg.nranks;
  double oks = 0.0;
  run_cfg(cfg, [&](Comm& comm) {
    bool ok = true;
    auto chk = [&](bool c, const char* what) {
      if (!c) std::fprintf(stderr, "rank %d failed: %s\n", comm.rank(), what);
      ok = ok && c;
    };
    if (comm.rank() == 0) {
      // Post all irecvs up front, then complete them via test() polling —
      // the overlap pattern the fault-tolerant driver uses for reports.
      std::vector<Comm::Request> reqs;
      for (int w = 1; w < n; ++w) reqs.push_back(comm.irecv(w, 42));
      std::size_t done = 0;
      while (done < reqs.size()) {
        done = 0;
        for (auto& req : reqs)
          if (comm.test(req)) ++done;
      }
      for (int w = 1; w < n; ++w) {
        Unpacker u(reqs[static_cast<std::size_t>(w - 1)].payload());
        chk(u.get<std::int32_t>() == w * 11, "round1 payload");
      }
      // Second round via blocking wait(), and posted-order completion on
      // one (src, tag) pair.
      if (n > 1) {
        Comm::Request first = comm.irecv(1, 43);
        Comm::Request second = comm.irecv(1, 43);
        // wait() returns the payload by value; Unpacker holds a pointer, so
        // the Bytes must outlive it.
        const Bytes b1 = comm.wait(first);
        const Bytes b2 = comm.wait(second);
        Unpacker u1(b1);
        Unpacker u2(b2);
        chk(u1.get<std::int32_t>() == 1, "posted order first");
        chk(u2.get<std::int32_t>() == 2, "posted order second");
      }
    } else {
      Packer p;
      p.put<std::int32_t>(comm.rank() * 11);
      Comm::Request sreq = comm.isend(0, 42, p.bytes());
      chk(comm.test(sreq) && sreq.done(), "eager send done");
      if (comm.rank() == 1) {
        for (int v : {1, 2}) {
          Packer q;
          q.put<std::int32_t>(v);
          Comm::Request sr = comm.isend(0, 43, q.bytes());
          chk(sr.done(), "second-round eager done");  // eager completion contract
          comm.wait(sr);              // no-op on a completed send request
        }
      }
    }
    const double agreed = comm.allreduce_sum(ok ? 1.0 : 0.0);
    if (comm.rank() == 0) oks = agreed;
  });
  EXPECT_EQ(oks, static_cast<double>(n));
}

TEST_P(Conformance, ProbeSeesQuietChannelThenMessage) {
  const Cfg cfg = GetParam();
  const int n = cfg.nranks;
  double oks = 0.0;
  run_cfg(cfg, [&](Comm& comm) {
    bool ok = true;
    comm.barrier();  // all prior traffic drained; channels are quiet
    if (comm.rank() == 0 && n > 1) {
      // Nothing in flight from rank 1 yet... except rank 1 may already have
      // sent. Order it: probe-false is only asserted before releasing rank 1.
      ok = ok && !comm.probe(1);
      comm.send(1, 5, {});          // release
      while (!comm.probe(1)) {}     // spin until the reply is observable
      const Bytes b = comm.recv(1, 6);
      ok = ok && b.size() == 3;
    } else if (comm.rank() == 1) {
      comm.recv(0, 5);
      comm.send(0, 6, Bytes{1, 2, 3});
    }
    const double agreed = comm.allreduce_sum(ok ? 1.0 : 0.0);
    if (comm.rank() == 0) oks = agreed;
  });
  EXPECT_EQ(oks, static_cast<double>(n));
}

// --- barrier synchronization semantics (thread backend: shared memory lets
// the test observe arrival counts directly) ---

class BarrierSemantics : public testing::TestWithParam<Cfg> {};

INSTANTIATE_TEST_SUITE_P(ThreadMeshes, BarrierSemantics,
                         testing::ValuesIn(make_configs(false)), cfg_name);

TEST_P(BarrierSemantics, NoRankLeavesBeforeAllArrive) {
  const Cfg cfg = GetParam();
  const int n = cfg.nranks;
  constexpr int kRounds = 25;
  std::atomic<int> entered{0};
  std::atomic<int> violations{0};
  run_thread_ranks(
      n,
      [&](Comm& comm) {
        for (int i = 0; i < kRounds; ++i) {
          entered.fetch_add(1);
          comm.barrier();
          // Everyone must have entered round i; peers racing ahead into
          // round i+1 only increase the count.
          if (entered.load() < n * (i + 1)) violations.fetch_add(1);
        }
      },
      options_for(cfg));
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(entered.load(), n * kRounds);
}

// --- Stats conformance: counting lives in the Comm base class, so the same
// protocol yields byte-identical per-op numbers on every backend and
// transport (for a fixed algorithm; star and tree route differently and are
// not expected to match each other) ---

struct StatsCfg {
  CollectiveAlgo algo;
  int nranks;
};

std::string stats_cfg_name(const testing::TestParamInfo<StatsCfg>& info) {
  return std::string(info.param.algo == CollectiveAlgo::kTree ? "Tree"
                                                              : "Star") +
         std::to_string(info.param.nranks);
}

// One fixed protocol touching every collective; returns each rank's
// flattened per-op counters, gathered in rank order.
std::vector<std::vector<double>> stats_script(bool processes,
                                              Transport transport,
                                              CollectiveAlgo algo,
                                              int nranks) {
  std::vector<std::vector<double>> out;
  CommOptions opts;
  opts.transport = transport;
  opts.collectives = algo;
  const auto fn = [&out](Comm& comm) {
    comm.reset_stats();
    comm.barrier();
    Bytes payload =
        comm.rank() == 0 ? Bytes(2048, std::uint8_t{7}) : Bytes{};
    comm.bcast(payload, 0);
    comm.allreduce_maxloc(static_cast<double>(comm.rank()));
    comm.allreduce_sum(1.0);
    comm.gather_doubles({static_cast<double>(comm.rank()), 2.0}, 0);

    const Comm::Stats s = comm.stats();  // snapshot before the report gather
    std::vector<double> flat;
    for (const Comm::OpStats* op :
         {&s.p2p, &s.barrier, &s.bcast, &s.reduce, &s.gather}) {
      flat.push_back(static_cast<double>(op->msgs_sent));
      flat.push_back(static_cast<double>(op->bytes_sent));
      flat.push_back(static_cast<double>(op->msgs_recv));
      flat.push_back(static_cast<double>(op->bytes_recv));
    }
    const auto rows = comm.gather_doubles(flat, 0);
    if (comm.rank() == 0) out = rows;
  };
  if (processes)
    run_process_ranks(nranks, fn, opts);
  else
    run_thread_ranks(nranks, fn, opts);
  return out;
}

class StatsConformance : public testing::TestWithParam<StatsCfg> {};

INSTANTIATE_TEST_SUITE_P(
    Algos, StatsConformance,
    testing::Values(StatsCfg{CollectiveAlgo::kStar, 2},
                    StatsCfg{CollectiveAlgo::kStar, 3},
                    StatsCfg{CollectiveAlgo::kStar, 4},
                    StatsCfg{CollectiveAlgo::kStar, 8},
                    StatsCfg{CollectiveAlgo::kTree, 2},
                    StatsCfg{CollectiveAlgo::kTree, 3},
                    StatsCfg{CollectiveAlgo::kTree, 4},
                    StatsCfg{CollectiveAlgo::kTree, 8}),
    stats_cfg_name);

TEST_P(StatsConformance, PerOpCountsIdenticalAcrossBackendsAndTransports) {
  const StatsCfg cfg = GetParam();
  const auto reference =
      stats_script(false, Transport::kSocketpair, cfg.algo, cfg.nranks);
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(cfg.nranks));

  const struct {
    const char* name;
    bool processes;
    Transport transport;
  } meshes[] = {
      {"thread/shm", false, Transport::kShm},
      {"process/socketpair", true, Transport::kSocketpair},
      {"process/shm", true, Transport::kShm},
  };
  for (const auto& mesh : meshes) {
    const auto rows =
        stats_script(mesh.processes, mesh.transport, cfg.algo, cfg.nranks);
    ASSERT_EQ(rows.size(), reference.size()) << mesh.name;
    for (int r = 0; r < cfg.nranks; ++r)
      EXPECT_EQ(rows[static_cast<std::size_t>(r)],
                reference[static_cast<std::size_t>(r)])
          << "per-op stats diverge from thread/socketpair on rank " << r
          << " for " << mesh.name;
  }

  // Sanity anchors: the protocol moved real traffic, none of it booked as
  // p2p, and the bcast moved at least its 2048-byte payload on rank 0.
  const auto& root = reference[0];
  EXPECT_EQ(root[0], 0.0);    // p2p msgs_sent
  EXPECT_EQ(root[2], 0.0);    // p2p msgs_recv
  EXPECT_GT(root[4] + root[6], 0.0);  // barrier exchanged messages
  EXPECT_GE(root[9], 2048.0);         // bcast bytes_sent
  EXPECT_GT(root[16] + root[18], 0.0);  // gather exchanged messages
}

// Star-vs-tree A/B on the same backend+transport: same results (bit-level),
// different routing. The routing difference is visible in the stats — at 8
// ranks the star root sends/recvs O(p) barrier messages, the tree root
// O(log p) — which doubles as a regression check that --collectives
// actually switches the algorithm.
TEST(StarVsTree, SameResultsDifferentRouting) {
  constexpr int kRanks = 8;
  std::uint64_t sums[2] = {0, 0};
  double root_barrier_msgs[2] = {0.0, 0.0};
  for (const CollectiveAlgo algo :
       {CollectiveAlgo::kStar, CollectiveAlgo::kTree}) {
    CommOptions opts;
    opts.collectives = algo;
    const std::size_t i = algo == CollectiveAlgo::kTree ? 1 : 0;
    run_thread_ranks(
        kRanks,
        [&](Comm& comm) {
          comm.reset_stats();
          comm.barrier();
          const double sum = comm.allreduce_sum(operand(comm.rank()));
          if (comm.rank() == 0) {
            sums[i] = bits(sum);
            root_barrier_msgs[i] =
                static_cast<double>(comm.stats().barrier.msgs_sent +
                                    comm.stats().barrier.msgs_recv);
          }
        },
        opts);
  }
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], bits(expected_sum(kRanks)));
  EXPECT_EQ(root_barrier_msgs[0], 2.0 * (kRanks - 1));  // star root: O(p)
  EXPECT_EQ(root_barrier_msgs[1], 6.0);  // dissemination: 2*ceil(log2 8)
}

}  // namespace
}  // namespace raxh::mpi
