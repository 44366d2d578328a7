// Seeded chaos suite for the fault-tolerant hybrid driver: replayable fault
// plans (minimpi/fault.h) are injected into full comprehensive runs on both
// minimpi backends, and every run must end with the *bit-identical* final
// tree and lnL of the fault-free golden run — the paper's §2.4
// reproducibility contract, extended to runs that lose ranks mid-flight.
//
// The plan seed comes from RAXH_CHAOS_SEED (default fixed) and is echoed so
// any CI failure is replayable; RAXH_CHAOS_PLANS overrides the per-backend
// plan count (default 25).
//
// Also here: checkpoint-file fuzzing — truncations, bit flips, and version
// bumps must be rejected cleanly, never half-parsed into a resumed run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/checkpoint.h"
#include "core/hybrid.h"
#include "minimpi/comm.h"
#include "minimpi/fault.h"
#include "obs/flight.h"
#include "obs/postmortem.h"
#include "tree/tree.h"

namespace raxh {
namespace {

const PatternAlignment& chaos_patterns() {
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

HybridOptions chaos_options() {
  HybridOptions o;
  o.analysis.specified_bootstraps = 6;
  o.analysis.fast.max_rounds = 1;
  o.analysis.slow.max_rounds = 1;
  o.analysis.thorough.max_rounds = 2;
  o.analysis.slow.optimize_model = false;
  o.analysis.thorough.optimize_model = false;
  o.compute_support = false;
  o.run_bootstopping = false;
  o.fault_tolerant = true;
  return o;
}

std::uint64_t chaos_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("RAXH_CHAOS_SEED");
    const auto s =
        env ? std::strtoull(env, nullptr, 10) : std::uint64_t{20260806};
    std::printf("[chaos] RAXH_CHAOS_SEED=%llu (export to replay)\n",
                static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

int chaos_plan_count() {
  const char* env = std::getenv("RAXH_CHAOS_PLANS");
  const int n = env ? std::atoi(env) : 25;
  return n > 0 ? n : 25;
}

// A worker rank's op stream in the chaos configuration is ~9 ops (2
// bootstrap ticks, 2 barrier ops, fast/slow/thorough ticks, the report
// send, the control recv), so ops drawn from [1, 8] strike everywhere from
// mid-bootstrap to the control loop.
constexpr int kChaosMaxOp = 8;

struct Outcome {
  std::string tree;
  double lnl = 0.0;
  int winner = -1;
  std::vector<int> failed;
  int resumed = 0;
};

// Every chaos run dumps its black boxes here; the dir is wiped per run so a
// post-mortem only ever sees the current plan's boxes.
const std::string& chaos_blackbox_dir() {
  static const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("raxh_chaos_bb" + std::to_string(::getpid())))
          .string();
  return dir;
}

Outcome run_chaos(bool processes, int nranks, const mpi::FaultPlan& plan,
                  const std::string& ckpt_dir = "",
                  bool fault_tolerant = true,
                  mpi::Transport transport = mpi::Transport::kSocketpair) {
  std::filesystem::remove_all(chaos_blackbox_dir());
  std::filesystem::create_directories(chaos_blackbox_dir());
  obs::flight::set_dump_dir(chaos_blackbox_dir());
  obs::flight::reset();
  Outcome out;
  const auto fn = [&](mpi::Comm& inner) {
    std::unique_ptr<mpi::FaultyComm> faulty;
    if (!plan.empty())
      faulty = std::make_unique<mpi::FaultyComm>(inner, plan);
    mpi::Comm& comm = faulty ? *faulty : inner;
    HybridOptions options = chaos_options();
    options.fault_tolerant = fault_tolerant;
    options.analysis.checkpoint_dir = ckpt_dir;
    const HybridResult r =
        run_hybrid_comprehensive({}, comm, chaos_patterns(), options);
    if (comm.rank() == 0) {
      out.tree = r.best_tree_newick;
      out.lnl = r.best_lnl;
      out.winner = r.winner_rank;
      out.failed = r.failed_ranks;
      out.resumed = r.resumed_replicates;
    }
  };
  mpi::CommOptions copts;  // collectives default to the tree algorithms
  copts.transport = transport;
  if (processes)
    mpi::run_process_ranks(nranks, fn, copts);
  else
    mpi::run_thread_ranks(nranks, fn, copts);
  return out;
}

// The fault-free reference, computed once per rank count with the plain
// (non-fault-tolerant) driver — the paper's original communication pattern.
const Outcome& golden(int nranks) {
  static std::vector<Outcome> cache(16);
  static std::vector<bool> have(16, false);
  if (!have[static_cast<std::size_t>(nranks)]) {
    cache[static_cast<std::size_t>(nranks)] =
        run_chaos(false, nranks, mpi::FaultPlan{}, "",
                  /*fault_tolerant=*/false);
    have[static_cast<std::size_t>(nranks)] = true;
  }
  return cache[static_cast<std::size_t>(nranks)];
}

std::string fresh_dir(const char* stem) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string(stem) + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --- golden equivalence of the fault-tolerant driver itself ---

TEST(Chaos, FaultTolerantDriverMatchesPlainDriver) {
  const Outcome& ref = golden(3);
  ASSERT_FALSE(ref.tree.empty());
  for (const bool processes : {false, true}) {
    const Outcome ft = run_chaos(processes, 3, mpi::FaultPlan{});
    EXPECT_EQ(ft.tree, ref.tree) << (processes ? "process" : "thread");
    EXPECT_EQ(ft.lnl, ref.lnl);  // bit-identical, not merely close
    EXPECT_EQ(ft.winner, ref.winner);
    EXPECT_TRUE(ft.failed.empty());
  }
}

// --- the headline: >= 25 seeded plans per backend, all bit-identical ---

void run_seeded_plans(bool processes,
                      mpi::Transport transport = mpi::Transport::kSocketpair) {
  const Outcome& ref = golden(3);
  const std::uint64_t seed = chaos_seed();
  const int nplans = chaos_plan_count();
  int total_failures = 0;
  for (int i = 0; i < nplans; ++i) {
    const mpi::FaultPlan plan =
        mpi::FaultPlan::generate(seed + static_cast<std::uint64_t>(i), 3,
                                 kChaosMaxOp);
    const Outcome out = run_chaos(processes, 3, plan, "",
                                  /*fault_tolerant=*/true, transport);
    EXPECT_EQ(out.tree, ref.tree)
        << "plan " << i << " '" << plan.to_spec() << "' (seed " << seed + i
        << ") changed the final tree";
    EXPECT_EQ(out.lnl, ref.lnl)
        << "plan " << i << " '" << plan.to_spec() << "' (seed " << seed + i
        << ") changed the final lnL";
    EXPECT_EQ(out.winner, ref.winner)
        << "plan " << i << " '" << plan.to_spec() << "'";
    total_failures += static_cast<int>(out.failed.size());

    // Forensics contract: whenever ranks died, their black boxes must have
    // landed, and the merged post-mortem must name every dead rank and its
    // last completed comm op (or state that it died before completing one).
    if (!out.failed.empty()) {
      std::vector<std::string> errors;
      const auto boxes = obs::pm::read_dir(chaos_blackbox_dir(), &errors);
      for (const auto& err : errors)
        ADD_FAILURE() << "plan " << i << " '" << plan.to_spec()
                      << "': undecodable black box: " << err;
      const obs::pm::Merged merged = obs::pm::merge(boxes);
      const std::string report = obs::pm::format_postmortem(merged);
      for (const int w : out.failed) {
        EXPECT_NE(report.find("rank " + std::to_string(w) + " died"),
                  std::string::npos)
            << "plan " << i << " '" << plan.to_spec()
            << "': post-mortem does not name dead rank " << w << ":\n"
            << report;
      }
      EXPECT_TRUE(report.find("last completed comm op") != std::string::npos ||
                  report.find("before completing any comm op") !=
                      std::string::npos)
          << "plan " << i << " '" << plan.to_spec() << "':\n" << report;
    }
  }
  // Every generated plan carries at least one lethal action with op <= 8;
  // across the whole suite some must actually land and kill ranks —
  // otherwise the suite silently stopped exercising recovery.
  EXPECT_GT(total_failures, 0);
  std::printf("[chaos] %s backend, %s transport: %d plans, %d rank deaths "
              "survived\n",
              processes ? "process" : "thread",
              transport == mpi::Transport::kShm ? "shm" : "socketpair", nplans,
              total_failures);
}

TEST(Chaos, SeededPlansOnThreadBackend) { run_seeded_plans(false); }

TEST(Chaos, SeededPlansOnProcessBackend) { run_seeded_plans(true); }

// The same seeded plans over the shared-memory ring transport: rank death
// detection flows through ring close-flags (threads) and the never-written
// liveness socketpair (processes) instead of channel dead-flags / EOF, yet
// every recovery must still land on the bit-identical golden result.

TEST(Chaos, SeededPlansOnThreadBackendShmTransport) {
  run_seeded_plans(false, mpi::Transport::kShm);
}

TEST(Chaos, SeededPlansOnProcessBackendShmTransport) {
  run_seeded_plans(true, mpi::Transport::kShm);
}

// --- interior-node death mid-tree-bcast: children observe the failure ---

TEST(Chaos, InteriorNodeDeathMidTreeBcastIsObservedByItsChildren) {
  // Binomial bcast from root 0 over 8 ranks: rank 4 receives directly from
  // the root and relays to ranks 5 and 6; rank 7 hangs off rank 6. Killing
  // rank 4 at its very first op (the bcast) severs the subtree: 5 and 6 must
  // observe RankFailed(4), and 7 must observe RankFailed(6) once 6 gives up
  // — never a hang, never a silently short payload.
  const mpi::FaultPlan plan = mpi::FaultPlan::parse("die@4,1");
  const mpi::Bytes expected(1024, std::uint8_t{0xab});
  for (const mpi::Transport transport :
       {mpi::Transport::kSocketpair, mpi::Transport::kShm}) {
    mpi::CommOptions copts;
    copts.collectives = mpi::CollectiveAlgo::kTree;
    copts.transport = transport;
    std::vector<std::string> outcome(8);  // each rank writes only its slot
    mpi::run_thread_ranks(
        8,
        [&](mpi::Comm& inner) {
          mpi::FaultyComm comm(inner, plan);
          mpi::Bytes payload;
          if (comm.rank() == 0) payload = expected;
          try {
            comm.bcast(payload, 0);
            outcome[static_cast<std::size_t>(comm.rank())] =
                payload == expected ? "ok" : "corrupt";
          } catch (const mpi::RankFailed& e) {
            outcome[static_cast<std::size_t>(comm.rank())] =
                "failed:" + std::to_string(e.rank);
          }
        },
        copts);
    const char* which =
        transport == mpi::Transport::kShm ? "shm" : "socketpair";
    EXPECT_EQ(outcome[5], "failed:4") << which;
    EXPECT_EQ(outcome[6], "failed:4") << which;
    EXPECT_EQ(outcome[7], "failed:6") << which;
    // The victim dies inside the collective and records nothing.
    EXPECT_EQ(outcome[4], "") << which;
    // The other subtree either completes verbatim or observes a failure
    // (rank 0 may hit the dead rank while relaying, depending on timing) —
    // but a truncated or altered payload is never an outcome.
    for (const int r : {0, 1, 2, 3}) {
      const std::string& o = outcome[static_cast<std::size_t>(r)];
      EXPECT_TRUE(o == "ok" || o.rfind("failed:", 0) == 0)
          << which << " rank " << r << ": '" << o << "'";
    }
  }
}

// --- cross-backend determinism (same seed + plan => identical result) ---

TEST(Chaos, CrossBackendDeterminism) {
  const std::uint64_t seed = chaos_seed();
  for (const int nranks : {2, 3, 4}) {
    const mpi::FaultPlan plan = mpi::FaultPlan::generate(
        seed * 31 + static_cast<std::uint64_t>(nranks), nranks, kChaosMaxOp);
    const Outcome threads = run_chaos(false, nranks, plan);
    const Outcome procs = run_chaos(true, nranks, plan);
    EXPECT_EQ(threads.tree, procs.tree)
        << nranks << " ranks, plan '" << plan.to_spec() << "'";
    EXPECT_EQ(threads.lnl, procs.lnl)
        << nranks << " ranks, plan '" << plan.to_spec() << "'";
    EXPECT_EQ(threads.winner, procs.winner);
    // And both equal the fault-free reference at this rank count.
    EXPECT_EQ(threads.tree, golden(nranks).tree);
    EXPECT_EQ(threads.lnl, golden(nranks).lnl);
  }
}

// --- kill a rank mid-bootstrap, resume its share from its checkpoint ---

TEST(Chaos, KilledRankShareResumesFromItsCheckpoint) {
  // Rank 1 checkpoints replicate 1 (tick/op 1), checkpoints replicate 2,
  // then dies at op 2 — before the barrier, with its full bootstrap stage on
  // disk. The survivor re-granted logical share 1 must resume from that
  // checkpoint (resumed > 0) and still land on the golden result.
  const mpi::FaultPlan plan = mpi::FaultPlan::parse("die@1,2");
  for (const bool processes : {false, true}) {
    const std::string dir = fresh_dir(processes ? "raxh_chaos_ck_p"
                                                : "raxh_chaos_ck_t");
    const Outcome out = run_chaos(processes, 3, plan, dir);
    EXPECT_EQ(out.failed, (std::vector<int>{1}));
    EXPECT_GT(out.resumed, 0);
    EXPECT_EQ(out.tree, golden(3).tree);
    EXPECT_EQ(out.lnl, golden(3).lnl);
    std::filesystem::remove_all(dir);
  }
}

TEST(Chaos, JobRestartResumesAllRanksBitIdentically) {
  // Whole-job kill/restart: the first run leaves every logical rank's
  // finished bootstrap stage on disk; the rerun resumes all of them (6
  // replicates restored, zero recomputed) and reproduces the golden result.
  const std::string dir = fresh_dir("raxh_chaos_restart");
  const Outcome first = run_chaos(false, 3, mpi::FaultPlan{}, dir);
  EXPECT_EQ(first.resumed, 0);
  const Outcome rerun = run_chaos(false, 3, mpi::FaultPlan{}, dir);
  EXPECT_EQ(rerun.resumed, 6);
  EXPECT_EQ(rerun.tree, golden(3).tree);
  EXPECT_EQ(rerun.lnl, golden(3).lnl);
  std::filesystem::remove_all(dir);
}

// --- checkpoint-file fuzzing: hostile bytes are rejected, never resumed ---

BootstrapSnapshot fuzz_snapshot() {
  BootstrapSnapshot s;
  s.next_replicate = 2;
  s.bootstrap_rng_state = 987654321;
  s.parsimony_rng_state = 123456789;
  s.current_tree =
      Tree::parse_newick("((a:1,b:2):0.5,c:1,d:2);", {"a", "b", "c", "d"})
          .export_raw();
  s.cat_rates = {0.5, 1.5};
  s.cat_categories = {0, 1, 1, 0};
  s.replicate_trees = {
      Tree::parse_newick("((a:1,b:1):1,c:1,d:1);", {"a", "b", "c", "d"})
          .export_raw(),
      Tree::parse_newick("((a:2,c:1):1,b:1,d:1);", {"a", "b", "c", "d"})
          .export_raw()};
  s.replicate_lnls = {-123.456, -234.567};
  return s;
}

std::string saved_checkpoint_bytes(const std::string& path) {
  save_bootstrap_checkpoint(path, fuzz_snapshot());
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(CheckpointFuzz, EveryTruncationIsRejected) {
  const std::string path = fresh_dir("raxh_fuzz_trunc") + "/c.ckpt";
  const std::string full = saved_checkpoint_bytes(path);
  ASSERT_GT(full.size(), 40u);
  // The intact file loads; every proper prefix must throw (v1's failure
  // mode was silently parsing a file truncated inside the newick list).
  EXPECT_TRUE(load_bootstrap_checkpoint(path).has_value());
  for (std::size_t len = 0; len < full.size(); len += 3) {
    std::ofstream(path, std::ios::trunc) << full.substr(0, len);
    EXPECT_THROW(load_bootstrap_checkpoint(path), std::runtime_error)
        << "truncation to " << len << " of " << full.size()
        << " bytes was accepted";
  }
  std::filesystem::remove_all(std::filesystem::path(path).parent_path());
}

TEST(CheckpointFuzz, EveryBitFlipIsRejected) {
  const std::string path = fresh_dir("raxh_fuzz_flip") + "/c.ckpt";
  const std::string full = saved_checkpoint_bytes(path);
  // The final byte (the marker line's '\n') is excluded: flipping it yields
  // another whitespace byte, which stream parsing legitimately tolerates.
  for (std::size_t pos = 0; pos + 1 < full.size(); pos += 2) {
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    std::ofstream(path, std::ios::trunc) << mutated;
    EXPECT_THROW(load_bootstrap_checkpoint(path), std::runtime_error)
        << "bit flip at byte " << pos << " was accepted";
  }
  std::filesystem::remove_all(std::filesystem::path(path).parent_path());
}

TEST(CheckpointFuzz, WrongVersionsAreRejected) {
  const std::string dir = fresh_dir("raxh_fuzz_ver");
  const std::string path = dir + "/c.ckpt";
  std::ofstream(path) << "raxh-bootstrap-checkpoint 99\nwhatever\nend 0\n";
  EXPECT_THROW(load_bootstrap_checkpoint(path), std::runtime_error);
  // A v1-era file (no checksum trailer) must be rejected by version, not
  // half-parsed by the v2 reader.
  std::ofstream(path, std::ios::trunc)
      << "raxh-bootstrap-checkpoint 1\n0 1 2\n4 0\n0\n0\n0\n0\n0\n";
  EXPECT_THROW(load_bootstrap_checkpoint(path), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFuzz, TrailingGarbageIsRejected) {
  const std::string path = fresh_dir("raxh_fuzz_tail") + "/c.ckpt";
  const std::string full = saved_checkpoint_bytes(path);
  std::ofstream(path, std::ios::trunc) << full << "junk after the marker\n";
  EXPECT_THROW(load_bootstrap_checkpoint(path), std::runtime_error);
  std::filesystem::remove_all(std::filesystem::path(path).parent_path());
}

}  // namespace
}  // namespace raxh
