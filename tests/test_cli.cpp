// End-to-end smoke tests of the `raxh` CLI binary: each analysis mode runs
// against a generated PHYLIP file and produces its output trees; the flag
// checks of the daemon tools, raxh_make_alignment and the examples run here
// too. A case is skipped if its binary is not
// where the build puts it (e.g. when tests are run from an unusual working
// directory).
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "bio/io.h"
#include "bio/seqsim.h"
#include "tree/tree.h"

namespace raxh {
namespace {

namespace fs = std::filesystem;

class CliSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs with CWD = <build>/tests; the binary lives in
    // <build>/src/cli/raxh.
    binary_ = fs::absolute("../src/cli/raxh");
    if (!fs::exists(binary_)) GTEST_SKIP() << "raxh binary not found";

    // A fresh directory per test run, removed in TearDown: ctest runs the
    // cases as parallel processes, and a shared stdout.txt would hand one
    // case another's output, as would files an earlier run left behind.
    std::string dir =
        (fs::temp_directory_path() /
         (std::string("raxh_cli_test_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "_XXXXXX"))
            .string();
    ASSERT_NE(mkdtemp(dir.data()), nullptr) << dir;
    work_ = dir;
    alignment_ = (work_ / "data.phy").string();

    SimConfig cfg;
    cfg.taxa = 8;
    cfg.distinct_sites = 80;
    cfg.total_sites = 100;
    cfg.seed = 99;
    const auto sim = simulate_alignment(cfg);
    write_phylip_file(alignment_, sim.alignment);
    true_tree_ = (work_ / "true.tre").string();
    std::ofstream(true_tree_) << sim.true_tree_newick << '\n';
  }

  void TearDown() override {
    if (!work_.empty()) fs::remove_all(work_);
  }

  int run(const std::string& args) const { return run_binary(binary_, args); }

  int run_binary(const fs::path& binary, const std::string& args) const {
    return run_command(binary.string() + " " + args);
  }

  int run_command(const std::string& command) const {
    const std::string cmd =
        command + " >" + (work_ / "stdout.txt").string() + " 2>&1";
    return std::system(cmd.c_str());
  }

  // Runs `command` and expects exit status 2 with `names` in its output.
  void expect_usage_error(const std::string& command,
                          const std::string& names) const {
    const int status = run_command(command);
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command << ": " << output();
    EXPECT_NE(output().find(names), std::string::npos)
        << command << ": " << output();
  }

  std::string output() const {
    std::ifstream in(work_ / "stdout.txt");
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  fs::path binary_;
  fs::path work_;
  std::string alignment_;
  std::string true_tree_;
};

TEST_F(CliSmoke, NoArgumentsPrintsUsageAndFails) {
  EXPECT_NE(run(""), 0);
  EXPECT_NE(output().find("usage:"), std::string::npos);
}

TEST_F(CliSmoke, ComprehensiveModeWritesTrees) {
  const std::string base = (work_ / "comp").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f a -N 4 -np 2 -n " + base), 0)
      << output();
  EXPECT_TRUE(fs::exists(base + "_bestTree.tre"));
  EXPECT_TRUE(fs::exists(base + "_bipartitions.tre"));
  EXPECT_NE(output().find("winner:"), std::string::npos);
}

TEST_F(CliSmoke, MultistartModeWritesBestTree) {
  const std::string base = (work_ / "multi").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f d -N 3 -n " + base), 0) << output();
  EXPECT_TRUE(fs::exists(base + "_bestTree.tre"));
}

TEST_F(CliSmoke, BootstrapModeWritesReplicatesAndConsensus) {
  const std::string base = (work_ / "boot").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f b -N 5 -np 2 -n " + base), 0)
      << output();
  EXPECT_TRUE(fs::exists(base + "_bootstrap.tre"));
  EXPECT_TRUE(fs::exists(base + "_consensus.tre"));
  // 5 requested over 2 ranks -> ceil(5/2)*2 = 6 replicates.
  std::ifstream trees(base + "_bootstrap.tre");
  int lines = 0;
  std::string line;
  while (std::getline(trees, line))
    if (!line.empty()) ++lines;
  EXPECT_EQ(lines, 6);
}

TEST_F(CliSmoke, AdaptiveBootstrapModeRuns) {
  const std::string base = (work_ / "adapt").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f x -N 12 -np 2 -n " + base), 0)
      << output();
  EXPECT_TRUE(fs::exists(base + "_bootstrap.tre"));
  const std::string out = output();
  EXPECT_TRUE(out.find("CONVERGED") != std::string::npos ||
              out.find("cap reached") != std::string::npos)
      << out;
}

TEST_F(CliSmoke, EvaluateModeReportsModelAndSitelh) {
  const std::string base = (work_ / "eval").string();
  ASSERT_EQ(run("-s " + alignment_ + " -f e -t " + true_tree_ + " -n " + base),
            0)
      << output();
  EXPECT_TRUE(fs::exists(base + "_evaluated.tre"));
  EXPECT_TRUE(fs::exists(base + "_sitelh.txt"));
  EXPECT_NE(output().find("lnL"), std::string::npos);
  EXPECT_NE(output().find("alpha"), std::string::npos);
  // sitelh has one line per original site.
  std::ifstream sitelh(base + "_sitelh.txt");
  int lines = 0;
  std::string line;
  while (std::getline(sitelh, line))
    if (!line.empty()) ++lines;
  EXPECT_EQ(lines, 100);
}

TEST_F(CliSmoke, MissingFileFailsCleanly) {
  EXPECT_NE(run("-s /nonexistent.phy"), 0);
  EXPECT_NE(output().find("error:"), std::string::npos);
}

TEST_F(CliSmoke, UnknownModeFails) {
  EXPECT_NE(run("-s " + alignment_ + " -f z"), 0);
}

// Kernel selection has one spelling, --kernels, whose default comes from
// RAXH_KERNELS; an unknown member, from either source, and the removed
// -simd flag are usage errors (exit 2), never a silent fallback.
TEST_F(CliSmoke, UnknownKernelMemberExitsTwo) {
  const std::string eval = "-s " + alignment_ + " -f e -t " + true_tree_ +
                           " -n " + (work_ / "kern").string();
  int status = run(eval + " --kernels=avx2");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output();
  EXPECT_NE(output().find("--kernels=avx2"), std::string::npos) << output();

  ASSERT_EQ(setenv("RAXH_KERNELS", "bogus", 1), 0);
  status = run(eval);
  unsetenv("RAXH_KERNELS");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output();
  EXPECT_NE(output().find("RAXH_KERNELS=bogus"), std::string::npos)
      << output();

  // A valid RAXH_KERNELS is the flag's default.
  ASSERT_EQ(setenv("RAXH_KERNELS", "scalar", 1), 0);
  status = run(eval);
  unsetenv("RAXH_KERNELS");
  EXPECT_EQ(status, 0) << output();
  EXPECT_NE(output().find("raxh: scalar kernels"), std::string::npos)
      << output();
}

// Every removed flag is an error that names the flag (and, for -simd and
// --connect, its replacement), whatever value it is given.
TEST_F(CliSmoke, RemovedSimdFlagExitsTwo) {
  const std::string eval = "-s " + alignment_ + " -f e -t " + true_tree_ +
                           " -n " + (work_ / "removed").string();
  const struct {
    std::string args;
    const char* names;
  } removed[] = {
      {" -simd off", "--kernels=scalar"},
      {" --repeats", "--repeats"},
      {" --collectives=star", "--collectives"},
      {" --collectives=tree", "--collectives"},
      {" --transport=shm", "--transport"},
      {" --transport=socketpair", "--transport"},
      {" --connect=" + (work_ / "none.sock").string(), "raxhd_client"},
  };
  for (const auto& r : removed) {
    const int status = run(eval + r.args);
    ASSERT_TRUE(WIFEXITED(status)) << r.args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << r.args << ": " << output();
    EXPECT_NE(output().find(r.names), std::string::npos)
        << r.args << ": " << output();
  }
}

TEST_F(CliSmoke, MalformedNumberExitsTwo) {
  const int status = run("-s " + alignment_ + " -f a -N abc -n " +
                         (work_ / "badn").string());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output();
  EXPECT_NE(output().find("-N=abc"), std::string::npos) << output();
}

// The daemon tools parse their numbers before connecting, so a malformed
// one exits 2 naming the flag even with no daemon listening.
TEST_F(CliSmoke, TopMalformedIntervalExitsTwo) {
  const fs::path top = fs::absolute("../tools/raxh_top");
  if (!fs::exists(top)) GTEST_SKIP() << "raxh_top binary not found";
  const int status = run_binary(
      top, "--interval-ms=abc --socket=" + (work_ / "none.sock").string());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output();
  EXPECT_NE(output().find("-interval-ms=abc"), std::string::npos) << output();
}

TEST_F(CliSmoke, ClientMalformedNumberExitsTwo) {
  const fs::path client = fs::absolute("../tools/raxhd_client");
  if (!fs::exists(client)) GTEST_SKIP() << "raxhd_client binary not found";
  const int status =
      run_binary(client, "submit -s " + alignment_ + " -N abc --socket=" +
                             (work_ / "none.sock").string());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output();
  EXPECT_NE(output().find("-N=abc"), std::string::npos) << output();
}

// raxh_make_alignment rejects a malformed number, a partly numeric one
// included, before it writes anything.
TEST_F(CliSmoke, MakeAlignmentMalformedNumberExitsTwo) {
  const fs::path tool = fs::absolute("../tools/raxh_make_alignment");
  if (!fs::exists(tool)) GTEST_SKIP() << "raxh_make_alignment not found";
  for (const auto& [args, flag] :
       {std::pair<std::string, std::string>{"-taxa abc", "-taxa=abc"},
        {"-sites 60x0", "-sites=60x0"}}) {
    const fs::path out = work_ / "bad.phy";
    const int status = run_binary(tool, "-o " + out.string() + " " + args);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args << ": " << output();
    EXPECT_NE(output().find(flag), std::string::npos) << output();
    EXPECT_FALSE(fs::exists(out)) << args;
  }
}

TEST_F(CliSmoke, ClusterPlannerMalformedNumberExitsTwo) {
  const fs::path planner = fs::absolute("../examples/cluster_planner");
  if (!fs::exists(planner)) GTEST_SKIP() << "cluster_planner not found";
  const int status = run_binary(planner, "-taxa abc");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output();
  EXPECT_NE(output().find("-taxa=abc"), std::string::npos) << output();
}

TEST_F(CliSmoke, ComprehensiveExampleMalformedNumberExitsTwo) {
  const fs::path example = fs::absolute("../examples/comprehensive_analysis");
  if (!fs::exists(example)) GTEST_SKIP() << "comprehensive_analysis not found";
  const int status = run_binary(example, "-N abc");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output();
  EXPECT_NE(output().find("-N=abc"), std::string::npos) << output();
}

// Each binary checks its argv against its flag table: an undeclared flag (a
// glued "-T2" included), a stray positional or an undeclared choice exits 2
// naming it, and both spellings of a declared flag reach the same row.
TEST_F(CliSmoke, UnknownFlagExitsTwo) {
  const std::string eval = binary_.string() + " -s " + alignment_ +
                           " -f e -t " + true_tree_ + " -n " +
                           (work_ / "unknown").string();
  expect_usage_error(eval + " -T2", "unknown flag -T2");
  expect_usage_error(eval + " --trace-outt=x", "unknown flag --trace-outt");
  expect_usage_error(eval + " stray", "unexpected argument 'stray'");
  // -m is read only by -f e; --blackbox only knows on and off.
  expect_usage_error(eval + " -m GTRCATT", "-m=GTRCATT");
  expect_usage_error(eval + " --blackbox=of", "--blackbox=of");

  const std::string none = " --socket=" + (work_ / "none.sock").string();
  const std::pair<const char*, std::string> tools[] = {
      {"../src/cli/raxhd", none},
      {"../tools/raxh_top", none},
      {"../tools/raxhd_client", "list" + none},
      {"../tools/raxh_make_alignment", "-o " + (work_ / "x.phy").string()},
      {"../tools/raxh_blackbox", work_.string()},
      {"../tools/raxh_comm", "--metrics=" + (work_ / "m.json").string()},
      {"../examples/comprehensive_analysis", "-N 2 -np 1"},
      {"../examples/cluster_planner", ""},
  };
  for (const auto& [path, args] : tools) {
    const fs::path tool = fs::absolute(path);
    if (!fs::exists(tool)) continue;
    // A daemon that ignored the flag would keep running: bound it.
    expect_usage_error("timeout 60 " + tool.string() + " " + args +
                           " --no-such-flag",
                       "unknown flag --no-such-flag");
  }

  for (const char* spelling : {"-trace-out", "--trace-out"}) {
    const fs::path trace = work_ / (std::string(spelling) + ".json");
    ASSERT_EQ(run_command(eval + " " + spelling + "=" + trace.string()), 0)
        << output();
    EXPECT_TRUE(fs::exists(trace)) << spelling;
    EXPECT_NE(output().find("spans dropped"), std::string::npos) << output();
  }
}

// A count below its row's minimum is a usage error that names the flag, not
// an abort: no analysis starts and no crash black box is written.
TEST_F(CliSmoke, OutOfRangeCountExitsTwo) {
  const fs::path base = work_ / "range";
  for (const auto& [args, names] :
       {std::pair<const char*, const char*>{"-T 0", "-T=0"},
        {"-np 0", "-np=0"},
        {"-N -3", "-N=-3"}}) {
    expect_usage_error(binary_.string() + " -s " + alignment_ + " -f a -n " +
                           base.string() + " " + args,
                       names);
    EXPECT_FALSE(fs::exists(base.string() + "_blackbox")) << args;
  }
}

// A malformed fault plan, from the flag or from RAXH_FAULT_PLAN, is a usage
// error found with the flags: raxh exits 2 naming it before it reads the
// alignment (a missing file would otherwise exit 1) or prints a startup line.
TEST_F(CliSmoke, BadFaultPlanExitsTwoBeforeReadingInput) {
  const std::string base = " -f a -N 2 -n " + (work_ / "plan").string();
  const std::string missing = (work_ / "missing.phy").string();
  expect_usage_error(binary_.string() + " -s " + missing + base +
                         " --fault-plan=bogus",
                     "--fault-plan=bogus: fault plan 'bogus'");
  expect_usage_error(binary_.string() + " -s " + alignment_ + base +
                         " --fault-plan=die@0,3",
                     "--fault-plan=die@0,3: fault plan");
  EXPECT_EQ(output().find("raxh: "), std::string::npos) << output();
  expect_usage_error("RAXH_FAULT_PLAN=drop@1 " + binary_.string() + " -s " +
                         missing + base,
                     "RAXH_FAULT_PLAN=drop@1: fault plan");
}

}  // namespace
}  // namespace raxh
