// Unit tests for the end-to-end benchmark's parsers, checker and statistics:
// everything bench_e2e decides without timing anything.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "e2e.h"

namespace raxh::e2e {
namespace {

std::string read_testdata(const std::string& name) {
  std::ifstream in(std::string(RAXH_E2E_SOURCE_DIR) + "/testdata/" + name);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

const std::vector<std::string> kTaxa = {"taxon1", "taxon2", "taxon3", "taxon4"};
const std::string kTree = "((taxon1:0.1,taxon2:0.2):0.05,taxon3:0.3,taxon4:0.4);\n";
const std::string kSupportTree =
    "((taxon1:0.1,taxon2:0.2)100:0.05,taxon3:0.3,taxon4:0.4);\n";

// What `raxh -f a -N 4 -np 2 -T 1` printed for testdata/metrics_np2.json.
const std::string kStdout =
    "raxh: 64 taxa, 600 sites, 313 patterns\n"
    "raxh: avx512 kernels, site repeats on\n"
    "winner: rank 0, final GAMMA lnL -21785.753090\n"
    "wrote np2_bestTree.tre, np2_bipartitions.tre (4 replicates)\n"
    "bootstopping (FC): not converged (mean corr 0.5918)\n"
    "wrote metrics to metrics_np2.json\n"
    "wall time: 5.21 s\n";

RunOutput good_run() {
  return RunOutput{0, kStdout, kTree, kSupportTree};
}

TEST(BenchE2eStdout, ParsesTheLnlAndStampLines) {
  const RaxhStdout out = parse_raxh_stdout(kStdout);
  ASSERT_TRUE(out.lnl.has_value());
  EXPECT_EQ(*out.lnl, -21785.753090);
  EXPECT_EQ(out.patterns, 313u);
  EXPECT_EQ(out.kernel_isa, "avx512");
  EXPECT_EQ(out.repeats, "on");
  EXPECT_EQ(out.resumed_replicates, 0);
}

TEST(BenchE2eStdout, MissingOrMalformedLnlIsAbsent) {
  EXPECT_FALSE(parse_raxh_stdout("raxh: 4 taxa, 9 sites, 7 patterns\n").lnl);
  EXPECT_FALSE(parse_raxh_stdout("winner: rank 0, final GAMMA lnL -12.5x\n").lnl);
  EXPECT_EQ(parse_raxh_stdout(
                "resumed 3 bootstrap replicate(s) from checkpoints\n")
                .resumed_replicates,
            3);
  // A plain (not fault-tolerant) run resumes with nothing but a log line.
  EXPECT_EQ(parse_raxh_stdout(
                "[INF] rank 0 resuming bootstraps from checkpoint (6/6 done)\n"
                "[INF] rank 1 resuming bootstraps from checkpoint (2/3 done)\n")
                .resumed_replicates,
            8);
}

TEST(BenchE2eMetrics, ExtractsRanksFromACapturedSample) {
  // --metrics-out of `raxh -f a -N 4 -np 2 -T 1` on a 64-taxon alignment.
  const std::vector<FlatMetrics> ranks =
      parse_metrics_out(read_testdata("metrics_np2.json"));
  ASSERT_EQ(ranks.size(), 2u);
  EXPECT_EQ(ranks[0].at("rank"), 0.0);
  EXPECT_EQ(ranks[1].at("rank"), 1.0);
  EXPECT_EQ(ranks[0].at("counters.newview_calls"), 270669.0);
  EXPECT_EQ(ranks[0].at("counters.comm_bytes_sent"), 3217.0);
  EXPECT_EQ(sum_over_ranks(ranks, "counters.newview_calls"),
            ranks[0].at("counters.newview_calls") +
                ranks[1].at("counters.newview_calls"));
  EXPECT_GT(ranks[0].at("counters.newview_calls"), 0.0);
  EXPECT_EQ(sum_over_ranks(ranks, "counters.kernel_fallbacks"), 0.0);
  EXPECT_EQ(max_over_ranks(ranks, "phases.thorough"),
            std::max(ranks[0].at("phases.thorough"), ranks[1].at("phases.thorough")));
  EXPECT_GT(ranks[0].at("latency.collective.count"), 0.0);
  EXPECT_GT(sum_over_ranks(ranks, "comm.gather.msgs_sent"), 0.0);
  EXPECT_EQ(sum_over_ranks(ranks, "counters.no_such_counter"), 0.0);
}

TEST(BenchE2eMetrics, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_metrics_out("{\"rank\": 0}"), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_out("[{\"rank\": 0}"), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_out("[{\"rank\": 0,}]"), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_out("[1]"), std::runtime_error);
  EXPECT_THROW((void)parse_metrics_out("[] trailing"), std::runtime_error);
  EXPECT_EQ(parse_metrics_out("[]").size(), 0u);
}

TEST(BenchE2eCheck, AcceptsAGoodRun) {
  EXPECT_TRUE(check_run(good_run(), kTaxa, std::nullopt).empty());
  EXPECT_TRUE(check_run(good_run(), kTaxa, -21785.753090).empty());
}

TEST(BenchE2eCheck, RejectsATruncatedTree) {
  RunOutput run = good_run();
  run.best_tree = kTree.substr(0, kTree.size() / 2);
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
  run.best_tree = kTree.substr(0, kTree.find(';'));  // cut at the last byte
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
  run = good_run();
  run.bipartitions_tree.clear();
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
}

TEST(BenchE2eCheck, RejectsAMissingOrForeignTaxon) {
  RunOutput run = good_run();
  run.best_tree = "(taxon1:0.1,taxon2:0.2,taxon3:0.3);";
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
  run.best_tree = "((taxon1:0.1,taxon2:0.2):0.05,taxon3:0.3,taxon9:0.4);";
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
  run.best_tree = "((taxon1:0.1,taxon2:0.2):0.05,taxon3:0.3,taxon3:0.4);";
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
}

TEST(BenchE2eCheck, RejectsLnlDrift) {
  EXPECT_EQ(check_run(good_run(), kTaxa, -21785.753089).size(), 1u);
  RunOutput run = good_run();
  run.stdout_text = "raxh: avx512 kernels, site repeats on\n";
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
}

TEST(BenchE2eCheck, RejectsANonzeroExitAndAStaleCheckpoint) {
  RunOutput run = good_run();
  run.exit_code = 1;
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
  run = good_run();
  run.stdout_text =
      "[INF] rank 0 resuming bootstraps from checkpoint (6/6 done)\n" + kStdout;
  EXPECT_EQ(check_run(run, kTaxa, std::nullopt).size(), 1u);
}

TEST(BenchE2eCheck, TreeHashIgnoresSurroundingWhitespace) {
  EXPECT_EQ(tree_hash(kTree), tree_hash(" " + kTree.substr(0, kTree.size() - 1)));
  EXPECT_NE(tree_hash(kTree), tree_hash(kSupportTree));
  EXPECT_EQ(tree_hash(""), "cbf29ce484222325");  // the FNV-1a 64 offset basis
}

TEST(BenchE2eStats, QuartilesMatchPythonStatistics) {
  // statistics.quantiles(v, n=4) for each v, from Python 3.11.
  Summary s = summarize({3.0, 1.0, 2.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q1, 1.5);
  EXPECT_DOUBLE_EQ(s.q3, 4.5);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.n, 5u);
  s = summarize({1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  EXPECT_DOUBLE_EQ(s.median, 3.5);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.q3, 5.25);
  s = summarize({2.0, 4.0});  // extrapolates past the ends, as Python does
  EXPECT_DOUBLE_EQ(s.q1, 1.5);
  EXPECT_DOUBLE_EQ(s.q3, 4.5);
  s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.q1, 7.0);
  EXPECT_DOUBLE_EQ(s.q3, 7.0);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(BenchE2eStats, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(format_number(3.376795558), "3.376795558");
  EXPECT_EQ(format_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_number(574), "574");
}

TEST(BenchE2eWorkloads, CommandLinesCarryTheWorkloadsTelemetry) {
  const Workload* serial = find_workload("fa_serial_std");
  const Workload* ops = find_workload("fa_ops_dup");
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(find_workload("nope"), nullptr);
  const auto has = [](const std::vector<std::string>& args, const std::string& a) {
    return std::find(args.begin(), args.end(), a) != args.end();
  };
  const auto plain = raxh_args(*serial, "/a.phy", run_telemetry(*serial, false));
  EXPECT_TRUE(has(plain, "/a.phy"));
  EXPECT_FALSE(has(plain, "--metrics-out=metrics.json"));
  EXPECT_FALSE(has(plain, "--checkpoint-dir=ckpt"));
  EXPECT_TRUE(has(raxh_args(*serial, "/a.phy", run_telemetry(*serial, true)),
                  "--metrics-out=metrics.json"));
  const auto full = raxh_args(*ops, "/a.phy", run_telemetry(*ops, false));
  EXPECT_TRUE(has(full, "--checkpoint-dir=ckpt"));
  EXPECT_TRUE(has(full, "--trace-out=trace.json"));
  EXPECT_TRUE(has(full, "--heartbeat-out=heartbeat"));
  // The overhead baseline drops the telemetry but keeps the checkpoints.
  const auto baseline = raxh_args(*ops, "/a.phy", Telemetry::kOff);
  EXPECT_TRUE(has(baseline, "--checkpoint-dir=ckpt"));
  EXPECT_FALSE(has(baseline, "--metrics-out=metrics.json"));
  for (const Workload& w : workloads()) EXPECT_LE(w.ranks * w.threads, 2) << w.name;
}

TEST(BenchE2eWorkloads, AlignmentsFollowTheSeedOnOneTree) {
  const Workload& w = *find_workload("fa_serial_std");
  const SimConfig a = alignment_config(w, 11, 0);
  const SimConfig b = alignment_config(w, 11, 1);
  const SimConfig c = alignment_config(w, 12, 0);
  EXPECT_EQ(a.seed, alignment_config(w, 11, 0).seed);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.seed, c.seed);
  EXPECT_EQ(a.tree_newick, c.tree_newick);
  EXPECT_FALSE(a.tree_newick.empty());
  EXPECT_EQ(a.taxa, w.taxa);
  EXPECT_EQ(a.total_sites, w.total_sites);
}

}  // namespace
}  // namespace raxh::e2e
