// util/: PRNG determinism and seed policy, special functions, CLI parsing,
// log prefixes, timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cli/raxh_flags.h"
#include "cli/raxhd_flags.h"
#include "raxh_blackbox_flags.h"
#include "raxhd_client_flags.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/math_ext.h"
#include "util/prng.h"
#include "util/timer.h"

namespace raxh {
namespace {

TEST(Lcg, DeterministicSequence) {
  Lcg a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(a.next_double(), b.next_double());
}

TEST(Lcg, OutputInUnitInterval) {
  Lcg rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Lcg, DifferentSeedsDiverge) {
  Lcg a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_double() == b.next_double()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Lcg, NextBelowInRange) {
  Lcg rng(777);
  for (int n : {1, 2, 7, 100}) {
    for (int i = 0; i < 200; ++i) {
      const auto v = rng.next_below(n);
      EXPECT_GE(v, 0);
      EXPECT_LT(v, n);
    }
  }
}

TEST(Lcg, NextBelowCoversAllValues) {
  Lcg rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Lcg, ApproximatelyUniformMean) {
  Lcg rng(31415);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Xoshiro, DeterministicAndUniform) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += a.next_double();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Xoshiro, NextBelowUnbiasedSmallRange) {
  Xoshiro256 rng(5);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.next_below(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Xoshiro, GaussianMoments) {
  Xoshiro256 rng(2024);
  double sum = 0.0, sq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.02);
}

TEST(Xoshiro, ExponentialMean) {
  Xoshiro256 rng(7);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential();
  EXPECT_NEAR(sum / kDraws, 1.0, 0.02);
}

TEST(SeedPolicy, RankStrideMatchesPaper) {
  // Paper §2.4: seeds incremented by multiples of 10,000 per rank.
  const auto r0 = seeds_for_rank(12345, 67890, 0);
  EXPECT_EQ(r0.parsimony_seed, 12345);
  EXPECT_EQ(r0.bootstrap_seed, 67890);
  const auto r3 = seeds_for_rank(12345, 67890, 3);
  EXPECT_EQ(r3.parsimony_seed, 12345 + 30000);
  EXPECT_EQ(r3.bootstrap_seed, 67890 + 30000);
}

TEST(SeedPolicy, DistinctRanksDistinctStreams) {
  const auto a = seeds_for_rank(1, 1, 0);
  const auto b = seeds_for_rank(1, 1, 1);
  Lcg ra(a.bootstrap_seed), rb(b.bootstrap_seed);
  EXPECT_NE(ra.next_double(), rb.next_double());
}

TEST(MathExt, IncompleteGammaKnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 3.0, 10.0})
    EXPECT_NEAR(incomplete_gamma(x, 1.0), 1.0 - std::exp(-x), 1e-10);
  // P(a, 0) = 0; P(a, inf) -> 1.
  EXPECT_DOUBLE_EQ(incomplete_gamma(0.0, 2.5), 0.0);
  EXPECT_NEAR(incomplete_gamma(100.0, 2.5), 1.0, 1e-10);
}

TEST(MathExt, IncompleteGammaMonotone) {
  double prev = -1.0;
  for (double x = 0.0; x < 5.0; x += 0.25) {
    const double v = incomplete_gamma(x, 0.7);
    EXPECT_GT(v, prev - 1e-15);
    prev = v;
  }
}

TEST(MathExt, PointNormalInvertsPhi) {
  // Known quantiles of the standard normal.
  EXPECT_NEAR(point_normal(0.5), 0.0, 1e-3);
  EXPECT_NEAR(point_normal(0.975), 1.959964, 2e-3);
  EXPECT_NEAR(point_normal(0.025), -1.959964, 2e-3);
  EXPECT_NEAR(point_normal(0.8413), 1.0, 2e-3);
}

TEST(MathExt, PointChi2MedianOfTwoDof) {
  // chi2(2) median = 2 ln 2.
  EXPECT_NEAR(point_chi2(0.5, 2.0), 2.0 * std::log(2.0), 1e-4);
}

TEST(MathExt, PointChi2RoundTripsIncompleteGamma) {
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    for (double v : {1.0, 2.0, 4.0, 8.0}) {
      const double x = point_chi2(p, v);
      EXPECT_NEAR(incomplete_gamma(x / 2.0, v / 2.0), p, 1e-4)
          << "p=" << p << " v=" << v;
    }
  }
}

TEST(MathExt, DiscreteGammaMeanOne) {
  for (double alpha : {0.1, 0.5, 1.0, 2.0, 10.0}) {
    const auto rates = discrete_gamma_rates(alpha, 4);
    ASSERT_EQ(rates.size(), 4u);
    double mean = 0.0;
    for (double r : rates) mean += r;
    EXPECT_NEAR(mean / 4.0, 1.0, 1e-9) << "alpha=" << alpha;
    // Rates ascend.
    EXPECT_TRUE(std::is_sorted(rates.begin(), rates.end()));
  }
}

TEST(MathExt, DiscreteGammaSpreadShrinksWithAlpha) {
  const auto wide = discrete_gamma_rates(0.3, 4);
  const auto narrow = discrete_gamma_rates(10.0, 4);
  EXPECT_GT(wide.back() - wide.front(), narrow.back() - narrow.front());
}

TEST(MathExt, DiscreteGammaSingleCategory) {
  const auto rates = discrete_gamma_rates(0.5, 1);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
}

TEST(MathExt, KahanSumAccurate) {
  std::vector<double> values(10000, 0.1);
  values.push_back(1e16);
  values.push_back(-1e16);
  EXPECT_NEAR(kahan_sum(values), 1000.0, 1e-6);
}

TEST(MathExt, LogSumExp) {
  const std::vector<double> v = {-1000.0, -1000.0};
  EXPECT_NEAR(log_sum_exp(v), -1000.0 + std::log(2.0), 1e-12);
  const std::vector<double> single = {3.5};
  EXPECT_DOUBLE_EQ(log_sum_exp(single), 3.5);
}

// One row of every kind, for the parser's own tests.
constexpr Flag kTestFlags[] = {
    Flag::text("m", nullptr, "model"),
    Flag::choice("f", "a|d|e", "a", "mode"),
    Flag::integer("N", "10", 1, "count"),
    Flag::integer("p", "12345", kNoMinimum, "seed"),
    Flag::integer("T", "1", 1, "threads"),
    Flag::real("offset", "0", "offset"),
    Flag::real("straggler-factor", "2.0", "factor"),
    Flag::real("scale", "1", "scale"),
    Flag::text("trace-out", nullptr, "trace"),
    Flag::toggle("report-components", "report"),
    Flag::text("plan", nullptr, "plan", "RAXH_TEST_CLI_PLAN"),
    Flag::removed("repeats", "site repeats were retired"),
};
constexpr CliSpec kTestCli{"[flags]", kTestFlags};
constexpr CliSpec kTestCliWithPositionals{"[flags] FILE...", kTestFlags,
                                          true};

// what() of the CliError that parsing `args` throws; "" if it parses.
std::string cli_error(const CliSpec& spec, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  try {
    Cli cli(spec, static_cast<int>(args.size()), args.data());
  } catch (const CliError& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, ParsesRaxmlStyleOptions) {
  const char* argv[] = {"raxh", "-m", "GTRCAT", "-N", "100", "-p",
                        "12345", "-f", "e", "-T", "8"};
  Cli cli(kTestCli, static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(cli.text("m"), "GTRCAT");
  EXPECT_EQ(cli.integer("N"), 100);
  EXPECT_EQ(cli.integer("p"), 12345);
  EXPECT_EQ(cli.text("f"), "e");
  EXPECT_EQ(cli.integer("T"), 8);
  // An absent row reads its default, and has() tells it apart.
  EXPECT_FALSE(cli.has("scale"));
  EXPECT_EQ(cli.real("scale"), 1.0);
  EXPECT_EQ(cli.text("trace-out"), "");
}

TEST(Cli, NegativeNumbersAreValuesNotFlags) {
  const char* argv[] = {"prog", "-offset", "-3.5"};
  Cli cli(kTestCli, 3, argv);
  EXPECT_DOUBLE_EQ(cli.real("offset"), -3.5);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.phy", "-T", "4", "out.tre"};
  Cli cli(kTestCliWithPositionals, 5, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.phy");
  EXPECT_EQ(cli.positional()[1], "out.tre");
  EXPECT_EQ(cli.integer("T"), 4);
}

TEST(Cli, GnuStyleEqualsValues) {
  const char* argv[] = {"raxh", "--trace-out=run.json", "-N=50",
                        "--report-components", "-T", "4"};
  Cli cli(kTestCli, static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(cli.text("trace-out"), "run.json");
  EXPECT_EQ(cli.integer("N"), 50);
  EXPECT_TRUE(cli.has("report-components"));
  EXPECT_EQ(cli.integer("T"), 4);  // plain space-separated form still works
}

TEST(Cli, MalformedNumbersThrowNamingFlagAndValue) {
  // Nothing parses.
  EXPECT_EQ(cli_error(kTestCli, {"-N", "abc"}), "-N=abc: expected an integer");
  // Trailing garbage after a valid prefix.
  EXPECT_EQ(cli_error(kTestCli, {"-T", "4x"}), "-T=4x: expected an integer");
  EXPECT_EQ(cli_error(kTestCli, {"--straggler-factor=x"}),
            "--straggler-factor=x: expected a number");
  // ERANGE.
  EXPECT_EQ(cli_error(kTestCli, {"-p", "99999999999999999999"}),
            "-p=99999999999999999999: out of range");
  EXPECT_EQ(cli_error(kTestCli, {"--scale=1e999"}),
            "--scale=1e999: out of range");
}

// Everything the table does not admit is one CliError naming the flag.
TEST(Cli, UndeclaredInputThrows) {
  EXPECT_EQ(cli_error(kTestCli, {"-z"}), "unknown flag -z");
  EXPECT_EQ(cli_error(kTestCli, {"-T2"}), "unknown flag -T2");
  EXPECT_EQ(cli_error(kTestCli, {"--trace-outt=x"}),
            "unknown flag --trace-outt");
  EXPECT_EQ(cli_error(kTestCli, {"--repeats"}),
            "--repeats was removed; site repeats were retired");
  EXPECT_EQ(cli_error(kTestCli, {"-T", "0"}), "-T=0: below the minimum 1");
  EXPECT_EQ(cli_error(kTestCli, {"-f", "z"}), "-f=z: expected one of a|d|e");
  EXPECT_EQ(cli_error(kTestCli, {"--report-components=1"}),
            "--report-components takes no value");
  EXPECT_EQ(cli_error(kTestCli, {"-m"}), "-m: expected a value");
  EXPECT_EQ(cli_error(kTestCli, {"-m", ""}), "-m: expected a value");
  EXPECT_EQ(cli_error(kTestCli, {"stray"}), "unexpected argument 'stray'");
  EXPECT_EQ(cli_error(kTestCli, {"--scale=nan"}),
            "--scale=nan: expected a number");
  // A switch never takes the next token as its value.
  EXPECT_EQ(cli_error(kTestCli, {"--report-components", "x"}),
            "unexpected argument 'x'");
  EXPECT_EQ(cli_error(kTestCliWithPositionals, {"--report-components", "x"}),
            "");
  // -name and --name are the same row.
  EXPECT_EQ(cli_error(kTestCli, {"--T", "2", "-trace-out=t.json"}), "");
}

TEST(Cli, EnvironmentSuppliesTheDefault) {
  const char* argv[] = {"prog"};
  ASSERT_EQ(setenv("RAXH_TEST_CLI_PLAN", "die@1,2", 1), 0);
  EXPECT_EQ(cli_error(kTestCli, {}), "");
  {
    const Cli cli(kTestCli, 1, argv);
    EXPECT_TRUE(cli.has("plan"));
    EXPECT_EQ(cli.text("plan"), "die@1,2");
  }
  // The command line wins over the environment.
  const char* flagged[] = {"prog", "--plan=drop@0,1"};
  {
    const Cli cli(kTestCli, 2, flagged);
    EXPECT_EQ(cli.text("plan"), "drop@0,1");
  }
  unsetenv("RAXH_TEST_CLI_PLAN");
  const Cli cli(kTestCli, 1, argv);
  EXPECT_FALSE(cli.has("plan"));
}

// Counts are kept in an int, so an integer row stops at INT_MAX unless it
// declares otherwise (seeds are 64-bit, ports stop at 65535). Parsing only:
// nothing here starts the threads, forks or listeners a value asks for.
TEST(Cli, IntegerRowsRejectValuesPastTheirMaximum) {
  const std::string past = " above the maximum 2147483647";
  for (const char* flag : {"-T", "-np", "-N"}) {
    EXPECT_EQ(cli_error(kRaxhCli, {flag, "4294967297"}),
              std::string(flag) + "=4294967297:" + past);
    EXPECT_EQ(cli_error(kRaxhdClientCli, {"submit", flag, "2147483648"}),
              std::string(flag) + "=2147483648:" + past);
  }
  EXPECT_EQ(cli_error(kRaxhCli, {"-T", "2147483647"}), "");
  EXPECT_EQ(cli_error(kRaxhCli, {"-p", "4294967297", "-x", "4294967298"}), "");
  EXPECT_EQ(cli_error(kRaxhdClientCli, {"submit", "--priority=-2147483649"}),
            "--priority=-2147483649: below the minimum -2147483648");
  for (const char* flag :
       {"--jobs", "--lookahead", "--max-ranks", "--max-threads",
        "--cache-mb", "--stream-interval-ms"}) {
    EXPECT_EQ(cli_error(kRaxhdCli, {flag, "4294967297"}),
              std::string(flag) + "=4294967297:" + past);
  }
  EXPECT_EQ(cli_error(kRaxhdCli, {"--tcp-port", "65536"}),
            "--tcp-port=65536: above the maximum 65535");
  EXPECT_EQ(cli_error(kRaxhdCli, {"--metrics-http-port=65535"}), "");
  EXPECT_EQ(cli_error(kTestCli, {"-T", "2147483648"}), "-T=2147483648:" + past);
}

// A text row with a check rejects what the check throws on, from the
// command line and from its environment variable alike.
TEST(Cli, CheckedTextRowsRejectBadValues) {
  EXPECT_EQ(cli_error(kRaxhCli, {"--fault-plan=bogus"}),
            "--fault-plan=bogus: fault plan 'bogus': missing '@' in 'bogus'");
  // An op past int: the parser's own std::out_of_range, reported the same.
  EXPECT_EQ(cli_error(kRaxhCli, {"--fault-plan", "die@1,99999999999"})
                .rfind("--fault-plan=die@1,99999999999: ", 0),
            0u);
  EXPECT_EQ(cli_error(kRaxhCli, {"--fault-plan=die@1,5;delay@0,3,15"}), "");
  ASSERT_EQ(setenv("RAXH_FAULT_PLAN", "die@0,1", 1), 0);
  EXPECT_NE(cli_error(kRaxhCli, {}).find("RAXH_FAULT_PLAN=die@0,1: fault plan"),
            std::string::npos);
  EXPECT_EQ(cli_error(kRaxhCli, {"--fault-plan=die@1,2"}), "");
  unsetenv("RAXH_FAULT_PLAN");
}

TEST(Cli, UsageListsEveryRow) {
  const char* argv[] = {"prog", "--help"};
  const Cli cli(kTestCli, 2, argv);
  EXPECT_TRUE(cli.help());
  const std::string usage = cli.usage();
  for (const char* line :
       {"  -m VALUE ", "  -f a|d|e ", "[default a]", "  -N N ", "[min 1]",
        "  --offset=X ", "  --report-components ", "  --repeats ",
        "removed: site repeats were retired", "[env RAXH_TEST_CLI_PLAN]",
        "  -h, --help "})
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
}

// Seeded mutation fuzz of the parser, in the style of the checkpoint and
// black-box bit-flip matrices: valid argvs of three real binaries with
// tokens dropped, duplicated, truncated and bit-flipped. Every result must
// parse or throw CliError, and a parsed command line must answer for every
// row of its table.
TEST(Cli, SeededMutationFuzz) {
  struct Case {
    const CliSpec* spec;
    std::vector<std::string> argv;
  };
  const Case cases[] = {
      {&kRaxhCli,
       {"raxh", "-s", "a.phy", "-f", "a", "-N", "8", "-np", "2", "-T", "2",
        "-n", "x", "-p", "7", "-x", "9", "--trace-out=t.json",
        "--metrics-out", "m.json", "--report-components", "--kernels=scalar",
        "--blackbox=off", "--straggler-factor=1.5", "--fault-plan=die@1,5",
        "--log-level", "warn", "-m", "GTRCAT"}},
      {&kRaxhdClientCli,
       {"raxhd_client", "submit", "-s", "a.phy", "-n", "j", "-N", "8", "-np",
        "2", "-T", "2", "-tenant", "ci", "--priority=-3", "--checkpoint",
        "--wait", "--socket=/tmp/x.sock", "-m", "GTRGAMMA"}},
      {&kRaxhBlackboxCli,
       {"raxh_blackbox", "--report=timeline", "--last", "80", "boxes/",
        "rank0.blackbox"}},
  };
  std::mt19937_64 rng(20261019);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  int parsed = 0, rejected = 0;
  for (const Case& c : cases) {
    for (int trial = 0; trial < 1500; ++trial) {
      std::vector<std::string> args = c.argv;
      for (std::size_t m = 1 + pick(3); m > 0 && args.size() > 1; --m) {
        const std::size_t i = 1 + pick(args.size() - 1);
        switch (pick(4)) {
          case 0: args.erase(args.begin() + static_cast<long>(i)); break;
          case 1: {
            const std::string copy = args[i];
            args.insert(args.begin() + static_cast<long>(1 + pick(args.size())),
                        copy);
            break;
          }
          case 2: args[i].resize(pick(args[i].size() + 1)); break;
          default:
            if (!args[i].empty())
              args[i][pick(args[i].size())] ^=
                  static_cast<char>(1 << pick(8));
        }
      }
      std::vector<const char*> argv;
      for (const std::string& a : args) argv.push_back(a.c_str());
      try {
        const Cli cli(*c.spec, static_cast<int>(argv.size()), argv.data());
        for (const Flag& flag : c.spec->flags) {
          (void)cli.has(flag.name);
          (void)cli.text(flag.name);
        }
        ++parsed;
      } catch (const CliError&) {
        ++rejected;
      }
    }
  }
  EXPECT_EQ(parsed + rejected, 4500);
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(LogPrefix, BareFormatWhenRankAndThreadUnset) {
  // The historical format must stay byte-identical when nothing is set.
  EXPECT_EQ(format_log_prefix(LogLevel::kInfo, -1, -1, 12.3), "[INF] ");
  EXPECT_EQ(format_log_prefix(LogLevel::kError, -1, -1, 0.0), "[ERR] ");
}

TEST(LogPrefix, TimestampRankAndThreadWhenSet) {
  EXPECT_EQ(format_log_prefix(LogLevel::kInfo, 2, 3, 1.5),
            "[INF +1.500s r2 t3] ");
  EXPECT_EQ(format_log_prefix(LogLevel::kWarn, 2, -1, 0.25),
            "[WRN +0.250s r2] ");
  EXPECT_EQ(format_log_prefix(LogLevel::kDebug, -1, 7, 10.0),
            "[DBG +10.000s t7] ");
}

TEST(LogLevelFlag, ParsesEveryLevelAndRejectsJunk) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_FALSE(parse_log_level("").has_value());
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_FALSE(parse_log_level("WARN").has_value());
}

TEST(PhaseTimer, AccumulatesPhases) {
  PhaseTimer timer;
  timer.start("a");
  timer.start("b");
  timer.start("a");
  timer.stop();
  EXPECT_GE(timer.total("a"), 0.0);
  EXPECT_GE(timer.total("b"), 0.0);
  EXPECT_EQ(timer.total("missing"), 0.0);
  EXPECT_EQ(timer.phases().size(), 2u);
}

}  // namespace
}  // namespace raxh
