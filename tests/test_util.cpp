// util/: PRNG determinism and seed policy, special functions, CLI parsing,
// log prefixes, timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

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

TEST(Cli, ParsesRaxmlStyleOptions) {
  const char* argv[] = {"raxh", "-m", "GTRCAT", "-N", "100", "-p",
                        "12345", "-x", "12345", "-f", "a", "-T", "8"};
  CliParser cli(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(cli.value_or("m", ""), "GTRCAT");
  EXPECT_EQ(cli.int_or("N", 0), 100);
  EXPECT_EQ(cli.int_or("p", 0), 12345);
  EXPECT_EQ(cli.value_or("f", ""), "a");
  EXPECT_EQ(cli.int_or("T", 1), 8);
  EXPECT_FALSE(cli.has("z"));
  EXPECT_EQ(cli.int_or("z", 7), 7);
}

TEST(Cli, NegativeNumbersAreValuesNotFlags) {
  const char* argv[] = {"prog", "-offset", "-3.5"};
  CliParser cli(3, argv);
  EXPECT_DOUBLE_EQ(cli.double_or("offset", 0.0), -3.5);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.phy", "-T", "4", "out.tre"};
  CliParser cli(5, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.phy");
  EXPECT_EQ(cli.positional()[1], "out.tre");
}

TEST(Cli, GnuStyleEqualsValues) {
  const char* argv[] = {"raxh", "--trace-out=run.json", "-N=50",
                        "--report-components", "-T", "4"};
  CliParser cli(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(cli.value_or("-trace-out", ""), "run.json");
  EXPECT_EQ(cli.int_or("N", 0), 50);
  EXPECT_TRUE(cli.has("-report-components"));
  EXPECT_EQ(cli.int_or("T", 1), 4);  // plain space-separated form still works
}

TEST(Cli, MalformedNumbersThrowNamingFlagAndValue) {
  const char* argv[] = {"raxh", "-N", "abc", "-T", "4x",
                        "--straggler-factor=x", "-p",
                        "99999999999999999999", "--scale=1e999"};
  CliParser cli(static_cast<int>(std::size(argv)), argv);
  const auto message = [&](auto read) -> std::string {
    try {
      read();
    } catch (const CliError& e) {
      return e.what();
    }
    return "";
  };
  // Nothing parses.
  EXPECT_EQ(message([&] { return cli.int_or("N", 0); }),
            "-N=abc: expected an integer");
  // Trailing garbage after a valid prefix.
  EXPECT_EQ(message([&] { return cli.int_or("T", 1); }),
            "-T=4x: expected an integer");
  EXPECT_EQ(message([&] { return cli.double_or("-straggler-factor", 2.0); }),
            "--straggler-factor=x: expected a number");
  // ERANGE.
  EXPECT_EQ(message([&] { return cli.int_or("p", 0); }),
            "-p=99999999999999999999: out of range");
  EXPECT_EQ(message([&] { return cli.double_or("-scale", 1.0); }),
            "--scale=1e999: out of range");
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
