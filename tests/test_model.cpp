// model/: Jacobi eigensolver, GTR construction/decomposition, transition
// matrices, rate heterogeneity models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "model/eigen.h"
#include "model/gtr.h"
#include "model/rates.h"
#include "util/prng.h"

namespace raxh {
namespace {

TEST(Eigen, DiagonalMatrix) {
  const std::vector<double> a = {3.0, 0.0, 0.0, 1.0};
  const auto eig = jacobi_eigen(a, 2);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
}

TEST(Eigen, KnownSymmetricMatrix) {
  // [[2,1],[1,2]] -> eigenvalues 1, 3.
  const std::vector<double> a = {2.0, 1.0, 1.0, 2.0};
  const auto eig = jacobi_eigen(a, 2);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  // Eigenvectors are (1,-1)/sqrt2 and (1,1)/sqrt2 up to sign.
  EXPECT_NEAR(std::fabs(eig.vectors[0 * 2 + 1]), std::sqrt(0.5), 1e-10);
}

TEST(Eigen, ReconstructsMatrix) {
  const std::vector<double> a = {4.0, 1.0, 0.5, 1.0,  3.0, 0.2,
                                 0.5, 0.2, 2.0};
  const auto eig = jacobi_eigen(a, 3);
  // A = U diag(lambda) U^T.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double sum = 0.0;
      for (int k = 0; k < 3; ++k)
        sum += eig.vectors[i * 3 + k] * eig.values[static_cast<std::size_t>(k)] *
               eig.vectors[j * 3 + k];
      EXPECT_NEAR(sum, a[static_cast<std::size_t>(i * 3 + j)], 1e-10);
    }
  }
}

TEST(Eigen, OrthonormalVectors) {
  const std::vector<double> a = {4.0, 1.0, 0.5, 1.0,  3.0, 0.2,
                                 0.5, 0.2, 2.0};
  const auto eig = jacobi_eigen(a, 3);
  for (int c1 = 0; c1 < 3; ++c1) {
    for (int c2 = 0; c2 < 3; ++c2) {
      double dot = 0.0;
      for (int i = 0; i < 3; ++i)
        dot += eig.vectors[i * 3 + c1] * eig.vectors[i * 3 + c2];
      EXPECT_NEAR(dot, c1 == c2 ? 1.0 : 0.0, 1e-10);
    }
  }
}

GtrParams asymmetric_params() {
  GtrParams p;
  p.rates = {1.3, 4.2, 0.8, 1.1, 5.0, 1.0};
  p.freqs = {0.32, 0.18, 0.24, 0.26};
  return p;
}

TEST(Gtr, RowsSumToZero) {
  const GtrModel model(asymmetric_params());
  const auto& q = model.rate_matrix();
  for (int i = 0; i < 4; ++i) {
    double row = 0.0;
    for (int j = 0; j < 4; ++j) row += q[static_cast<std::size_t>(i * 4 + j)];
    EXPECT_NEAR(row, 0.0, 1e-12);
  }
}

TEST(Gtr, NormalizedToOneExpectedSubstitution) {
  const GtrModel model(asymmetric_params());
  const auto& q = model.rate_matrix();
  const auto& pi = model.freqs();
  double mu = 0.0;
  for (int i = 0; i < 4; ++i)
    mu -= pi[static_cast<std::size_t>(i)] * q[static_cast<std::size_t>(i * 4 + i)];
  EXPECT_NEAR(mu, 1.0, 1e-12);
}

TEST(Gtr, DetailedBalance) {
  const GtrModel model(asymmetric_params());
  const auto& q = model.rate_matrix();
  const auto& pi = model.freqs();
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_NEAR(pi[static_cast<std::size_t>(i)] *
                      q[static_cast<std::size_t>(i * 4 + j)],
                  pi[static_cast<std::size_t>(j)] *
                      q[static_cast<std::size_t>(j * 4 + i)],
                  1e-12);
}

TEST(Gtr, TransitionMatrixIsStochastic) {
  const GtrModel model(asymmetric_params());
  for (double t : {0.0, 0.01, 0.1, 1.0, 10.0}) {
    const auto p = model.transition_matrix(t);
    for (int i = 0; i < 4; ++i) {
      double row = 0.0;
      for (int j = 0; j < 4; ++j) {
        const double v = p[static_cast<std::size_t>(i * 4 + j)];
        EXPECT_GE(v, 0.0);
        row += v;
      }
      EXPECT_NEAR(row, 1.0, 1e-10) << "t=" << t;
    }
  }
}

TEST(Gtr, IdentityAtZeroTime) {
  const GtrModel model(asymmetric_params());
  const auto p = model.transition_matrix(0.0);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_NEAR(p[static_cast<std::size_t>(i * 4 + j)], i == j ? 1.0 : 0.0,
                  1e-10);
}

TEST(Gtr, ConvergesToStationaryDistribution) {
  const GtrModel model(asymmetric_params());
  const auto p = model.transition_matrix(500.0);
  const auto& pi = model.freqs();
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_NEAR(p[static_cast<std::size_t>(i * 4 + j)],
                  pi[static_cast<std::size_t>(j)], 1e-8);
}

TEST(Gtr, ChapmanKolmogorov) {
  // P(s+t) == P(s) P(t).
  const GtrModel model(asymmetric_params());
  const auto pa = model.transition_matrix(0.3);
  const auto pb = model.transition_matrix(0.7);
  const auto pc = model.transition_matrix(1.0);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      double sum = 0.0;
      for (int k = 0; k < 4; ++k)
        sum += pa[static_cast<std::size_t>(i * 4 + k)] *
               pb[static_cast<std::size_t>(k * 4 + j)];
      EXPECT_NEAR(sum, pc[static_cast<std::size_t>(i * 4 + j)], 1e-10);
    }
  }
}

TEST(Gtr, RateScalesTime) {
  const GtrModel model(asymmetric_params());
  const auto a = model.transition_matrix(0.2, 2.5);
  const auto b = model.transition_matrix(0.5, 1.0);
  for (std::size_t k = 0; k < 16; ++k) EXPECT_NEAR(a[k], b[k], 1e-12);
}

TEST(Gtr, JukesCantorClosedForm) {
  const GtrModel model(GtrParams::jukes_cantor());
  const double t = 0.3;
  const auto p = model.transition_matrix(t);
  // JC69: p_same = 1/4 + 3/4 e^{-4t/3}, p_diff = 1/4 - 1/4 e^{-4t/3}.
  const double e = std::exp(-4.0 * t / 3.0);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_NEAR(p[static_cast<std::size_t>(i * 4 + j)],
                  i == j ? 0.25 + 0.75 * e : 0.25 - 0.25 * e, 1e-10);
}

TEST(Gtr, EigenReconstructionMatchesQ) {
  const GtrModel model(asymmetric_params());
  const auto& v = model.right_vectors();
  const auto& vinv = model.left_vectors();
  const auto& lambda = model.eigenvalues();
  const auto& q = model.rate_matrix();
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      double sum = 0.0;
      for (int k = 0; k < 4; ++k)
        sum += v[static_cast<std::size_t>(i * 4 + k)] *
               lambda[static_cast<std::size_t>(k)] *
               vinv[static_cast<std::size_t>(k * 4 + j)];
      EXPECT_NEAR(sum, q[static_cast<std::size_t>(i * 4 + j)], 1e-10);
    }
  }
}

TEST(Gtr, OneEigenvalueIsZeroRestNegative) {
  const GtrModel model(asymmetric_params());
  const auto& lambda = model.eigenvalues();
  // Ascending order: last is the zero eigenvalue.
  EXPECT_NEAR(lambda[3], 0.0, 1e-10);
  for (int k = 0; k < 3; ++k) EXPECT_LT(lambda[static_cast<std::size_t>(k)], -1e-6);
}

// P(t*rate) as the per-category triple product computed it before the
// batched fill: exp(lambda_k * t * rate), then sum_k v_ik * e_k * vinv_kj
// from 0.0 with negatives clamped to 0.
std::array<double, 16> reference_transition_matrix(const GtrModel& model,
                                                   double t, double rate) {
  const auto& lambda = model.eigenvalues();
  const auto& v = model.right_vectors();
  const auto& vinv = model.left_vectors();
  std::array<double, 4> expl{};
  for (std::size_t k = 0; k < 4; ++k) expl[k] = std::exp(lambda[k] * t * rate);
  std::array<double, 16> p{};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < 4; ++k)
        sum += v[i * 4 + k] * expl[k] * vinv[k * 4 + j];
      p[i * 4 + j] = sum < 0.0 ? 0.0 : sum;
    }
  }
  return p;
}

TEST(Model, BatchedTransitionMatricesBitwise) {
  std::vector<double> times = {0.0};
  for (int i = 0; i < 41; ++i) times.push_back(1e-8 * std::pow(10.0, i / 5.0));
  for (std::int64_t seed = 1; seed <= 6; ++seed) {
    Lcg r(seed);
    GtrParams params;
    for (double& x : params.rates) x = 0.1 + 9.9 * r.next_double();
    double fsum = 0.0;
    for (double& f : params.freqs) fsum += (f = 0.05 + r.next_double());
    for (double& f : params.freqs) f /= fsum;
    const GtrModel model(params);

    const RateModel gamma = RateModel::gamma(0.1 + 2.0 * r.next_double());
    std::vector<double> cat(25);
    for (double& x : cat) x = 0.02 + 5.0 * r.next_double();
    const std::vector<std::vector<double>> rate_sets = {
        {1.0}, {gamma.rates().begin(), gamma.rates().end()}, cat};
    ASSERT_EQ(rate_sets[1].size(), 4u);

    for (const auto& rates : rate_sets) {
      for (const double t : times) {
        std::vector<double> want(rates.size() * 16);
        for (std::size_t c = 0; c < rates.size(); ++c) {
          const auto p = reference_transition_matrix(model, t, rates[c]);
          std::memcpy(want.data() + c * 16, p.data(), sizeof p);
          const auto one = model.transition_matrix(t, rates[c]);
          EXPECT_EQ(std::memcmp(one.data(), p.data(), sizeof p), 0)
              << "seed " << seed << " t=" << t << " rate=" << rates[c];
        }
        std::vector<double> got(rates.size() * 16, -1.0);
        model.transition_matrices(t, rates, got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << "seed " << seed << " t=" << t << " ncat=" << rates.size();
      }
    }
  }
}

TEST(Rates, UniformModel) {
  const auto m = RateModel::uniform();
  EXPECT_EQ(m.kind(), RateKind::kUniform);
  EXPECT_EQ(m.num_categories(), 1);
  EXPECT_DOUBLE_EQ(m.rate(0), 1.0);
}

TEST(Rates, GammaModelRatesAverageOne) {
  const auto m = RateModel::gamma(0.5);
  EXPECT_EQ(m.num_categories(), kGammaCategories);
  double mean = 0.0;
  for (double r : m.rates()) mean += r;
  EXPECT_NEAR(mean / m.num_categories(), 1.0, 1e-9);
}

TEST(Rates, SetAlphaChangesSpread) {
  auto m = RateModel::gamma(0.5);
  const double spread_low = m.rates().back() - m.rates().front();
  m.set_alpha(5.0);
  const double spread_high = m.rates().back() - m.rates().front();
  EXPECT_GT(spread_low, spread_high);
  EXPECT_DOUBLE_EQ(m.alpha(), 5.0);
}

TEST(Rates, CatStartsUniform) {
  const auto m = RateModel::cat(100);
  EXPECT_EQ(m.kind(), RateKind::kCat);
  EXPECT_EQ(m.num_categories(), 1);
  for (std::size_t p = 0; p < 100; ++p) EXPECT_EQ(m.pattern_category(p), 0);
}

TEST(Rates, CatClusteringRespectsCapAndMeanOne) {
  auto m = RateModel::cat(200);
  std::vector<double> pattern_rates(200);
  std::vector<int> weights(200, 1);
  for (std::size_t p = 0; p < 200; ++p)
    pattern_rates[p] = 0.05 + 0.01 * static_cast<double>(p);
  m.assign_categories_from_rates(pattern_rates, weights, 25);
  EXPECT_LE(m.num_categories(), 25);
  EXPECT_GE(m.num_categories(), 2);
  // Site-weighted mean rate is 1 after normalization.
  double mean = 0.0;
  for (std::size_t p = 0; p < 200; ++p)
    mean += m.rate(m.pattern_category(p));
  EXPECT_NEAR(mean / 200.0, 1.0, 1e-9);
  // Clustering preserves rate order: higher pattern rate -> >= category rate.
  for (std::size_t p = 1; p < 200; ++p)
    EXPECT_GE(m.rate(m.pattern_category(p)) + 1e-12,
              m.rate(m.pattern_category(p - 1)));
}

TEST(Rates, CatClusteringWeightsMatter) {
  auto m = RateModel::cat(4);
  // One heavy low-rate pattern, three light high-rate ones.
  m.assign_categories_from_rates(std::vector<double>{0.1, 2.0, 2.0, 2.0},
                                 std::vector<int>{97, 1, 1, 1}, 2);
  // Weighted mean must be 1: the heavy pattern dominates normalization.
  double mean = m.rate(m.pattern_category(0)) * 97;
  for (std::size_t p = 1; p < 4; ++p) mean += m.rate(m.pattern_category(p));
  EXPECT_NEAR(mean / 100.0, 1.0, 1e-9);
}

}  // namespace
}  // namespace raxh
