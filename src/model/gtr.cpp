#include "model/gtr.h"

#include <cmath>

#include "model/eigen.h"
#include "util/check.h"

namespace raxh {

namespace {

// Rate index for the unordered state pair {i, j}, i != j, in AC,AG,AT,CG,CT,GT
// order.
int pair_rate_index(int i, int j) {
  if (i > j) std::swap(i, j);
  if (i == 0) return j - 1;        // AC, AG, AT -> 0,1,2
  if (i == 1) return 2 + j - 1;    // CG, CT      -> 3,4
  return 5;                        // GT          -> 5
}

}  // namespace

GtrModel::GtrModel(const GtrParams& params) : params_(params) {
  for (double r : params_.rates) RAXH_EXPECTS(r > 0.0);
  double fsum = 0.0;
  for (double f : params_.freqs) {
    RAXH_EXPECTS(f > 0.0);
    fsum += f;
  }
  RAXH_EXPECTS(std::fabs(fsum - 1.0) < 1e-6);

  const auto& pi = params_.freqs;

  // Unnormalized Q.
  for (int i = 0; i < kStates; ++i) {
    double rowsum = 0.0;
    for (int j = 0; j < kStates; ++j) {
      if (i == j) continue;
      const double qij =
          params_.rates[static_cast<std::size_t>(pair_rate_index(i, j))] *
          pi[static_cast<std::size_t>(j)];
      q_[static_cast<std::size_t>(i * kStates + j)] = qij;
      rowsum += qij;
    }
    q_[static_cast<std::size_t>(i * kStates + i)] = -rowsum;
  }

  // Normalize: expected rate sum_i pi_i * (-Q_ii) == 1.
  double mu = 0.0;
  for (int i = 0; i < kStates; ++i)
    mu -= pi[static_cast<std::size_t>(i)] *
          q_[static_cast<std::size_t>(i * kStates + i)];
  RAXH_ASSERT(mu > 0.0);
  for (double& x : q_) x /= mu;

  // Symmetrize: S = D Q D^-1 with D = diag(sqrt(pi)).
  std::array<double, 4> d{}, dinv{};
  for (int i = 0; i < kStates; ++i) {
    d[static_cast<std::size_t>(i)] = std::sqrt(pi[static_cast<std::size_t>(i)]);
    dinv[static_cast<std::size_t>(i)] = 1.0 / d[static_cast<std::size_t>(i)];
  }
  std::vector<double> s(16);
  for (int i = 0; i < kStates; ++i)
    for (int j = 0; j < kStates; ++j)
      s[static_cast<std::size_t>(i * kStates + j)] =
          d[static_cast<std::size_t>(i)] *
          q_[static_cast<std::size_t>(i * kStates + j)] *
          dinv[static_cast<std::size_t>(j)];

  const SymmetricEigen eig = jacobi_eigen(s, kStates);
  for (int i = 0; i < kStates; ++i)
    eigenvalues_[static_cast<std::size_t>(i)] =
        eig.values[static_cast<std::size_t>(i)];

  // V = D^-1 U (right eigenvectors as columns), V^-1 = U^T D.
  for (int i = 0; i < kStates; ++i) {
    for (int j = 0; j < kStates; ++j) {
      v_[static_cast<std::size_t>(i * kStates + j)] =
          dinv[static_cast<std::size_t>(i)] *
          eig.vectors[static_cast<std::size_t>(i * kStates + j)];
      vinv_[static_cast<std::size_t>(i * kStates + j)] =
          eig.vectors[static_cast<std::size_t>(j * kStates + i)] *
          d[static_cast<std::size_t>(j)];
    }
  }
}

void GtrModel::transition_matrices(double t, std::span<const double> rates,
                                   double* out) const {
  RAXH_EXPECTS(t >= 0.0);
  std::array<double, 4> lambda_t{};
  for (std::size_t k = 0; k < 4; ++k) lambda_t[k] = eigenvalues_[k] * t;

  for (const double rate : rates) {
    RAXH_EXPECTS(rate >= 0.0);
    std::array<double, 4> expl{};
    for (std::size_t k = 0; k < 4; ++k) expl[k] = std::exp(lambda_t[k] * rate);

    for (std::size_t i = 0; i < 4; ++i) {
      std::array<double, 4> w{};  // row i of V * diag(exp(lambda t rate))
      for (std::size_t k = 0; k < 4; ++k) w[k] = v_[i * 4 + k] * expl[k];
      std::array<double, 4> sum = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t k = 0; k < 4; ++k)
        for (std::size_t j = 0; j < 4; ++j) sum[j] += w[k] * vinv_[k * 4 + j];
      // Round-off can push tiny probabilities slightly negative.
      for (std::size_t j = 0; j < 4; ++j)
        out[i * 4 + j] = sum[j] < 0.0 ? 0.0 : sum[j];
    }
    out += 16;
  }
}

std::array<double, 16> GtrModel::transition_matrix(double t, double rate) const {
  std::array<double, 16> p{};
  transition_matrices(t, std::span<const double>(&rate, 1), p.data());
  return p;
}

}  // namespace raxh
