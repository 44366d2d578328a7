// General Time Reversible (GTR) nucleotide substitution model, the model the
// paper's benchmark runs use (-m GTRCAT / GTRGAMMA).
//
// Q is built from six exchangeability rates and four stationary frequencies,
// normalized to one expected substitution per unit time, and decomposed via
// the pi-symmetrization Q = D^-1 S D (D = diag(sqrt(pi)), S symmetric), so
// that P(t) = V exp(Lambda t) V^-1 with V = D^-1 U.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace raxh {

inline constexpr int kStates = 4;

// Exchangeability order: AC, AG, AT, CG, CT, GT (GT is the reference rate,
// conventionally fixed to 1 during optimization).
struct GtrParams {
  std::array<double, 6> rates = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  std::array<double, 4> freqs = {0.25, 0.25, 0.25, 0.25};

  // Jukes-Cantor corner of the GTR space.
  static GtrParams jukes_cantor() { return GtrParams{}; }
};

class GtrModel {
 public:
  explicit GtrModel(const GtrParams& params);

  [[nodiscard]] const GtrParams& params() const { return params_; }
  [[nodiscard]] const std::array<double, 4>& freqs() const {
    return params_.freqs;
  }

  // Eigenvalues of the normalized Q (ascending; one of them is ~0).
  [[nodiscard]] const std::array<double, 4>& eigenvalues() const {
    return eigenvalues_;
  }

  // P(t*rate_c) for every rate category c at once: writes rates.size()
  // row-major 4x4 matrices to out[c*16 .. c*16+15]. t >= 0; each rate >= 0
  // scales the branch length (rate-heterogeneity category). lambda_k*t is
  // formed once per call, exp((lambda_k*t)*rate_c) once per category, and
  // V*exp*V^-1 summed over k in order, so every call gives the same bits
  // for the same (t, rate) whatever the batch.
  void transition_matrices(double t, std::span<const double> rates,
                           double* out) const;

  // P(t*rate) as one matrix: the one-category call of the batched fill.
  [[nodiscard]] std::array<double, 16> transition_matrix(double t,
                                                         double rate = 1.0) const;

  // Right/left eigenvector matrices: Q = V diag(lambda) V^-1, row-major.
  [[nodiscard]] const std::array<double, 16>& right_vectors() const {
    return v_;
  }
  [[nodiscard]] const std::array<double, 16>& left_vectors() const {
    return vinv_;
  }

  // The normalized rate matrix itself (row-major), for tests and simulation.
  [[nodiscard]] const std::array<double, 16>& rate_matrix() const { return q_; }

 private:
  GtrParams params_;
  std::array<double, 16> q_{};
  std::array<double, 4> eigenvalues_{};
  std::array<double, 16> v_{};     // right eigenvectors (columns)
  std::array<double, 16> vinv_{};  // left eigenvectors (rows)
};

}  // namespace raxh
