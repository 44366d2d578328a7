// Kernel family core: the scalar reference implementation (any category
// count — the member every other one must match bitwise), CPUID member
// selection, and the dispatch layer behind the public kernels.h functions.
// SIMD members live in kernels_impl.inl, compiled once per ISA
// (kernels_generic.cpp / kernels_avx512.cpp / kernels_neon.cpp).
#include "likelihood/kernels.h"

#include <atomic>
#include <cmath>

#include "obs/obs.h"
#include "util/log.h"

namespace raxh::kern {

namespace {

constexpr double kMinLikelihood = 1e-300;

// -------------------------------------------------------------------------
// Scalar reference kernels, addressing CLVs through RateLayout::clv_index.
// -------------------------------------------------------------------------

// x[i] = sum_{j in mask} P[i][j] for a full 4x4 row-major P.
inline void pdotmask(const double* p, DnaState mask, double* x) {
  x[0] = x[1] = x[2] = x[3] = 0.0;
  for (int j = 0; j < 4; ++j) {
    if ((mask >> j) & 1) {
      x[0] += p[0 * 4 + j];
      x[1] += p[1 * 4 + j];
      x[2] += p[2 * 4 + j];
      x[3] += p[3 * 4 + j];
    }
  }
}

inline void pdotvec(const double* p, const double* y, double* x) {
  for (int i = 0; i < 4; ++i) {
    x[i] = p[i * 4 + 0] * y[0] + p[i * 4 + 1] * y[1] + p[i * 4 + 2] * y[2] +
           p[i * 4 + 3] * y[3];
  }
}

// Rescale the clv_cats*4 values of pattern p if they all dropped below the
// threshold; returns 1 if a scaling event happened. The all-zero early-out
// (vmax == 0.0) keeps fully-masked/contradictory patterns from spinning the
// scale counter forever.
inline int maybe_rescale_at(const RateLayout& l, double* clv, std::size_t p) {
  const int cc = l.clv_cats;
  double vmax = 0.0;
  for (int c = 0; c < cc; ++c) {
    for (int s = 0; s < 4; ++s) {
      const double v = clv[l.clv_index(p, c, s)];
      const double a = v < 0.0 ? -v : v;
      if (a > vmax) vmax = a;
    }
  }
  if (vmax >= kScaleThreshold || vmax == 0.0) return 0;
  for (int c = 0; c < cc; ++c)
    for (int s = 0; s < 4; ++s) clv[l.clv_index(p, c, s)] *= kScaleFactor;
  return 1;
}

void scalar_newview_tip_tip(const RateLayout& l, std::size_t begin,
                            std::size_t end, const DnaState* tip_left,
                            const DnaState* tip_right,
                            const double* lookup_left,
                            const double* lookup_right, double* clv,
                            int* scale) {
  for (std::size_t p = begin; p < end; ++p) {
    for (int c = 0; c < l.clv_cats; ++c) {
      const int mc = l.model_cat(p, c);
      const double* tl = lookup_left + mc * 64 + tip_left[p] * 4;
      const double* tr = lookup_right + mc * 64 + tip_right[p] * 4;
      for (int i = 0; i < 4; ++i)
        clv[l.clv_index(p, c, i)] = tl[i] * tr[i];
    }
    scale[p] = maybe_rescale_at(l, clv, p);
  }
}

void scalar_newview_tip_inner(const RateLayout& l, std::size_t begin,
                              std::size_t end, const DnaState* tip_left,
                              const double* lookup_left,
                              const double* clv_right, const int* scale_right,
                              const double* pmat_right, double* clv,
                              int* scale) {
  for (std::size_t p = begin; p < end; ++p) {
    for (int c = 0; c < l.clv_cats; ++c) {
      const int mc = l.model_cat(p, c);
      const double* tl = lookup_left + mc * 64 + tip_left[p] * 4;
      double yr[4];
      for (int s = 0; s < 4; ++s) yr[s] = clv_right[l.clv_index(p, c, s)];
      double xr[4];
      pdotvec(pmat_right + mc * 16, yr, xr);
      for (int i = 0; i < 4; ++i)
        clv[l.clv_index(p, c, i)] = tl[i] * xr[i];
    }
    scale[p] = scale_right[p] + maybe_rescale_at(l, clv, p);
  }
}

void scalar_newview_inner_inner(const RateLayout& l, std::size_t begin,
                                std::size_t end, const double* clv_left,
                                const int* scale_left, const double* pmat_left,
                                const double* clv_right,
                                const int* scale_right,
                                const double* pmat_right, double* clv,
                                int* scale) {
  for (std::size_t p = begin; p < end; ++p) {
    for (int c = 0; c < l.clv_cats; ++c) {
      const int mc = l.model_cat(p, c);
      double yl[4], yr[4];
      for (int s = 0; s < 4; ++s) {
        yl[s] = clv_left[l.clv_index(p, c, s)];
        yr[s] = clv_right[l.clv_index(p, c, s)];
      }
      double xl[4], xr[4];
      pdotvec(pmat_left + mc * 16, yl, xl);
      pdotvec(pmat_right + mc * 16, yr, xr);
      for (int i = 0; i < 4; ++i)
        clv[l.clv_index(p, c, i)] = xl[i] * xr[i];
    }
    scale[p] = scale_left[p] + scale_right[p] + maybe_rescale_at(l, clv, p);
  }
}

double scalar_evaluate_tip_inner(const RateLayout& l, std::size_t begin,
                                 std::size_t end, const double* freqs,
                                 const DnaState* tip_x, const double* lookup_x,
                                 const double* clv_y, const int* scale_y,
                                 const int* weights, double* per_pattern) {
  double lnl = 0.0;
  for (std::size_t p = begin; p < end; ++p) {
    double total = 0.0;
    for (int c = 0; c < l.clv_cats; ++c) {
      const int mc = l.model_cat(p, c);
      // lookup_x rows are P(t) * tip-indicator, i.e. sum_j P_ij x_j; the edge
      // likelihood sums pi_i * y_i * (P x)_i.
      const double* tx = lookup_x + mc * 64 + tip_x[p] * 4;
      double cat = 0.0;
      for (int i = 0; i < 4; ++i)
        cat += freqs[i] * tx[i] * clv_y[l.clv_index(p, c, i)];
      total += l.weight(c) * cat;
    }
    if (total < kMinLikelihood) total = kMinLikelihood;
    const double site_lnl = std::log(total) - scale_y[p] * kLogScaleFactor;
    lnl += weights[p] * site_lnl;
    if (per_pattern != nullptr) per_pattern[p] = site_lnl;
  }
  return lnl;
}

double scalar_evaluate_inner_inner(const RateLayout& l, std::size_t begin,
                                   std::size_t end, const double* freqs,
                                   const double* clv_x, const int* scale_x,
                                   const double* pmat, const double* clv_y,
                                   const int* scale_y, const int* weights,
                                   double* per_pattern) {
  double lnl = 0.0;
  for (std::size_t p = begin; p < end; ++p) {
    double total = 0.0;
    for (int c = 0; c < l.clv_cats; ++c) {
      const int mc = l.model_cat(p, c);
      double yy[4];
      for (int s = 0; s < 4; ++s) yy[s] = clv_y[l.clv_index(p, c, s)];
      double py[4];
      pdotvec(pmat + mc * 16, yy, py);
      double cat = 0.0;
      for (int i = 0; i < 4; ++i)
        cat += freqs[i] * clv_x[l.clv_index(p, c, i)] * py[i];
      total += l.weight(c) * cat;
    }
    if (total < kMinLikelihood) total = kMinLikelihood;
    const double site_lnl =
        std::log(total) - (scale_x[p] + scale_y[p]) * kLogScaleFactor;
    lnl += weights[p] * site_lnl;
    if (per_pattern != nullptr) per_pattern[p] = site_lnl;
  }
  return lnl;
}

void scalar_edge_sumtable_tip_inner(const RateLayout& l, std::size_t begin,
                                    std::size_t end, const double* freqs,
                                    const double* vmat, const double* vinv,
                                    const DnaState* tip_x, const double* clv_y,
                                    double* sumtable) {
  for (std::size_t p = begin; p < end; ++p) {
    double x[4];
    for (int i = 0; i < 4; ++i) x[i] = (tip_x[p] >> i) & 1 ? 1.0 : 0.0;
    for (int c = 0; c < l.clv_cats; ++c) {
      for (int k = 0; k < 4; ++k) {
        double u = 0.0, w = 0.0;
        for (int i = 0; i < 4; ++i) {
          u += freqs[i] * x[i] * vmat[i * 4 + k];
          w += vinv[k * 4 + i] * clv_y[l.clv_index(p, c, i)];
        }
        sumtable[l.sumtable_index(p, c, k)] = u * w;
      }
    }
  }
}

void scalar_edge_sumtable_inner_inner(const RateLayout& l, std::size_t begin,
                                      std::size_t end, const double* freqs,
                                      const double* vmat, const double* vinv,
                                      const double* clv_x, const double* clv_y,
                                      double* sumtable) {
  for (std::size_t p = begin; p < end; ++p) {
    for (int c = 0; c < l.clv_cats; ++c) {
      for (int k = 0; k < 4; ++k) {
        double u = 0.0, w = 0.0;
        for (int i = 0; i < 4; ++i) {
          u += freqs[i] * clv_x[l.clv_index(p, c, i)] * vmat[i * 4 + k];
          w += vinv[k * 4 + i] * clv_y[l.clv_index(p, c, i)];
        }
        sumtable[l.sumtable_index(p, c, k)] = u * w;
      }
    }
  }
}

Derivatives scalar_nr_derivatives(const RateLayout& l, std::size_t begin,
                                  std::size_t end, const double* sumtable,
                                  const double* eigenvalues,
                                  const double* cat_rates, double t,
                                  const int* weights) {
  Derivatives out;
  for (std::size_t p = begin; p < end; ++p) {
    double a = 0.0, a1 = 0.0, a2 = 0.0;
    for (int c = 0; c < l.clv_cats; ++c) {
      const int mc = l.model_cat(p, c);
      const double r = cat_rates[mc];
      const double wc = l.weight(c);
      for (int k = 0; k < 4; ++k) {
        const double lr = eigenvalues[k] * r;
        const double term =
            sumtable[l.sumtable_index(p, c, k)] * std::exp(lr * t);
        a += wc * term;
        a1 += wc * lr * term;
        a2 += wc * lr * lr * term;
      }
    }
    if (a < kMinLikelihood) a = kMinLikelihood;
    const double w = weights[p];
    const double inv = 1.0 / a;
    out.d1 += w * a1 * inv;
    out.d2 += w * (a2 * inv - (a1 * inv) * (a1 * inv));
  }
  return out;
}

constexpr detail::KernelOps kScalarOps = {
    scalar_newview_tip_tip,        scalar_newview_tip_inner,
    scalar_newview_inner_inner,    scalar_evaluate_tip_inner,
    scalar_evaluate_inner_inner,   scalar_edge_sumtable_tip_inner,
    scalar_edge_sumtable_inner_inner, scalar_nr_derivatives,
};

// -------------------------------------------------------------------------
// Member selection
// -------------------------------------------------------------------------

const detail::KernelOps* ops_for(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kGeneric: return detail::ops_generic();
    case KernelIsa::kNeon: return detail::ops_neon();
    case KernelIsa::kAvx512: return detail::ops_avx512();
    default: return &kScalarOps;
  }
}

bool cpu_can_run(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
    case KernelIsa::kGeneric:
      return true;  // compiled at the build's baseline arch
    case KernelIsa::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
    case KernelIsa::kAvx512:
#if defined(__x86_64__) && defined(__GNUC__)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
    default:
      return false;
  }
}

// Active member; -1 = not yet initialized (the first kernel_isa() call
// stores the CPUID pick).
std::atomic<int> g_isa{-1};
std::atomic<std::uint64_t> g_fallbacks{0};

KernelIsa init_isa() {
  int expected = -1;
  g_isa.compare_exchange_strong(expected, static_cast<int>(best_kernel_isa()),
                                std::memory_order_relaxed);
  return static_cast<KernelIsa>(g_isa.load(std::memory_order_relaxed));
}

// One-time loud fallback note (satellite bugfix: the pre-family vector path
// silently fell back to scalar past kMaxCatMatrices, so benches could
// unknowingly measure the wrong kernel).
void note_fallback(const RateLayout& l) {
  g_fallbacks.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::kKernelFallback);
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    log_warn(
        "kernels: layout (ncat_model=%d%s) unsupported by the %s member; "
        "falling back to the scalar reference for such calls (max staged "
        "category matrices: %d). This warning fires once; the "
        "kernel_fallbacks counter keeps counting.",
        l.ncat_model,
        l.pattern_cat != nullptr ? ", per-pattern categories" : "",
        kernel_isa_name(kernel_isa()), kMaxCatMatrices);
  }
}

// The ops table a call with layout `l` must use: the active member, unless
// the layout exceeds what SIMD members support — then the scalar reference,
// loudly.
inline const detail::KernelOps& active_ops(const RateLayout& l) {
  const KernelIsa isa = kernel_isa();
  if (isa == KernelIsa::kScalar) return kScalarOps;
  if (l.ncat_model > kMaxCatMatrices) {
    note_fallback(l);
    return kScalarOps;
  }
  return *ops_for(isa);
}

}  // namespace

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kGeneric: return "generic";
    case KernelIsa::kNeon: return "neon";
    case KernelIsa::kAvx512: return "avx512";
    default: return "?";
  }
}

bool kernel_isa_compiled(KernelIsa isa) {
  if (isa == KernelIsa::kScalar) return true;
  if (isa == KernelIsa::kCount) return false;
  return ops_for(isa) != nullptr;
}

bool kernel_isa_supported(KernelIsa isa) {
  return kernel_isa_compiled(isa) && cpu_can_run(isa);
}

KernelIsa best_kernel_isa() {
  for (int i = kNumKernelIsas - 1; i > 0; --i) {
    const auto isa = static_cast<KernelIsa>(i);
    if (kernel_isa_supported(isa)) return isa;
  }
  return KernelIsa::kScalar;
}

bool set_kernel_isa(KernelIsa isa) {
  if (!kernel_isa_supported(isa)) return false;
  g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

KernelIsa kernel_isa() {
  const int cur = g_isa.load(std::memory_order_relaxed);
  if (cur >= 0) return static_cast<KernelIsa>(cur);
  return init_isa();
}

bool parse_kernel_isa(std::string_view name, KernelIsa* out) {
  if (name == "auto") {
    *out = best_kernel_isa();
    return true;
  }
  for (int i = 0; i < kNumKernelIsas; ++i) {
    const auto isa = static_cast<KernelIsa>(i);
    if (name == kernel_isa_name(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

std::string kernel_isa_list() {
  std::string out;
  for (int i = 0; i < kNumKernelIsas; ++i) {
    const auto isa = static_cast<KernelIsa>(i);
    if (!out.empty()) out += ' ';
    if (kernel_isa_supported(isa)) {
      out += kernel_isa_name(isa);
    } else {
      out += '(';
      out += kernel_isa_name(isa);
      out += kernel_isa_compiled(isa) ? ": unsupported on this cpu)"
                                      : ": not compiled in)";
    }
  }
  return out;
}

std::uint64_t fallback_count() {
  return g_fallbacks.load(std::memory_order_relaxed);
}

std::string to_json_section() {
  std::string out = "\"kernel\":{\"isa\":\"";
  out += kernel_isa_name(kernel_isa());
  out += "\",\"best\":\"";
  out += kernel_isa_name(best_kernel_isa());
  out += "\",\"fallbacks\":";
  out += std::to_string(fallback_count());
  out += '}';
  return out;
}

void build_tip_lookup(const double* pmats, int ncat, double* lookup,
                      std::uint16_t masks) {
  for (int c = 0; c < ncat; ++c) {
    const double* p = pmats + c * 16;
    for (int mask = 0; mask < 16; ++mask)
      if ((masks >> mask) & 1)
        pdotmask(p, static_cast<DnaState>(mask), lookup + c * 64 + mask * 4);
  }
}

// -------------------------------------------------------------------------
// Public dispatch
// -------------------------------------------------------------------------

void newview_tip_tip(const RateLayout& layout, std::size_t begin,
                     std::size_t end, const DnaState* tip_left,
                     const DnaState* tip_right, const double* lookup_left,
                     const double* lookup_right, double* clv, int* scale) {
  active_ops(layout).newview_tip_tip(layout, begin, end, tip_left, tip_right,
                                     lookup_left, lookup_right, clv, scale);
}

void newview_tip_inner(const RateLayout& layout, std::size_t begin,
                       std::size_t end, const DnaState* tip_left,
                       const double* lookup_left, const double* clv_right,
                       const int* scale_right, const double* pmat_right,
                       double* clv, int* scale) {
  active_ops(layout).newview_tip_inner(layout, begin, end, tip_left,
                                       lookup_left, clv_right, scale_right,
                                       pmat_right, clv, scale);
}

void newview_inner_inner(const RateLayout& layout, std::size_t begin,
                         std::size_t end, const double* clv_left,
                         const int* scale_left, const double* pmat_left,
                         const double* clv_right, const int* scale_right,
                         const double* pmat_right, double* clv, int* scale) {
  active_ops(layout).newview_inner_inner(
      layout, begin, end, clv_left, scale_left, pmat_left, clv_right,
      scale_right, pmat_right, clv, scale);
}

double evaluate_tip_inner(const RateLayout& layout, std::size_t begin,
                          std::size_t end, const double* freqs,
                          const DnaState* tip_x, const double* lookup_x,
                          const double* clv_y, const int* scale_y,
                          const int* weights, double* per_pattern) {
  return active_ops(layout).evaluate_tip_inner(layout, begin, end, freqs,
                                               tip_x, lookup_x, clv_y, scale_y,
                                               weights, per_pattern);
}

double evaluate_inner_inner(const RateLayout& layout, std::size_t begin,
                            std::size_t end, const double* freqs,
                            const double* clv_x, const int* scale_x,
                            const double* pmat, const double* clv_y,
                            const int* scale_y, const int* weights,
                            double* per_pattern) {
  return active_ops(layout).evaluate_inner_inner(layout, begin, end, freqs,
                                                 clv_x, scale_x, pmat, clv_y,
                                                 scale_y, weights,
                                                 per_pattern);
}

void edge_sumtable_tip_inner(const RateLayout& layout, std::size_t begin,
                             std::size_t end, const double* freqs,
                             const double* vmat, const double* vinv,
                             const DnaState* tip_x, const double* clv_y,
                             double* sumtable) {
  active_ops(layout).edge_sumtable_tip_inner(layout, begin, end, freqs, vmat,
                                             vinv, tip_x, clv_y, sumtable);
}

void edge_sumtable_inner_inner(const RateLayout& layout, std::size_t begin,
                               std::size_t end, const double* freqs,
                               const double* vmat, const double* vinv,
                               const double* clv_x, const double* clv_y,
                               double* sumtable) {
  active_ops(layout).edge_sumtable_inner_inner(layout, begin, end, freqs,
                                               vmat, vinv, clv_x, clv_y,
                                               sumtable);
}

Derivatives nr_derivatives(const RateLayout& layout, std::size_t begin,
                           std::size_t end, const double* sumtable,
                           const double* eigenvalues, const double* cat_rates,
                           double t, const int* weights) {
  return active_ops(layout).nr_derivatives(layout, begin, end, sumtable,
                                           eigenvalues, cat_rates, t,
                                           weights);
}

}  // namespace raxh::kern
