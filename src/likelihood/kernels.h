// Raw per-pattern-range likelihood kernels (the "newview / evaluate /
// derivative" trio of RAxML). All functions operate on a contiguous pattern
// range [begin, end), which is the unit the thread crew stripes across
// workers. No kernel allocates or synchronizes; the engine owns buffers and
// dispatch.
//
// Conventions:
//  * CLVs are pattern-major: clv[((p * clv_cats) + c) * 4 + state], so the
//    4 states of one (pattern, category) are one contiguous vector. Values
//    are scaled by kScaleFactor^scale[p] to dodge underflow.
//  * Sumtables are engine scratch, not CLVs, and are stored in 4-pattern
//    blocks (RateLayout::sumtable_index), so the 4 patterns of one
//    (block, category, eigen-term) are one contiguous vector.
//  * Tip data are 4-bit IUPAC masks; tip "CLV" entries are 0/1 indicators.
//  * `RateLayout` abstracts GAMMA (all categories per pattern) vs CAT (one
//    category per pattern, chosen by pattern_cat).
//
// Kernel family: one scalar reference implementation plus SIMD members
// (generic baseline, AVX-512, NEON) built from a single shared source
// (kernels_impl.inl) compiled per-ISA. The CLV kernels put vector lanes on
// the 4 states of one (pattern, category); the Newton derivatives put them
// on the 4 patterns of a sumtable block. Every member keeps the scalar
// operation order per lane and is compiled without FMA contraction, so all
// members produce BITWISE-identical results on a given host — asserted by
// tests/test_simd.cpp and tests/test_kernel_family.cpp. The active member is
// selected by CPUID at startup (best supported wins) and can be overridden
// with set_kernel_isa() or raxh's `--kernels=` flag (RAXH_KERNELS is that
// flag's default value).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "bio/dna.h"

namespace raxh::kern {

inline constexpr double kScaleThreshold = 1.0 / 1.329227995784916e+36 /
                                          1.329227995784916e+36 /
                                          1.329227995784916e+36 /
                                          1.329227995784916e+36;  // 2^-480
inline constexpr double kScaleFactor = 1.329227995784916e+36 *
                                       1.329227995784916e+36 *
                                       1.329227995784916e+36 *
                                       1.329227995784916e+36;  // 2^480
// log(kScaleFactor): each scale count contributes -480*ln2 to the true lnL.
inline constexpr double kLogScaleFactor = 332.7106466687737;

// ---------------------------------------------------------------------------
// Kernel family selection
// ---------------------------------------------------------------------------

// Implementation members, ordered worst-to-best so best_kernel_isa() can
// pick the highest supported one.
enum class KernelIsa : int {
  kScalar = 0,  // reference loops; always available
  kGeneric,     // GCC vector extensions at the build's baseline arch
  kNeon,        // aarch64 Advanced SIMD
  kAvx512,      // x86-64 with 512-bit vectors (F+VL)
  kCount
};
inline constexpr int kNumKernelIsas = static_cast<int>(KernelIsa::kCount);

// Stable lowercase name ("scalar", "generic", "neon", "avx512").
[[nodiscard]] const char* kernel_isa_name(KernelIsa isa);

// True if the member's translation unit was built into this binary.
[[nodiscard]] bool kernel_isa_compiled(KernelIsa isa);
// True if compiled AND this machine can execute it (CPUID / arch check).
[[nodiscard]] bool kernel_isa_supported(KernelIsa isa);
// Best supported member on this machine (>= kScalar, usually better).
[[nodiscard]] KernelIsa best_kernel_isa();

// Select the active member. Returns false — and leaves the active member
// UNCHANGED — if `isa` is not supported on this machine, so callers cannot
// end up believing a mode is active that reads back as something else
// (kernel_isa() always reports the effective member). Process-wide; not
// meant to be toggled concurrently with running kernels.
bool set_kernel_isa(KernelIsa isa);

// The effective active member: best_kernel_isa() until set_kernel_isa()
// picks another.
[[nodiscard]] KernelIsa kernel_isa();

// Parse "scalar" | "generic" | "neon" | "avx512" | "auto"
// (case-sensitive). "auto" yields best_kernel_isa(). Returns false on
// unknown names.
bool parse_kernel_isa(std::string_view name, KernelIsa* out);

// Space-separated list of members with availability markers, e.g.
// "scalar generic (neon: not compiled in) avx512" — for --help and
// error messages.
[[nodiscard]] std::string kernel_isa_list();

// `"kernel":{...}` JSON fragment reporting the effective member, the best
// supported member, and the fallback count — embedded in --metrics-out
// documents and BENCH_*.json summaries so a bench can never unknowingly
// report numbers from a different kernel than it claims.
[[nodiscard]] std::string to_json_section();

// Number of times a SIMD member had to fall back to the scalar reference
// because layout.ncat_model exceeded kMaxCatMatrices (mirrors the
// obs::Counter::kKernelFallback counter, but is available with obs disabled).
[[nodiscard]] std::uint64_t fallback_count();

// Upper bound on per-category P matrices the SIMD members stage on the
// stack; layouts with more categories fall back to the scalar reference.
// The fallback is LOUD: a one-time [WRN] plus the kKernelFallback obs
// counter, so benches can't unknowingly measure the wrong kernel.
inline constexpr int kMaxCatMatrices = 32;

// ---------------------------------------------------------------------------
// Rate layout
// ---------------------------------------------------------------------------

struct RateLayout {
  int ncat_model = 1;   // number of per-category P matrices / rates
  int clv_cats = 1;     // categories stored per pattern (GAMMA: ncat, CAT: 1)
  const int* pattern_cat = nullptr;  // CAT: pattern -> model category
  const double* cat_weights = nullptr;  // GAMMA: per-category weights

  // Model category of storage category c for pattern p.
  [[nodiscard]] int model_cat(std::size_t p, int c) const {
    return pattern_cat != nullptr ? pattern_cat[p] : c;
  }
  [[nodiscard]] double weight(int c) const {
    return cat_weights != nullptr ? cat_weights[c] : 1.0;
  }

  // Index of (pattern, category, state) in a CLV.
  [[nodiscard]] std::size_t clv_index(std::size_t p, int c, int s) const {
    return (p * static_cast<std::size_t>(clv_cats) + c) * 4 + s;
  }
  // Doubles per CLV slot for `npatterns` patterns.
  [[nodiscard]] std::size_t clv_stride(std::size_t npatterns) const {
    return npatterns * static_cast<std::size_t>(clv_cats) * 4;
  }

  // Index of (pattern, category, eigen-term k) in a sumtable: 4-pattern
  // blocks, so the 4 patterns of one (block, category, k) are contiguous
  // and the derivative kernels can put one vector lane on each pattern.
  [[nodiscard]] std::size_t sumtable_index(std::size_t p, int c,
                                           int k) const {
    return ((p / 4) * static_cast<std::size_t>(clv_cats) + c) * 16 + k * 4 +
           p % 4;
  }
  // Doubles per sumtable for `npatterns` patterns: the pattern count
  // rounded up to whole blocks. The derivative kernels compute the padding
  // lanes of a partial block but never fold them; the engine zeroes them.
  [[nodiscard]] std::size_t sumtable_stride(std::size_t npatterns) const {
    return clv_stride((npatterns + 3) / 4 * 4);
  }
};

// Every IUPAC mask 0..15, as a tip-mask set (bit m = mask m).
inline constexpr std::uint16_t kAllTipMasks = 0xFFFF;

// Precomputed P * tip-indicator products: lookup[cat*64 + mask*4 + i] =
// sum_{j in mask} P_cat[i][j]. Built once per (edge length, model) by the
// engine; kernels index it by the tip's 4-bit mask. Only the masks in
// `masks` are written (the engine passes PatternAlignment::tip_masks(), the
// masks its tip rows hold); the other entries keep whatever they held.
void build_tip_lookup(const double* pmats, int ncat, double* lookup,
                      std::uint16_t masks = kAllTipMasks);

// --- newview: fill the CLV at a node from its two children ---

void newview_tip_tip(const RateLayout& layout, std::size_t begin,
                     std::size_t end, const DnaState* tip_left,
                     const DnaState* tip_right, const double* lookup_left,
                     const double* lookup_right, double* clv, int* scale);

void newview_tip_inner(const RateLayout& layout, std::size_t begin,
                       std::size_t end, const DnaState* tip_left,
                       const double* lookup_left, const double* clv_right,
                       const int* scale_right, const double* pmat_right,
                       double* clv, int* scale);

void newview_inner_inner(const RateLayout& layout, std::size_t begin,
                         std::size_t end, const double* clv_left,
                         const int* scale_left, const double* pmat_left,
                         const double* clv_right, const int* scale_right,
                         const double* pmat_right, double* clv, int* scale);

// --- evaluate: log-likelihood across an edge ---

// x side is a tip (mask + lookup built from the edge P matrices); y side is a
// CLV. Returns the weighted lnL of the range; if per_pattern != nullptr also
// writes each pattern's unweighted lnL.
double evaluate_tip_inner(const RateLayout& layout, std::size_t begin,
                          std::size_t end, const double* freqs,
                          const DnaState* tip_x, const double* lookup_x,
                          const double* clv_y, const int* scale_y,
                          const int* weights, double* per_pattern);

// Both sides are CLVs; the edge P matrices multiply the y side.
double evaluate_inner_inner(const RateLayout& layout, std::size_t begin,
                            std::size_t end, const double* freqs,
                            const double* clv_x, const int* scale_x,
                            const double* pmat, const double* clv_y,
                            const int* scale_y, const int* weights,
                            double* per_pattern);

// --- Newton-Raphson support across an edge ---

// sumtable[p][c][k] = (sum_i pi_i x_i V_ik) * (sum_j Vinv_kj y_j): the edge
// likelihood becomes L(t) = sum_k sumtable_k * exp(lambda_k * r_c * t),
// making the branch-length derivatives analytic. The sumtable is indexed
// by RateLayout::sumtable_index (4-pattern blocks), and each writer fills
// only the patterns in [begin, end).
void edge_sumtable_tip_inner(const RateLayout& layout, std::size_t begin,
                             std::size_t end, const double* freqs,
                             const double* vmat, const double* vinv,
                             const DnaState* tip_x, const double* clv_y,
                             double* sumtable);

void edge_sumtable_inner_inner(const RateLayout& layout, std::size_t begin,
                               std::size_t end, const double* freqs,
                               const double* vmat, const double* vinv,
                               const double* clv_x, const double* clv_y,
                               double* sumtable);

// First and second derivative of the range's weighted lnL with respect to
// the branch length t: the two numbers a Newton step needs (RAxML's
// makenewz). The CLV scale factors cancel out of both ratios, so the
// sumtable's scale counts are not needed.
struct Derivatives {
  double d1 = 0.0;
  double d2 = 0.0;
};
Derivatives nr_derivatives(const RateLayout& layout, std::size_t begin,
                           std::size_t end, const double* sumtable,
                           const double* eigenvalues, const double* cat_rates,
                           double t, const int* weights);

// ---------------------------------------------------------------------------
// Implementation plumbing (kernels.cpp + per-ISA translation units)
// ---------------------------------------------------------------------------

namespace detail {

// Per-member table of the full trio. Signatures mirror the free functions.
struct KernelOps {
  void (*newview_tip_tip)(const RateLayout&, std::size_t, std::size_t,
                          const DnaState*, const DnaState*, const double*,
                          const double*, double*, int*);
  void (*newview_tip_inner)(const RateLayout&, std::size_t, std::size_t,
                            const DnaState*, const double*, const double*,
                            const int*, const double*, double*, int*);
  void (*newview_inner_inner)(const RateLayout&, std::size_t, std::size_t,
                              const double*, const int*, const double*,
                              const double*, const int*, const double*,
                              double*, int*);
  double (*evaluate_tip_inner)(const RateLayout&, std::size_t, std::size_t,
                               const double*, const DnaState*, const double*,
                               const double*, const int*, const int*,
                               double*);
  double (*evaluate_inner_inner)(const RateLayout&, std::size_t, std::size_t,
                                 const double*, const double*, const int*,
                                 const double*, const double*, const int*,
                                 const int*, double*);
  void (*edge_sumtable_tip_inner)(const RateLayout&, std::size_t, std::size_t,
                                  const double*, const double*, const double*,
                                  const DnaState*, const double*, double*);
  void (*edge_sumtable_inner_inner)(const RateLayout&, std::size_t,
                                    std::size_t, const double*, const double*,
                                    const double*, const double*,
                                    const double*, double*);
  Derivatives (*nr_derivatives)(const RateLayout&, std::size_t, std::size_t,
                                const double*, const double*, const double*,
                                double, const int*);
};

// Implemented in the per-ISA TUs; returns nullptr when not compiled in.
[[nodiscard]] const KernelOps* ops_generic();
[[nodiscard]] const KernelOps* ops_avx512();
[[nodiscard]] const KernelOps* ops_neon();

}  // namespace detail

}  // namespace raxh::kern
