// Kernel-family plumbing and kernel-level parity: member selection (S2
// bugfix: set_kernel_isa must reject unsupported members instead of lying on
// read), the loud scalar fallback past kMaxCatMatrices (S1 bugfix: one-time
// [WRN] + kKernelFallback obs counter), and bitwise agreement of every
// compiled-and-supported member with the scalar reference across rate models
// (GAMMA / CAT) and pattern counts, over the full
// newview/evaluate/sumtable/derivative trio and on derivative ranges that
// cut 4-pattern sumtable blocks, and tip lookups built only for the masks an
// alignment holds against the full 16-mask lookups.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bio/patterns.h"
#include "likelihood/kernels.h"
#include "model/gtr.h"
#include "obs/obs.h"
#include "util/prng.h"

namespace raxh {
namespace {

struct ScopedIsa {
  explicit ScopedIsa(kern::KernelIsa isa) : prev(kern::kernel_isa()) {
    EXPECT_TRUE(kern::set_kernel_isa(isa))
        << kern::kernel_isa_name(isa) << " not supported";
  }
  ~ScopedIsa() { kern::set_kernel_isa(prev); }
  kern::KernelIsa prev;
};

std::vector<kern::KernelIsa> simd_isas() {
  std::vector<kern::KernelIsa> out;
  for (int i = 1; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    if (kern::kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

// ---------------------------------------------------------------------------
// A full chain through the trio with deterministic pseudo-random inputs.
// ---------------------------------------------------------------------------

struct Shape {
  bool gamma = true;   // GAMMA: ncat=4, clv_cats=4; CAT: ncat=5, clv_cats=1
  std::size_t npat = 37;
};

struct ChainOut {
  std::vector<double> clv1, clv2, clv3, st_ti, st_ii, pp_ti, pp_ii;
  std::vector<int> s1, s2, s3;
  double lnl_ti = 0.0, lnl_ii = 0.0;
  kern::Derivatives d;
};

ChainOut run_chain(const Shape& sh) {
  const std::size_t npat = sh.npat;
  const int ncat = sh.gamma ? 4 : 5;

  std::vector<int> pcat;
  std::vector<double> cw;
  kern::RateLayout l;
  l.ncat_model = ncat;
  l.clv_cats = sh.gamma ? ncat : 1;
  if (sh.gamma) {
    cw.assign(4, 0.25);
    l.cat_weights = cw.data();
  } else {
    pcat.resize(npat);
    for (std::size_t p = 0; p < npat; ++p)
      pcat[p] = static_cast<int>(p % static_cast<std::size_t>(ncat));
    l.pattern_cat = pcat.data();
  }
  const std::size_t stride = l.clv_stride(npat);

  Lcg r(1234);
  auto rnd = [&r] { return 0.05 + r.next_double(); };
  std::vector<DnaState> tipA(npat), tipB(npat), tipC(npat);
  for (std::size_t p = 0; p < npat; ++p) {
    tipA[p] = static_cast<DnaState>(p * 7 % 15 + 1);
    tipB[p] = static_cast<DnaState>(p * 5 % 15 + 1);
    tipC[p] = static_cast<DnaState>(p * 11 % 15 + 1);
  }
  std::vector<double> pmat1(ncat * 16), pmat2(ncat * 16), pmat3(ncat * 16);
  for (auto& v : pmat1) v = rnd();
  for (auto& v : pmat2) v = rnd();
  for (auto& v : pmat3) v = rnd();
  std::vector<double> lk1(ncat * 64), lk2(ncat * 64), lk3(ncat * 64);
  kern::build_tip_lookup(pmat1.data(), ncat, lk1.data());
  kern::build_tip_lookup(pmat2.data(), ncat, lk2.data());
  kern::build_tip_lookup(pmat3.data(), ncat, lk3.data());

  const double freqs[4] = {0.26, 0.24, 0.27, 0.23};
  std::vector<int> weights(npat);
  for (std::size_t p = 0; p < npat; ++p)
    weights[p] = 1 + static_cast<int>(p % 3);
  std::vector<double> vmat(16), vinv(16);
  for (auto& v : vmat) v = rnd() - 0.5;
  for (auto& v : vinv) v = rnd() - 0.5;
  const double eigenvalues[4] = {0.0, -0.7, -1.1, -2.2};
  std::vector<double> cat_rates(ncat);
  for (int c = 0; c < ncat; ++c) cat_rates[c] = 0.2 + 0.6 * c;

  ChainOut o;
  o.clv1.assign(stride, 0.0);
  o.clv2.assign(stride, 0.0);
  o.clv3.assign(stride, 0.0);
  o.st_ti.assign(l.sumtable_stride(npat), 0.0);
  o.st_ii.assign(l.sumtable_stride(npat), 0.0);
  o.pp_ti.assign(npat, 0.0);
  o.pp_ii.assign(npat, 0.0);
  o.s1.assign(npat, 0);
  o.s2.assign(npat, 0);
  o.s3.assign(npat, 0);

  kern::newview_tip_tip(l, 0, npat, tipA.data(), tipB.data(), lk1.data(),
                        lk2.data(), o.clv1.data(), o.s1.data());
  kern::newview_tip_inner(l, 0, npat, tipC.data(), lk3.data(), o.clv1.data(),
                          o.s1.data(), pmat2.data(), o.clv2.data(),
                          o.s2.data());
  kern::newview_inner_inner(l, 0, npat, o.clv1.data(), o.s1.data(),
                            pmat1.data(), o.clv2.data(), o.s2.data(),
                            pmat3.data(), o.clv3.data(), o.s3.data());
  o.lnl_ti = kern::evaluate_tip_inner(l, 0, npat, freqs, tipA.data(),
                                      lk1.data(), o.clv3.data(), o.s3.data(),
                                      weights.data(), o.pp_ti.data());
  o.lnl_ii = kern::evaluate_inner_inner(l, 0, npat, freqs, o.clv2.data(),
                                        o.s2.data(), pmat1.data(),
                                        o.clv3.data(), o.s3.data(),
                                        weights.data(), o.pp_ii.data());
  kern::edge_sumtable_tip_inner(l, 0, npat, freqs, vmat.data(), vinv.data(),
                                tipA.data(), o.clv3.data(), o.st_ti.data());
  kern::edge_sumtable_inner_inner(l, 0, npat, freqs, vmat.data(), vinv.data(),
                                  o.clv2.data(), o.clv3.data(),
                                  o.st_ii.data());
  o.d = kern::nr_derivatives(l, 0, npat, o.st_ii.data(), eigenvalues,
                             cat_rates.data(), 0.13, weights.data());
  return o;
}

void expect_bitwise(const ChainOut& got, const ChainOut& want,
                    const std::string& what) {
  EXPECT_EQ(got.clv1, want.clv1) << what;
  EXPECT_EQ(got.clv2, want.clv2) << what;
  EXPECT_EQ(got.clv3, want.clv3) << what;
  EXPECT_EQ(got.st_ti, want.st_ti) << what;
  EXPECT_EQ(got.st_ii, want.st_ii) << what;
  EXPECT_EQ(got.pp_ti, want.pp_ti) << what;
  EXPECT_EQ(got.pp_ii, want.pp_ii) << what;
  EXPECT_EQ(got.s1, want.s1) << what;
  EXPECT_EQ(got.s2, want.s2) << what;
  EXPECT_EQ(got.s3, want.s3) << what;
  EXPECT_EQ(got.lnl_ti, want.lnl_ti) << what;
  EXPECT_EQ(got.lnl_ii, want.lnl_ii) << what;
  EXPECT_EQ(got.d.d1, want.d.d1) << what;
  EXPECT_EQ(got.d.d2, want.d.d2) << what;
}

TEST(KernelFamily, ParityAcrossLayoutsAndModels) {
  const Shape shapes[] = {{true, 37}, {false, 37}, {true, 64}, {false, 64}};
  for (const auto& sh : shapes) {
    const ChainOut want = [&] {
      ScopedIsa guard(kern::KernelIsa::kScalar);
      return run_chain(sh);
    }();
    for (const auto isa : simd_isas()) {
      ScopedIsa guard(isa);
      const ChainOut got = run_chain(sh);
      expect_bitwise(got, want,
                     std::string(kern::kernel_isa_name(isa)) +
                         (sh.gamma ? " GAMMA " : " CAT ") +
                         std::to_string(sh.npat));
    }
  }
}

// ---------------------------------------------------------------------------
// Derivatives on ranges that start or end inside a 4-pattern block.
// ---------------------------------------------------------------------------

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct RangeOut {
  std::vector<double> st_ti, st_ii;
  kern::Derivatives d_ti, d_ii;
};

// Both sumtable writers and the derivatives on [begin, end) under the active
// member. The sumtables start as NaN, so the lanes outside the range (the
// padding included) stay NaN: a writer that wrote one shows in the table,
// and a derivative kernel that folded one returns NaN. The categories of
// the patterns outside the range are far out of bounds, so a kernel that
// read one would index far outside its category table.
RangeOut run_range(const kern::RateLayout& base, std::size_t npat,
                   std::size_t begin, std::size_t end) {
  const int ncat = base.ncat_model;
  kern::RateLayout l = base;
  std::vector<int> pcat(npat, std::numeric_limits<int>::min() / 16);
  for (std::size_t p = begin; p < end; ++p)
    pcat[p] = static_cast<int>(p * 3 % static_cast<std::size_t>(ncat));
  if (l.pattern_cat != nullptr) l.pattern_cat = pcat.data();

  Lcg r(4321);
  auto rnd = [&r] { return 0.05 + r.next_double(); };
  std::vector<double> clv_x(l.clv_stride(npat)), clv_y(l.clv_stride(npat));
  for (auto& v : clv_x) v = rnd();
  for (auto& v : clv_y) v = rnd();
  std::vector<DnaState> tip(npat);
  for (std::size_t p = 0; p < npat; ++p)
    tip[p] = static_cast<DnaState>(p * 7 % 15 + 1);
  std::vector<int> weights(npat);
  for (std::size_t p = 0; p < npat; ++p)
    weights[p] = 1 + static_cast<int>(p % 4);
  // A real eigen-decomposition keeps every pattern's likelihood positive,
  // so the reference derivatives are finite.
  GtrParams params;
  params.rates = {1.3, 4.2, 0.8, 1.1, 5.0, 1.0};
  params.freqs = {0.32, 0.18, 0.24, 0.26};
  const GtrModel model(params);
  const double* freqs = model.freqs().data();
  const double* vmat = model.right_vectors().data();
  const double* vinv = model.left_vectors().data();
  const double* eigenvalues = model.eigenvalues().data();
  std::vector<double> cat_rates(static_cast<std::size_t>(ncat));
  for (int c = 0; c < ncat; ++c) cat_rates[c] = 0.2 + 0.6 * c;

  RangeOut o;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  o.st_ti.assign(l.sumtable_stride(npat), nan);
  o.st_ii.assign(l.sumtable_stride(npat), nan);
  kern::edge_sumtable_tip_inner(l, begin, end, freqs, vmat, vinv, tip.data(),
                                clv_y.data(), o.st_ti.data());
  kern::edge_sumtable_inner_inner(l, begin, end, freqs, vmat, vinv,
                                  clv_x.data(), clv_y.data(), o.st_ii.data());
  o.d_ti = kern::nr_derivatives(l, begin, end, o.st_ti.data(), eigenvalues,
                                cat_rates.data(), 0.13, weights.data());
  o.d_ii = kern::nr_derivatives(l, begin, end, o.st_ii.data(), eigenvalues,
                                cat_rates.data(), 0.41, weights.data());
  return o;
}

TEST(KernelFamily, DerivativesOnUnalignedRanges) {
  std::vector<double> cw(4, 0.25);
  kern::RateLayout gamma;
  gamma.ncat_model = 4;
  gamma.clv_cats = 4;
  gamma.cat_weights = cw.data();
  const int dummy_cat = 0;
  kern::RateLayout cat;
  cat.ncat_model = 5;
  cat.pattern_cat = &dummy_cat;  // run_range points it at its own table

  for (const std::size_t npat : {std::size_t{37}, std::size_t{64}}) {
    // Ends off the block grid on either side or both, a range inside one
    // block, one that stops one short of the end, and an empty range.
    const std::pair<std::size_t, std::size_t> ranges[] = {
        {0, npat}, {1, npat},     {3, npat - 2}, {5, 7},
        {9, 10},   {2, npat - 1}, {12, 27},      {13, 13}};
    for (const auto* l : {&gamma, &cat}) {
      for (const auto& [b, e] : ranges) {
        const std::string what = std::string(l == &gamma ? "GAMMA" : "CAT") +
                                 " npat " + std::to_string(npat) + " [" +
                                 std::to_string(b) + ", " +
                                 std::to_string(e) + ")";
        const RangeOut want = [&] {
          ScopedIsa guard(kern::KernelIsa::kScalar);
          return run_range(*l, npat, b, e);
        }();
        for (const double v : {want.d_ti.d1, want.d_ti.d2, want.d_ii.d1,
                               want.d_ii.d2})
          EXPECT_TRUE(std::isfinite(v)) << what;
        if (b == e) {
          EXPECT_EQ(want.d_ii.d1, 0.0) << what;
          EXPECT_EQ(want.d_ii.d2, 0.0) << what;
        }
        for (const auto isa : simd_isas()) {
          ScopedIsa guard(isa);
          const RangeOut got = run_range(*l, npat, b, e);
          const std::string who = std::string(kern::kernel_isa_name(isa)) +
                                  " " + what;
          EXPECT_TRUE(same_bits(got.st_ti, want.st_ti)) << who;
          EXPECT_TRUE(same_bits(got.st_ii, want.st_ii)) << who;
          EXPECT_TRUE(same_bits(got.d_ti.d1, want.d_ti.d1)) << who;
          EXPECT_TRUE(same_bits(got.d_ti.d2, want.d_ti.d2)) << who;
          EXPECT_TRUE(same_bits(got.d_ii.d1, want.d_ii.d1)) << who;
          EXPECT_TRUE(same_bits(got.d_ii.d2, want.d_ii.d2)) << who;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tip lookups for the masks that occur.
// ---------------------------------------------------------------------------

struct TipChainOut {
  std::vector<double> clv_tt, clv_ti, per_pattern;
  std::vector<int> s_tt, s_ti;
  double lnl = 0.0;
};

// Tip-tip newview (taxa 0 and 1), tip-inner newview (taxon 2 onto that CLV)
// and tip-inner evaluate (taxon 3 against the second CLV), with every tip
// lookup built for `masks` only. The entries outside `masks` start as NaN,
// so a kernel that read one would carry it into the outputs.
TipChainOut run_tip_chain(const PatternAlignment& pa, const kern::RateLayout& l,
                          std::uint16_t masks) {
  const std::size_t npat = pa.num_patterns();
  GtrParams params;
  params.rates = {1.3, 4.2, 0.8, 1.1, 5.0, 1.0};
  params.freqs = {0.32, 0.18, 0.24, 0.26};
  const GtrModel model(params);
  std::vector<double> rates(static_cast<std::size_t>(l.ncat_model));
  for (std::size_t c = 0; c < rates.size(); ++c) rates[c] = 0.3 + 0.5 * c;

  const auto ncat = static_cast<std::size_t>(l.ncat_model);
  const double lengths[5] = {0.05, 0.21, 0.013, 0.4, 0.09};
  std::vector<std::vector<double>> pmats(5, std::vector<double>(ncat * 16));
  std::vector<std::vector<double>> lookups(
      5, std::vector<double>(ncat * 64,
                             std::numeric_limits<double>::quiet_NaN()));
  for (std::size_t b = 0; b < 5; ++b) {
    model.transition_matrices(lengths[b], rates, pmats[b].data());
    kern::build_tip_lookup(pmats[b].data(), l.ncat_model, lookups[b].data(),
                           masks);
  }

  std::vector<int> weights(npat);
  for (std::size_t p = 0; p < npat; ++p)
    weights[p] = pa.weights()[p];
  TipChainOut o;
  o.clv_tt.assign(l.clv_stride(npat), 0.0);
  o.clv_ti.assign(l.clv_stride(npat), 0.0);
  o.per_pattern.assign(npat, 0.0);
  o.s_tt.assign(npat, 0);
  o.s_ti.assign(npat, 0);
  kern::newview_tip_tip(l, 0, npat, pa.row(0).data(), pa.row(1).data(),
                        lookups[0].data(), lookups[1].data(), o.clv_tt.data(),
                        o.s_tt.data());
  kern::newview_tip_inner(l, 0, npat, pa.row(2).data(), lookups[2].data(),
                          o.clv_tt.data(), o.s_tt.data(), pmats[3].data(),
                          o.clv_ti.data(), o.s_ti.data());
  o.lnl = kern::evaluate_tip_inner(l, 0, npat, model.freqs().data(),
                                   pa.row(3).data(), lookups[4].data(),
                                   o.clv_ti.data(), o.s_ti.data(),
                                   weights.data(), o.per_pattern.data());
  return o;
}

TEST(KernelFamily, OccurringMaskLookupsMatchFullLookups) {
  // Gaps ('-', '?'), N, and two ambiguity codes that each occur in one taxon
  // only: R in taxon 1, Y in taxon 2.
  const std::vector<std::string> text = {
      "ACGTACGTNN--ACGTAAGGCCTTACGTAC",
      "ACGTTCGA-NACGTACGRACCTTACGTTCA",
      "AGGTACGTACGTAC?TACGGCYTTACGAAC",
      "ACCTACGTACNTACGTACGACCTTACGTAC",
      "TCGTACGAACGTACGTACGACCTTTCGTAC",
  };
  std::vector<std::vector<DnaState>> rows;
  for (const auto& t : text) {
    std::vector<DnaState> row;
    for (char ch : t) row.push_back(encode_dna(ch));
    rows.push_back(std::move(row));
  }
  const PatternAlignment pa = PatternAlignment::compress(
      Alignment({"t0", "t1", "t2", "t3", "t4"}, rows));
  std::uint16_t expected = 0;
  for (DnaState s : {kStateA, kStateC, kStateG, kStateT, kStateGap,
                     encode_dna('R'), encode_dna('Y')})
    expected |= static_cast<std::uint16_t>(1u << s);
  ASSERT_EQ(pa.tip_masks(), expected);

  const std::size_t npat = pa.num_patterns();
  std::vector<double> cw(4, 0.25);
  std::vector<int> pcat(npat);
  for (std::size_t p = 0; p < npat; ++p) pcat[p] = static_cast<int>(p % 3);
  kern::RateLayout gamma;
  gamma.ncat_model = 4;
  gamma.clv_cats = 4;
  gamma.cat_weights = cw.data();
  kern::RateLayout cat;
  cat.ncat_model = 3;
  cat.pattern_cat = pcat.data();

  std::vector<kern::KernelIsa> isas = {kern::KernelIsa::kScalar};
  for (const auto isa : simd_isas()) isas.push_back(isa);
  for (const auto isa : isas) {
    ScopedIsa guard(isa);
    for (const auto* l : {&gamma, &cat}) {
      const std::string what = std::string(kern::kernel_isa_name(isa)) +
                               (l == &gamma ? " GAMMA" : " CAT");
      const TipChainOut want = run_tip_chain(pa, *l, kern::kAllTipMasks);
      const TipChainOut got = run_tip_chain(pa, *l, pa.tip_masks());
      EXPECT_TRUE(std::isfinite(want.lnl)) << what;
      EXPECT_TRUE(same_bits(got.clv_tt, want.clv_tt)) << what;
      EXPECT_TRUE(same_bits(got.clv_ti, want.clv_ti)) << what;
      EXPECT_TRUE(same_bits(got.per_pattern, want.per_pattern)) << what;
      EXPECT_EQ(got.s_tt, want.s_tt) << what;
      EXPECT_EQ(got.s_ti, want.s_ti) << what;
      EXPECT_EQ(std::memcmp(&got.lnl, &want.lnl, sizeof got.lnl), 0) << what;
    }
  }
}

TEST(KernelFamily, FallbackPastMaxCatMatricesIsLoudAndCounted) {
  // S1 regression: a SIMD member asked to run a layout with more category
  // matrices than it can stage must fall back to the scalar reference AND
  // say so — fallback_count() plus the kKernelFallback obs counter.
  const auto isas = simd_isas();
  if (isas.empty()) GTEST_SKIP() << "no SIMD member on this build";

  const int ncat = kern::kMaxCatMatrices + 8;
  const std::size_t npat = 8;
  kern::RateLayout l;
  l.ncat_model = ncat;
  l.clv_cats = ncat;
  std::vector<double> cw(ncat, 1.0 / ncat);
  l.cat_weights = cw.data();

  std::vector<DnaState> tipA(npat), tipB(npat);
  for (std::size_t p = 0; p < npat; ++p) {
    tipA[p] = static_cast<DnaState>(p % 15 + 1);
    tipB[p] = static_cast<DnaState>((p * 3) % 15 + 1);
  }
  Lcg r(7);
  std::vector<double> pmat(ncat * 16);
  for (auto& v : pmat) v = 0.05 + r.next_double();
  std::vector<double> lookup(ncat * 64);
  kern::build_tip_lookup(pmat.data(), ncat, lookup.data());
  std::vector<double> clv(l.clv_stride(npat), 0.0);
  std::vector<int> scale(npat, 0);

  const std::vector<double> want_clv = [&] {
    ScopedIsa guard(kern::KernelIsa::kScalar);
    std::vector<double> out(l.clv_stride(npat), 0.0);
    std::vector<int> s(npat, 0);
    kern::newview_tip_tip(l, 0, npat, tipA.data(), tipB.data(), lookup.data(),
                          lookup.data(), out.data(), s.data());
    return out;
  }();

  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto before = obs::counters_snapshot();
  const std::uint64_t before_fb = kern::fallback_count();

  ScopedIsa guard(isas.front());
  kern::newview_tip_tip(l, 0, npat, tipA.data(), tipB.data(), lookup.data(),
                        lookup.data(), clv.data(), scale.data());

  const auto after = obs::counters_snapshot();
  obs::set_enabled(obs_was_enabled);
  EXPECT_EQ(kern::fallback_count(), before_fb + 1);
  EXPECT_GE(after[obs::Counter::kKernelFallback] -
                before[obs::Counter::kKernelFallback],
            std::uint64_t{1});
  // The fallback must still produce the scalar answer, bitwise.
  EXPECT_EQ(clv, want_clv);
}

TEST(KernelFamily, SetKernelIsaRejectsUnsupported) {
  // S2 regression: selecting an unavailable member must fail loudly (false)
  // and leave the effective member unchanged — the old set_kernel_mode
  // "succeeded" on non-GNU builds while kernel_mode() kept reading kScalar.
  const kern::KernelIsa before = kern::kernel_isa();
  bool found_unsupported = false;
  for (int i = 1; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    if (kern::kernel_isa_supported(isa)) continue;
    found_unsupported = true;
    EXPECT_FALSE(kern::set_kernel_isa(isa)) << kern::kernel_isa_name(isa);
    EXPECT_EQ(kern::kernel_isa(), before) << kern::kernel_isa_name(isa);
  }
  // NEON and AVX-512 cannot both be supported on one machine, so at least
  // one member is always rejectable.
  EXPECT_TRUE(found_unsupported);

  // Supported selections stick and read back as themselves.
  EXPECT_TRUE(kern::set_kernel_isa(kern::KernelIsa::kScalar));
  EXPECT_EQ(kern::kernel_isa(), kern::KernelIsa::kScalar);
  EXPECT_TRUE(kern::set_kernel_isa(before));
  EXPECT_EQ(kern::kernel_isa(), before);
}

TEST(KernelFamily, ParseNamesAndList) {
  for (int i = 0; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    kern::KernelIsa out;
    EXPECT_TRUE(kern::parse_kernel_isa(kern::kernel_isa_name(isa), &out));
    EXPECT_EQ(out, isa);
  }
  kern::KernelIsa out;
  EXPECT_TRUE(kern::parse_kernel_isa("auto", &out));
  EXPECT_EQ(out, kern::best_kernel_isa());
  EXPECT_FALSE(kern::parse_kernel_isa("AVX2", &out));
  EXPECT_FALSE(kern::parse_kernel_isa("avx2", &out));
  EXPECT_FALSE(kern::parse_kernel_isa("sse9", &out));
  EXPECT_NE(kern::kernel_isa_list().find("scalar"), std::string::npos);
}

TEST(KernelFamily, JsonSectionReportsEffectiveMember) {
  // S2: the metrics/BENCH JSON must carry the mode actually running, not the
  // mode last requested.
  {
    ScopedIsa guard(kern::KernelIsa::kScalar);
    EXPECT_NE(kern::to_json_section().find("\"isa\":\"scalar\""),
              std::string::npos);
  }
  const std::string effective = kern::kernel_isa_name(kern::kernel_isa());
  EXPECT_NE(kern::to_json_section().find("\"isa\":\"" + effective + "\""),
            std::string::npos);
  EXPECT_NE(kern::to_json_section().find("\"fallbacks\":"), std::string::npos);
}

}  // namespace
}  // namespace raxh
