// Microbenchmarks of the likelihood kernels (google-benchmark): per-pattern
// cost of newview / evaluate / NR derivatives under CAT and GAMMA. These are
// the calibration inputs behind the performance model's assumption that
// search-unit cost is proportional to the pattern count. BM_FillPmats and
// BM_TipLookup time the serial setup the calling thread runs before each
// newview and evaluate while the crew waits; BM_NrDerivatives times the
// Newton derivative kernel alone.
//
// Before the gbench suites, a kernel-member table runs a full-retraversal
// evaluate for every supported family member and reports the gated headline
// speedup in BENCH_kernels.json: the best member vs the scalar reference on
// a GAMMA newview-heavy workload (gate: >= 1.5x).
#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <string>
#include <vector>

#define RAXH_BENCH_WITH_GBENCH
#include "bench_util.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "likelihood/kernels.h"
#include "tree/tree.h"
#include "util/prng.h"

namespace {

using namespace raxh;

struct KernelFixture {
  explicit KernelFixture(std::size_t patterns_target, bool gamma) {
    SimConfig cfg;
    cfg.taxa = 24;
    cfg.distinct_sites = patterns_target;
    cfg.total_sites = patterns_target;
    cfg.seed = 99;
    sim = simulate_alignment(cfg);
    patterns = PatternAlignment::compress(sim.alignment);
    GtrParams gtr;
    gtr.freqs = patterns.empirical_frequencies();
    engine = std::make_unique<LikelihoodEngine>(
        patterns, gtr,
        gamma ? RateModel::gamma(0.7)
              : RateModel::cat(patterns.num_patterns()));
    tree = std::make_unique<Tree>(
        Tree::parse_newick(sim.true_tree_newick, patterns.names()));
  }

  SimResult sim;
  PatternAlignment patterns;
  std::unique_ptr<LikelihoodEngine> engine;
  std::unique_ptr<Tree> tree;
};

void BM_EvaluateFull(benchmark::State& state) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)),
                  state.range(1) != 0);
  for (auto _ : state) {
    f.engine->invalidate_all();
    benchmark::DoNotOptimize(f.engine->evaluate(*f.tree));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(f.patterns.num_patterns()) *
                          static_cast<long>(f.patterns.num_taxa()));
  state.counters["patterns"] =
      static_cast<double>(f.patterns.num_patterns());
}
BENCHMARK(BM_EvaluateFull)
    ->Args({256, 0})
    ->Args({1024, 0})
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_EvaluateCached(benchmark::State& state) {
  KernelFixture f(512, false);
  f.engine->evaluate(*f.tree);
  for (auto _ : state)
    benchmark::DoNotOptimize(f.engine->evaluate(*f.tree));
  // Cached path recomputes nothing: measures evaluate kernel + validation.
}
BENCHMARK(BM_EvaluateCached)->Unit(benchmark::kMicrosecond);

void BM_BranchOptimize(benchmark::State& state) {
  KernelFixture f(512, state.range(0) != 0);
  const int edge = f.tree->edges()[5];
  for (auto _ : state)
    benchmark::DoNotOptimize(f.engine->optimize_branch(*f.tree, edge));
}
BENCHMARK(BM_BranchOptimize)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_PerPatternLnl(benchmark::State& state) {
  KernelFixture f(1024, false);
  std::vector<double> out(f.patterns.num_patterns());
  for (auto _ : state) {
    f.engine->per_pattern_lnl(*f.tree, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PerPatternLnl)->Unit(benchmark::kMicrosecond);

void BM_CatRateOptimization(benchmark::State& state) {
  KernelFixture f(256, false);
  for (auto _ : state)
    benchmark::DoNotOptimize(f.engine->optimize_cat_rates(*f.tree));
}
BENCHMARK(BM_CatRateOptimization)->Unit(benchmark::kMillisecond);

GtrModel setup_model() {
  GtrParams gtr;
  gtr.rates = {1.3, 4.2, 0.8, 1.1, 5.0, 1.0};
  gtr.freqs = {0.32, 0.18, 0.24, 0.26};
  return GtrModel(gtr);
}

std::vector<double> setup_rates(int ncat) {
  std::vector<double> rates(static_cast<std::size_t>(ncat));
  for (std::size_t c = 0; c < rates.size(); ++c) rates[c] = 0.05 + 0.2 * c;
  return rates;
}

// One branch's P matrices, all categories in one batched fill. Arg: rate
// categories (25 = the CAT cap, 4 = GAMMA).
void BM_FillPmats(benchmark::State& state) {
  const GtrModel model = setup_model();
  const auto rates = setup_rates(static_cast<int>(state.range(0)));
  std::vector<double> pmats(rates.size() * 16);
  double t = 0.01;
  for (auto _ : state) {
    model.transition_matrices(t, rates, pmats.data());
    benchmark::DoNotOptimize(pmats.data());
    benchmark::ClobberMemory();
    t = t < 1.0 ? t * 1.07 : 0.01;
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(rates.size()));
}
BENCHMARK(BM_FillPmats)->Arg(25)->Arg(4);

// One branch's tip lookup. Args: rate categories; 0 = all 16 masks, 1 = the
// five masks of a typical alignment (A, C, G, T and the gap).
void BM_TipLookup(benchmark::State& state) {
  const int ncat = static_cast<int>(state.range(0));
  const auto rates = setup_rates(ncat);
  std::vector<double> pmats(rates.size() * 16);
  setup_model().transition_matrices(0.1, rates, pmats.data());
  const std::uint16_t masks =
      state.range(1) == 0
          ? kern::kAllTipMasks
          : static_cast<std::uint16_t>((1u << kStateA) | (1u << kStateC) |
                                       (1u << kStateG) | (1u << kStateT) |
                                       (1u << kStateGap));
  std::vector<double> lookup(rates.size() * 64);
  for (auto _ : state) {
    kern::build_tip_lookup(pmats.data(), ncat, lookup.data(), masks);
    benchmark::DoNotOptimize(lookup.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TipLookup)->Args({25, 0})->Args({25, 1})->Args({4, 0})->Args({4, 1});

// One Newton step's branch-length derivatives over a whole edge: the
// nr_derivatives kernel on 810 patterns (two short of a whole 4-pattern
// block, so the tail path runs too), serial. Args: rate categories; 1 =
// GAMMA (all categories per pattern), 0 = CAT (one category per pattern).
// BENCH_kernels.json carries its ns_per_pattern.
void BM_NrDerivatives(benchmark::State& state) {
  constexpr std::size_t kPatterns = 810;
  const int ncat = static_cast<int>(state.range(0));
  const bool gamma = state.range(1) != 0;
  const GtrModel model = setup_model();
  const auto rates = setup_rates(ncat);
  std::vector<double> cat_weights(static_cast<std::size_t>(ncat), 1.0 / ncat);
  std::vector<int> pattern_cat(kPatterns);
  std::vector<int> weights(kPatterns);
  Lcg r(2024);
  for (std::size_t p = 0; p < kPatterns; ++p) {
    pattern_cat[p] = r.next_below(ncat);
    weights[p] = 1 + r.next_below(3);
  }
  kern::RateLayout l;
  l.ncat_model = ncat;
  l.clv_cats = gamma ? ncat : 1;
  if (gamma)
    l.cat_weights = cat_weights.data();
  else
    l.pattern_cat = pattern_cat.data();
  std::vector<double> clv_x(l.clv_stride(kPatterns));
  std::vector<double> clv_y(l.clv_stride(kPatterns));
  for (auto& v : clv_x) v = 0.01 + r.next_double();
  for (auto& v : clv_y) v = 0.01 + r.next_double();
  std::vector<double> sumtable(l.sumtable_stride(kPatterns), 0.0);
  kern::edge_sumtable_inner_inner(
      l, 0, kPatterns, model.freqs().data(), model.right_vectors().data(),
      model.left_vectors().data(), clv_x.data(), clv_y.data(),
      sumtable.data());
  double t = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::nr_derivatives(
        l, 0, kPatterns, sumtable.data(), model.eigenvalues().data(),
        rates.data(), t, weights.data()));
    t = t < 1.0 ? t * 1.07 : 0.01;
  }
  state.counters["patterns"] = kPatterns;
}
BENCHMARK(BM_NrDerivatives)->Args({4, 1})->Args({25, 0});

// ---------------------------------------------------------------------------
// kernel-member table (gated headline speedup)
// ---------------------------------------------------------------------------

struct MatrixDataset {
  SimResult sim;
  PatternAlignment patterns;
  GtrParams gtr;
  std::unique_ptr<Tree> tree;
};

MatrixDataset make_dataset(std::size_t sites, int taxa, std::uint64_t seed) {
  MatrixDataset d;
  SimConfig cfg;
  cfg.taxa = taxa;
  cfg.distinct_sites = sites;
  cfg.total_sites = sites;
  cfg.seed = seed;
  d.sim = simulate_alignment(cfg);
  d.patterns = PatternAlignment::compress(d.sim.alignment);
  d.gtr.freqs = d.patterns.empirical_frequencies();
  d.tree = std::make_unique<Tree>(
      Tree::parse_newick(d.sim.true_tree_newick, d.patterns.names()));
  return d;
}

// Min-over-repetitions time of one full-retraversal evaluate (ms).
// invalidate_all() forces every inner CLV to recompute, so the measurement
// is newview-dominated — the kernel the SIMD family actually accelerates.
double time_full_eval_ms(LikelihoodEngine& engine, Tree& tree) {
  (void)engine.evaluate(tree);  // warm: CLVs and pmat scratch
  constexpr int kIters = 8;
  constexpr int kReps = 3;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      engine.invalidate_all();
      benchmark::DoNotOptimize(engine.evaluate(tree));
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / kIters;
    if (ms < best) best = ms;
  }
  return best;
}

struct Cell {
  kern::KernelIsa isa;
  double ms;
};

// Each cell constructs a fresh engine under its kernel member.
double run_cell(const MatrixDataset& d, kern::KernelIsa isa) {
  if (!kern::set_kernel_isa(isa)) return -1.0;
  LikelihoodEngine engine(d.patterns, d.gtr, RateModel::gamma(0.7));
  Tree t = *d.tree;
  return time_full_eval_ms(engine, t);
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string run_kernel_matrix() {
  const kern::KernelIsa dispatched = kern::kernel_isa();

  std::vector<kern::KernelIsa> members;
  for (int i = 0; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    if (kern::kernel_isa_supported(isa)) members.push_back(isa);
  }

  raxh::bench::print_header(
      "kernel members (full-retraversal evaluate)",
      "Sec. 3 kernel-level SIMD");
  std::printf("family: %s | dispatched: %s\n\n",
              kern::kernel_isa_list().c_str(),
              kern::kernel_isa_name(dispatched));

  // GAMMA, ordinary divergence: the SIMD gate's workload.
  const MatrixDataset gamma = make_dataset(1024, 24, 99);

  std::vector<Cell> cells;
  for (const auto isa : members) cells.push_back({isa, run_cell(gamma, isa)});

  // Restore the process-wide member before the gbench suites run.
  kern::set_kernel_isa(dispatched);

  auto find_ms = [&](kern::KernelIsa isa) {
    for (const auto& c : cells)
      if (c.isa == isa) return c.ms;
    return -1.0;
  };
  const kern::KernelIsa best = kern::best_kernel_isa();
  const double scalar_ms = find_ms(kern::KernelIsa::kScalar);
  const double best_ms = find_ms(best);
  const double simd_speedup = best_ms > 0.0 ? scalar_ms / best_ms : 0.0;
  const bool gate_simd = simd_speedup >= 1.5;

  std::string csv = "kernels,eval_ms,speedup_vs_scalar\n";
  for (const auto& c : cells) {
    const double speedup = c.ms > 0.0 ? scalar_ms / c.ms : 0.0;
    std::printf("  %-8s  %8.3f ms  (%.2fx)\n", kern::kernel_isa_name(c.isa),
                c.ms, speedup);
    csv += std::string(kern::kernel_isa_name(c.isa)) + ',' + fmt(c.ms) + ',' +
           fmt(speedup) + '\n';
  }
  std::printf("\n  [GATE] simd   %s vs scalar: %.2fx (>= 1.5x required) %s\n\n",
              kern::kernel_isa_name(best), simd_speedup,
              gate_simd ? "PASS" : "FAIL");
  raxh::bench::write_output("kernel_matrix.csv", csv);

  std::string matrix_json;
  for (const auto& c : cells) {
    if (!matrix_json.empty()) matrix_json += ',';
    matrix_json += std::string("{\"kernels\":\"") +
                   kern::kernel_isa_name(c.isa) + "\",\"eval_ms\":" +
                   fmt(c.ms) + '}';
  }
  return "\"simd_speedup\":" + fmt(simd_speedup) +
         ",\"gate_simd_1p5x\":" + (gate_simd ? "true" : "false") +
         ",\"matrix\":[" + matrix_json + "]," + kern::to_json_section();
}
}  // namespace

int main(int argc, char** argv) {
  const std::string matrix_extra = run_kernel_matrix();
  return raxh::bench::gbench_main_with_summary("kernels", argc, argv,
                                               matrix_extra);
}
