#include "bio/patterns.h"

#include <bit>
#include <map>

#include "util/check.h"

namespace raxh {

PatternAlignment PatternAlignment::compress(const Alignment& alignment) {
  PatternAlignment out;
  out.names_ = alignment.names();
  const std::size_t taxa = alignment.num_taxa();
  const std::size_t sites = alignment.num_sites();
  RAXH_EXPECTS(taxa > 0 && sites > 0);

  // Map column content -> pattern index. Columns are small strings of states.
  std::map<std::vector<DnaState>, std::size_t> index;
  out.site_to_pattern_.resize(sites);
  std::vector<std::vector<DnaState>> pattern_columns;

  for (std::size_t s = 0; s < sites; ++s) {
    auto col = alignment.column(s);
    auto [it, inserted] = index.try_emplace(std::move(col), index.size());
    if (inserted) {
      pattern_columns.push_back(it->first);
      out.weights_.push_back(0);
    }
    out.weights_[it->second] += 1;
    out.site_to_pattern_[s] = it->second;
  }

  const std::size_t npat = pattern_columns.size();
  out.data_.resize(taxa * npat);
  unsigned states = 0;  // every state OR-ed together: only masks 0..15
  unsigned masks = 0;
  for (std::size_t p = 0; p < npat; ++p) {
    for (std::size_t t = 0; t < taxa; ++t) {
      const DnaState s = pattern_columns[p][t];
      out.data_[t * npat + p] = s;
      states |= s;
      masks |= 1u << (s & kStateGap);
    }
  }
  RAXH_EXPECTS(states <= kStateGap);
  out.tip_masks_ = static_cast<std::uint16_t>(masks);
  return out;
}

std::array<double, 4> PatternAlignment::empirical_frequencies() const {
  std::array<double, 4> counts = {1.0, 1.0, 1.0, 1.0};
  const std::size_t npat = num_patterns();
  for (std::size_t t = 0; t < num_taxa(); ++t) {
    for (std::size_t p = 0; p < npat; ++p) {
      const DnaState s = data_[t * npat + p];
      if (s == kStateGap) continue;
      const int bits = std::popcount(static_cast<unsigned>(s));
      const double mass = static_cast<double>(weights_[p]) / bits;
      for (int i = 0; i < kNumDnaStates; ++i)
        if (s & state_from_index(i)) counts[static_cast<std::size_t>(i)] += mass;
    }
  }
  double total = 0.0;
  for (double c : counts) total += c;
  std::array<double, 4> freqs{};
  for (std::size_t i = 0; i < 4; ++i) freqs[i] = counts[i] / total;
  return freqs;
}

long PatternAlignment::total_weight() const {
  long total = 0;
  for (int w : weights_) total += w;
  return total;
}

}  // namespace raxh
