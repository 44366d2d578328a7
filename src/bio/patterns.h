// Site-pattern compression. Identical alignment columns are merged into one
// "pattern" with an integer weight; the likelihood is computed per pattern and
// weighted. The number of distinct patterns is the parameter the paper uses to
// characterize data-set size (§3), and it is the axis over which the
// fine-grained Pthreads parallelization distributes work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bio/alignment.h"

namespace raxh {

class PatternAlignment {
 public:
  PatternAlignment() = default;

  // Compress `alignment` (columns with equal content merge, weights add up).
  static PatternAlignment compress(const Alignment& alignment);

  [[nodiscard]] std::size_t num_taxa() const { return names_.size(); }
  [[nodiscard]] std::size_t num_patterns() const { return weights_.size(); }
  [[nodiscard]] std::size_t num_sites() const { return site_to_pattern_.size(); }

  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  // Row of taxon t over patterns (length num_patterns()).
  [[nodiscard]] std::span<const DnaState> row(std::size_t taxon) const {
    return {data_.data() + taxon * num_patterns(), num_patterns()};
  }
  [[nodiscard]] DnaState at(std::size_t taxon, std::size_t pattern) const {
    return data_[taxon * num_patterns() + pattern];
  }

  // The IUPAC masks that occur in the rows: bit m is set iff some taxon has
  // state mask m at some pattern. Tip lookups need entries for these only.
  [[nodiscard]] std::uint16_t tip_masks() const { return tip_masks_; }

  // Original-site multiplicities of each pattern.
  [[nodiscard]] std::span<const int> weights() const { return weights_; }

  // Pattern index of each original site.
  [[nodiscard]] std::span<const std::size_t> site_to_pattern() const {
    return site_to_pattern_;
  }

  [[nodiscard]] std::array<double, 4> empirical_frequencies() const;

  // Sum of pattern weights == number of original sites.
  [[nodiscard]] long total_weight() const;

 private:
  std::vector<std::string> names_;
  std::vector<DnaState> data_;  // taxa-major: [taxon][pattern]
  std::vector<int> weights_;
  std::vector<std::size_t> site_to_pattern_;
  std::uint16_t tip_masks_ = 0;
};

}  // namespace raxh
