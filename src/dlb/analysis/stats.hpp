// Aggregation over repeated randomized runs.
#pragma once

#include <vector>

#include "dlb/common/types.hpp"

namespace dlb::analysis {

struct summary {
  std::size_t count = 0;
  real_t mean = 0;
  real_t stddev = 0;  ///< sample standard deviation (n-1)
  real_t min = 0;
  real_t max = 0;
  real_t median = 0;
};

/// Summarizes a sample; empty input yields a zero summary.
[[nodiscard]] summary summarize(std::vector<real_t> values);

/// Least-squares slope of log(y) against log(x); used by scaling views to
/// estimate growth exponents (e.g. discrepancy ~ n^slope). Requires all
/// x, y > 0 and at least two points.
[[nodiscard]] real_t log_log_slope(const std::vector<real_t>& x,
                                   const std::vector<real_t>& y);

}  // namespace dlb::analysis
