// Piecewise-constant function of one scalar: what a tree ensemble over a
// single feature compiles to. Libra's profiler models have exactly one
// feature (the input size), so each trained forest is served as one sorted
// breakpoint table plus one value per interval, looked up by binary search
// instead of walking every tree.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace libra::ml {

/// Interval i is (breaks[i-1], breaks[i]] and maps to values[i]; the last
/// value covers everything above the last break. Intervals are closed on
/// the right because a tree routes `x <= threshold` left. NaN fails every
/// `<=` test, so a tree walk sends it right at every node: it maps to the
/// last value too.
template <typename T>
class StepFunction {
 public:
  StepFunction() = default;
  /// `breaks` strictly ascending, `values.size() == breaks.size() + 1`.
  StepFunction(std::vector<double> breaks, std::vector<T> values)
      : breaks_(std::move(breaks)), values_(std::move(values)) {
    if (values_.size() != breaks_.size() + 1)
      throw std::invalid_argument("StepFunction: need one value per interval");
  }

  T operator()(double x) const {
    if (values_.empty()) throw std::logic_error("StepFunction: empty");
    if (std::isnan(x)) return values_.back();
    const auto it = std::lower_bound(breaks_.begin(), breaks_.end(), x);
    return values_[static_cast<size_t>(it - breaks_.begin())];
  }

  const std::vector<double>& breaks() const { return breaks_; }

 private:
  std::vector<double> breaks_;
  std::vector<T> values_;
};

}  // namespace libra::ml
