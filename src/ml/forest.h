// Bagged random forest over CART trees — the model family Libra's profiler
// selects after the §8.6 comparison ("we opt for Random Forest regarding the
// prediction performance").
#pragma once

#include <cstdint>

#include "ml/step_function.h"
#include "ml/tree.h"

namespace libra::ml {

struct ForestOptions {
  int num_trees = 40;
  TreeOptions tree;
  /// Bootstrap sample fraction of the training set per tree.
  double sample_fraction = 1.0;
  uint64_t seed = 101;
};

class RandomForestClassifier : public Classifier {
 public:
  explicit RandomForestClassifier(ForestOptions opt = {}) : opt_(opt) {}
  void fit(const Dataset& data) override;
  int predict(const FeatureRow& row) const override;  // majority vote
  size_t tree_count() const { return trees_.size(); }
  /// The fitted forest as a step function of its feature: the same vote and
  /// first-max tie-break per interval, so it equals predict({x}) for every
  /// x, NaN included. Throws std::logic_error before fit.
  StepFunction<int> compile() const;

 private:
  ForestOptions opt_;
  int num_classes_ = 0;
  std::vector<detail::Cart> trees_;
};

class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(ForestOptions opt = {}) : opt_(opt) {}
  void fit(const Dataset& data) override;
  double predict(const FeatureRow& row) const override;  // mean of trees
  size_t tree_count() const { return trees_.size(); }
  /// The fitted forest as a step function of its feature. Each interval sums
  /// the trees in tree order and divides by the tree count, so it equals
  /// predict({x}) bit for bit. Throws std::logic_error before fit.
  StepFunction<double> compile() const;

 private:
  ForestOptions opt_;
  std::vector<detail::Cart> trees_;
};

}  // namespace libra::ml
