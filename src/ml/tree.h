// CART decision tree supporting both classification (Gini impurity) and
// regression (variance reduction) over a single feature. Building block for
// the random forest that Libra's profiler selects (§4.3.1, §8.6), whose only
// feature is the input size.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/model.h"

namespace libra::ml {

struct TreeOptions {
  int max_depth = 12;
  size_t min_samples_leaf = 1;
  size_t min_samples_split = 2;
};

namespace detail {
struct TreeNode {
  bool is_leaf = true;
  double threshold = 0.0;  // rows with x <= threshold go left
  int left = -1;
  int right = -1;
  double value = 0.0;  // mean target (regression) or argmax class (clf)
};

/// Buffers one fit reuses for every node, so building a tree allocates
/// nothing per node. A forest passes one workspace to all of its trees;
/// concurrent fits need one workspace each.
class CartWorkspace {
 private:
  friend class Cart;
  // The tree under construction; fit copies it out at its exact size.
  std::vector<TreeNode> nodes;
  std::vector<size_t> order;
  // The sample in ascending x, ties in bootstrap order: a node is a range.
  std::vector<double> sx, sy;
  // The sample in bootstrap order, stably partitioned per node (regression).
  std::vector<double> bx, by, spill_x, spill_y;
  // Regression scan: one lane per candidate split position.
  std::vector<size_t> cut;
  std::vector<double> mean_l, mean_r, acc_l, acc_r;
  // Classification: class counts, and each present class's slot in the
  // node's left/right counts (the node's classes in class order).
  std::vector<size_t> count, slot, left, right;
};

/// Flat-array CART tree of one feature shared by classifier/regressor
/// wrappers.
class Cart {
 public:
  /// mode: true = classification (labels), false = regression (targets).
  /// Throws std::invalid_argument unless `data` has exactly one feature.
  void fit(const Dataset& data, const std::vector<size_t>& sample_indices,
           bool classification, int num_classes, const TreeOptions& opt,
           CartWorkspace& ws);
  double predict(const FeatureRow& row) const;
  size_t node_count() const { return nodes_.size(); }
  int depth() const;

  /// The tree as a step function of its feature, in StepFunction's layout:
  /// leaf i covers (breaks[i-1], breaks[i]], the last leaf everything above
  /// and NaN. Leaves whose interval is empty are left out.
  void steps(std::vector<double>* breaks, std::vector<double>* values) const;

 private:
  int build(CartWorkspace& ws, size_t begin, size_t end, int depth,
            bool classification, const TreeOptions& opt);
  std::vector<TreeNode> nodes_;
};
}  // namespace detail

class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions opt = {}) : opt_(opt) {}
  void fit(const Dataset& data) override;
  int predict(const FeatureRow& row) const override;
  size_t node_count() const { return tree_.node_count(); }

 private:
  TreeOptions opt_;
  detail::Cart tree_;
};

class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeOptions opt = {}) : opt_(opt) {}
  void fit(const Dataset& data) override;
  double predict(const FeatureRow& row) const override;
  size_t node_count() const { return tree_.node_count(); }

 private:
  TreeOptions opt_;
  detail::Cart tree_;
};

}  // namespace libra::ml
