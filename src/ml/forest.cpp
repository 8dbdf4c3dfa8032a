#include "ml/forest.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/rng.h"

namespace libra::ml {
namespace {

/// Draws the bootstrap sample of one tree into `idx`. Every tree first
/// skips one draw: the trained models (and the golden digests built on
/// them) are pinned to this sequence of bootstraps.
void bootstrap_sample(size_t n, double fraction, util::Rng& rng,
                      std::vector<size_t>* idx) {
  rng.next_u64();
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(n)));
  idx->resize(m);
  for (size_t i = 0; i < m; ++i)
    (*idx)[i] =
        static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n) - 1));
}

/// Merges per-tree step functions into one: `combine(leaf_values)` maps the
/// trees' values on one interval (in tree order) to the forest's output.
/// Adjacent intervals with the same output share one entry.
template <typename T, typename Combine>
StepFunction<T> merge_steps(const std::vector<detail::Cart>& trees,
                            Combine combine) {
  if (trees.empty())
    throw std::logic_error("RandomForest: compile before fit");
  std::vector<std::vector<double>> breaks(trees.size()), values(trees.size());
  std::vector<double> all;
  for (size_t t = 0; t < trees.size(); ++t) {
    trees[t].steps(&breaks[t], &values[t]);
    all.insert(all.end(), breaks[t].begin(), breaks[t].end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  // Interval i is (all[i-1], all[i]]; all[i] itself lies in it, so each
  // tree's value there is values[lower_bound(breaks, all[i])]. The cursors
  // only move forward as all[i] ascends. The last interval (and NaN) takes
  // every tree's last leaf.
  std::vector<size_t> cursor(trees.size(), 0);
  std::vector<double> leaf(trees.size());
  std::vector<double> out_breaks;
  std::vector<T> out_values;
  for (size_t i = 0; i <= all.size(); ++i) {
    for (size_t t = 0; t < trees.size(); ++t) {
      if (i == all.size())
        cursor[t] = breaks[t].size();
      else
        while (cursor[t] < breaks[t].size() && breaks[t][cursor[t]] < all[i])
          ++cursor[t];
      leaf[t] = values[t][cursor[t]];
    }
    const T value = combine(leaf);
    // Bitwise equality: merging must not conflate 0.0 with -0.0.
    if (!out_values.empty() &&
        std::memcmp(&value, &out_values.back(), sizeof(T)) == 0)
      continue;
    if (i > 0) out_breaks.push_back(all[i - 1]);
    out_values.push_back(value);
  }
  return StepFunction<T>(std::move(out_breaks), std::move(out_values));
}

}  // namespace

void RandomForestClassifier::fit(const Dataset& data) {
  if (!data.has_labels() || data.size() == 0)
    throw std::invalid_argument("RandomForestClassifier: need labels");
  num_classes_ = data.num_classes();
  trees_.assign(static_cast<size_t>(opt_.num_trees), {});
  util::Rng rng(opt_.seed);
  detail::CartWorkspace ws;
  std::vector<size_t> sample;
  for (auto& tree : trees_) {
    bootstrap_sample(data.size(), opt_.sample_fraction, rng, &sample);
    tree.fit(data, sample, /*classification=*/true, num_classes_, opt_.tree,
             ws);
  }
}

int RandomForestClassifier::predict(const FeatureRow& row) const {
  if (trees_.empty())
    throw std::logic_error("RandomForestClassifier: predict before fit");
  std::vector<size_t> votes(static_cast<size_t>(num_classes_), 0);
  for (const auto& tree : trees_)
    ++votes[static_cast<size_t>(tree.predict(row))];
  return static_cast<int>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

void RandomForestRegressor::fit(const Dataset& data) {
  if (!data.has_targets() || data.size() == 0)
    throw std::invalid_argument("RandomForestRegressor: need targets");
  trees_.assign(static_cast<size_t>(opt_.num_trees), {});
  util::Rng rng(opt_.seed);
  detail::CartWorkspace ws;
  std::vector<size_t> sample;
  for (auto& tree : trees_) {
    bootstrap_sample(data.size(), opt_.sample_fraction, rng, &sample);
    tree.fit(data, sample, /*classification=*/false, 0, opt_.tree, ws);
  }
}

double RandomForestRegressor::predict(const FeatureRow& row) const {
  if (trees_.empty())
    throw std::logic_error("RandomForestRegressor: predict before fit");
  double total = 0.0;
  for (const auto& tree : trees_) total += tree.predict(row);
  return total / static_cast<double>(trees_.size());
}

StepFunction<int> RandomForestClassifier::compile() const {
  std::vector<size_t> votes(static_cast<size_t>(num_classes_));
  return merge_steps<int>(trees_, [&](const std::vector<double>& leaf) {
    std::fill(votes.begin(), votes.end(), 0);
    for (double v : leaf) ++votes[static_cast<size_t>(v)];
    return static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
  });
}

StepFunction<double> RandomForestRegressor::compile() const {
  return merge_steps<double>(trees_, [&](const std::vector<double>& leaf) {
    double total = 0.0;
    for (double v : leaf) total += v;
    return total / static_cast<double>(trees_.size());
  });
}

}  // namespace libra::ml
