#include "ml/tree.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace libra::ml {
namespace detail {
namespace {

size_t label_of(double y) { return static_cast<size_t>(y); }

/// Gini impurity of `total` rows from the node's per-class counts. A zero
/// count is skipped: g - 0.0 == g, so skipping is exact.
double gini_of(const size_t* counts, size_t num, size_t total) {
  double g = 1.0;
  for (size_t j = 0; j < num; ++j) {
    if (counts[j] == 0) continue;
    const double p =
        static_cast<double>(counts[j]) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

}  // namespace

void Cart::fit(const Dataset& data, const std::vector<size_t>& sample_indices,
               bool classification, int num_classes, const TreeOptions& opt,
               CartWorkspace& ws) {
  if (sample_indices.empty())
    throw std::invalid_argument("Cart: empty training sample");
  if (data.num_features() != 1)
    throw std::invalid_argument("Cart: fits exactly one feature, got " +
                                std::to_string(data.num_features()));
  const size_t m = sample_indices.size();
  ws.bx.resize(m);
  ws.by.resize(m);
  for (size_t k = 0; k < m; ++k) {
    const size_t row = sample_indices[k];
    ws.bx[k] = data.x[row][0];
    ws.by[k] = classification ? static_cast<double>(data.labels[row])
                              : data.targets[row];
  }
  // Presort once: ascending x, ties in bootstrap order (a stable sort).
  ws.order.resize(m);
  std::iota(ws.order.begin(), ws.order.end(), size_t{0});
  std::sort(ws.order.begin(), ws.order.end(), [&ws](size_t a, size_t b) {
    return ws.bx[a] < ws.bx[b] || (ws.bx[a] == ws.bx[b] && a < b);
  });
  ws.sx.resize(m);
  ws.sy.resize(m);
  for (size_t k = 0; k < m; ++k) {
    ws.sx[k] = ws.bx[ws.order[k]];
    ws.sy[k] = ws.by[ws.order[k]];
  }
  ws.cut.resize(m);
  if (classification) {
    const auto c = static_cast<size_t>(num_classes);
    ws.count.assign(c, 0);  // build() leaves it all zero again
    ws.slot.resize(c);
    ws.left.resize(c);
    ws.right.resize(c);
  } else {
    ws.spill_x.resize(m);
    ws.spill_y.resize(m);
    ws.mean_l.resize(m);
    ws.mean_r.resize(m);
    ws.acc_l.resize(m);
    ws.acc_r.resize(m);
  }
  ws.nodes.clear();
  ws.nodes.reserve(2 * m - 1);  // every leaf holds at least one row
  build(ws, 0, m, 0, classification, opt);
  nodes_.assign(ws.nodes.begin(), ws.nodes.end());  // one exact-size copy
}

int Cart::build(CartWorkspace& ws, size_t begin, size_t end, int depth,
                bool classification, const TreeOptions& opt) {
  const int node_id = static_cast<int>(ws.nodes.size());
  ws.nodes.emplace_back();
  const size_t n = end - begin;
  const double nd = static_cast<double>(n);
  const double* sx = ws.sx.data() + begin;
  const double* sy = ws.sy.data() + begin;
  double* bx = ws.bx.data() + begin;
  double* by = ws.by.data() + begin;

  // Leaf value and parent impurity. Classification needs only counts.
  // Regression sums in bootstrap order: the bits of the leaf means and
  // variances, and so the pinned models, depend on the order of additions.
  double value = 0.0;
  double parent_impurity = 0.0;
  size_t num_present = 0;  // classes present; slots in class order
  if (classification) {
    for (size_t i = 0; i < n; ++i) ++ws.count[label_of(sy[i])];
    size_t best_count = 0;
    parent_impurity = 1.0;
    for (size_t c = 0; c < ws.count.size(); ++c) {
      const size_t k = ws.count[c];
      if (k == 0) continue;
      if (k > best_count) {  // first max, as std::max_element
        best_count = k;
        value = static_cast<double>(c);
      }
      const double p = static_cast<double>(k) / nd;
      parent_impurity -= p * p;
      ws.slot[c] = num_present;
      ws.left[num_present] = 0;
      ws.right[num_present] = k;
      ++num_present;
      ws.count[c] = 0;
    }
  } else {
    for (size_t i = 0; i < n; ++i) value += by[i];
    value /= nd;
  }
  ws.nodes[static_cast<size_t>(node_id)].value = value;
  if (depth >= opt.max_depth || n < opt.min_samples_split) return node_id;
  if (!classification) {
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = by[i] - value;
      var += d * d;
    }
    parent_impurity = var / nd;
  }
  if (parent_impurity <= 1e-12) return node_id;

  // Split positions lie between consecutive distinct x, with at least
  // min_samples_leaf rows on each side; they are scored in ascending order.
  bool found = false;
  double best_score = 0.0;  // impurity decrease; higher is better
  double best_threshold = 0.0;
  auto consider = [&](size_t pos, double child_impurity) {
    const double score = parent_impurity - child_impurity;
    if (score > best_score + 1e-15) {
      found = true;
      best_score = score;
      best_threshold = 0.5 * (sx[pos - 1] + sx[pos]);
    }
  };
  size_t num_cuts = 0;
  for (size_t pos = std::max<size_t>(opt.min_samples_leaf, 1);
       pos < n && pos + opt.min_samples_leaf <= n; ++pos)
    if (!(sx[pos] <= sx[pos - 1])) ws.cut[num_cuts++] = pos;
  const size_t* cut = ws.cut.data();

  if (classification) {
    // Class counts of the left/right halves follow the cut incrementally.
    size_t counted = 0;  // rows [0, counted) are in `left`
    for (size_t l = 0; l < num_cuts; ++l) {
      const size_t pos = cut[l];
      for (; counted < pos; ++counted) {
        const size_t j = ws.slot[label_of(sy[counted])];
        ++ws.left[j];
        --ws.right[j];
      }
      const double nl = static_cast<double>(pos);
      const double nr = static_cast<double>(n - pos);
      consider(pos, (nl * gini_of(ws.left.data(), num_present, pos) +
                     nr * gini_of(ws.right.data(), num_present, n - pos)) /
                        nd);
    }
  } else {
    // Each side's mean and squared deviations, summed in increasing i from
    // 0.0 as a direct per-side evaluation would. Left means come from one
    // running prefix sum; the right sums and the deviations accumulate in
    // one lane per cut; -O3 vectorizes across the cuts.
    double* mean_l = ws.mean_l.data();
    double* mean_r = ws.mean_r.data();
    double* acc_l = ws.acc_l.data();
    double* acc_r = ws.acc_r.data();
    double prefix = 0.0;
    for (size_t i = 0, l = 0; l < num_cuts; ++i) {
      prefix += sy[i];
      if (i + 1 == cut[l]) {
        mean_l[l] = prefix / static_cast<double>(cut[l]);
        ++l;
      }
    }
    std::fill(mean_r, mean_r + num_cuts, 0.0);
    std::fill(acc_l, acc_l + num_cuts, 0.0);
    std::fill(acc_r, acc_r + num_cuts, 0.0);
    // Cuts [0, right_of) have row i on their right side.
    for (size_t i = 0, right_of = 0; i < n; ++i) {
      while (right_of < num_cuts && cut[right_of] <= i) ++right_of;
      const double y = sy[i];
      for (size_t l = 0; l < right_of; ++l) mean_r[l] += y;
    }
    for (size_t l = 0; l < num_cuts; ++l)
      mean_r[l] /= static_cast<double>(n - cut[l]);
    for (size_t i = 0, right_of = 0; i < n; ++i) {
      while (right_of < num_cuts && cut[right_of] <= i) ++right_of;
      const double y = sy[i];
      for (size_t l = right_of; l < num_cuts; ++l) {
        const double d = y - mean_l[l];
        acc_l[l] += d * d;
      }
      for (size_t l = 0; l < right_of; ++l) {
        const double d = y - mean_r[l];
        acc_r[l] += d * d;
      }
    }
    for (size_t l = 0; l < num_cuts; ++l) {
      const double nl = static_cast<double>(cut[l]);
      const double nr = static_cast<double>(n - cut[l]);
      consider(cut[l], (nl * (acc_l[l] / nl) + nr * (acc_r[l] / nr)) / nd);
    }
  }
  if (!found) return node_id;

  // Children are the rows with x <= threshold and the rest. The midpoint of
  // two adjacent doubles can round onto either, so split by value, not by
  // the scored position; a split that leaves a side empty is no split.
  const size_t mid = static_cast<size_t>(
      std::upper_bound(sx, sx + n, best_threshold) - sx);
  if (mid == 0 || mid == n) return node_id;
  if (!classification) {
    // Stable partition of the bootstrap order, through the spill buffers.
    size_t kept = 0, spilled = 0;
    for (size_t i = 0; i < n; ++i) {
      if (bx[i] <= best_threshold) {
        bx[kept] = bx[i];
        by[kept] = by[i];
        ++kept;
      } else {
        ws.spill_x[spilled] = bx[i];
        ws.spill_y[spilled] = by[i];
        ++spilled;
      }
    }
    std::copy_n(ws.spill_x.begin(), spilled, bx + kept);
    std::copy_n(ws.spill_y.begin(), spilled, by + kept);
  }

  const int left =
      build(ws, begin, begin + mid, depth + 1, classification, opt);
  const int right = build(ws, begin + mid, end, depth + 1, classification, opt);
  auto& node = ws.nodes[static_cast<size_t>(node_id)];
  node.is_leaf = false;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

double Cart::predict(const FeatureRow& row) const {
  if (nodes_.empty()) throw std::logic_error("Cart: predict before fit");
  int cur = 0;
  while (!nodes_[static_cast<size_t>(cur)].is_leaf) {
    const auto& n = nodes_[static_cast<size_t>(cur)];
    cur = row[0] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(cur)].value;
}

void Cart::steps(std::vector<double>* breaks,
                 std::vector<double>* values) const {
  if (nodes_.empty()) throw std::logic_error("Cart: steps before fit");
  breaks->clear();
  values->clear();
  // In-order walk: node `id` receives the rows in (lo, hi]. The right spine
  // (`rightmost`) also receives NaN, so its leaf is kept even when empty.
  auto walk = [&](auto& self, int id, double lo, double hi,
                  bool rightmost) -> void {
    const auto& n = nodes_[static_cast<size_t>(id)];
    if (n.is_leaf) {
      if (!(lo < hi) && !rightmost) return;
      if (!values->empty()) breaks->push_back(lo);
      values->push_back(n.value);
      return;
    }
    self(self, n.left, lo, std::min(hi, n.threshold), false);
    self(self, n.right, std::max(lo, n.threshold), hi, rightmost);
  };
  walk(walk, 0, -std::numeric_limits<double>::infinity(),
       std::numeric_limits<double>::infinity(), true);
}

int Cart::depth() const {
  // Iterative depth computation over the flat array.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<int, int>> stack = {{0, 1}};
  int best = 0;
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const auto& n = nodes_[static_cast<size_t>(id)];
    if (!n.is_leaf) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return best;
}

}  // namespace detail

void DecisionTreeClassifier::fit(const Dataset& data) {
  if (!data.has_labels() || data.size() == 0)
    throw std::invalid_argument("DecisionTreeClassifier: need labels");
  std::vector<size_t> all(data.size());
  std::iota(all.begin(), all.end(), size_t{0});
  detail::CartWorkspace ws;
  tree_.fit(data, all, /*classification=*/true, data.num_classes(), opt_, ws);
}

int DecisionTreeClassifier::predict(const FeatureRow& row) const {
  return static_cast<int>(tree_.predict(row));
}

void DecisionTreeRegressor::fit(const Dataset& data) {
  if (!data.has_targets() || data.size() == 0)
    throw std::invalid_argument("DecisionTreeRegressor: need targets");
  std::vector<size_t> all(data.size());
  std::iota(all.begin(), all.end(), size_t{0});
  detail::CartWorkspace ws;
  tree_.fit(data, all, /*classification=*/false, 0, opt_, ws);
}

double DecisionTreeRegressor::predict(const FeatureRow& row) const {
  return tree_.predict(row);
}

}  // namespace libra::ml
