#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "ml/dataset.h"
#include "ml/forest.h"
#include "ml/histogram.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/step_function.h"
#include "ml/svm.h"
#include "ml/tree.h"

namespace libra::ml {
namespace {

Dataset two_blob_classification(size_t n, util::Rng& rng) {
  // Class 0 around (0,0), class 1 around (4,4): linearly separable-ish.
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    const double cx = label ? 4.0 : 0.0;
    d.add_classification({cx + rng.normal(0, 0.5), cx + rng.normal(0, 0.5)},
                         label);
  }
  return d;
}

Dataset linear_regression_data(size_t n, util::Rng& rng) {
  // y = 3 + 2 x0 - x1 + noise
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-5, 5), x1 = rng.uniform(-5, 5);
    d.add_regression({x0, x1}, 3 + 2 * x0 - x1 + rng.normal(0, 0.01));
  }
  return d;
}

// 1-D counterparts for the trees, which fit a single feature.
Dataset one_feature_blobs(size_t n, util::Rng& rng) {
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    d.add_classification({(label ? 4.0 : 0.0) + rng.normal(0, 0.5)}, label);
  }
  return d;
}

Dataset one_feature_line(size_t n, util::Rng& rng) {
  // y = 3 + 2 x + noise
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-5, 5);
    d.add_regression({x}, 3 + 2 * x + rng.normal(0, 0.01));
  }
  return d;
}

Dataset one_feature_classification(size_t n, int classes, util::Rng& rng) {
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const double x = std::exp(rng.uniform(std::log(0.2), std::log(100.0)));
    int label = static_cast<int>(std::log(x + 1.0) * classes / 5.0);
    if (rng.bernoulli(0.2))
      label = static_cast<int>(rng.uniform_int(0, classes - 1));
    d.add_classification({x}, std::clamp(label, 0, classes - 1));
  }
  return d;
}

Dataset one_feature_regression(size_t n, util::Rng& rng) {
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const double x = std::exp(rng.uniform(std::log(0.2), std::log(100.0)));
    d.add_regression({x}, 0.5 + 0.3 * x + rng.normal(0.0, 2.0));
  }
  return d;
}

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3, 4}, {1, 2, 0, 4}), 0.75);
  EXPECT_THROW(accuracy({1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(accuracy({}, {}), std::invalid_argument);
}

TEST(Metrics, R2PerfectAndMeanPredictor) {
  std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r2_score(y, y), 1.0);
  std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(r2_score(y, mean_pred), 0.0, 1e-12);
}

TEST(Metrics, R2CanBeVeryNegative) {
  // Table 2 shows values like -475; the metric must not clamp.
  std::vector<double> y = {1, 1.1, 0.9, 1.05};
  std::vector<double> bad = {100, -50, 80, -30};
  EXPECT_LT(r2_score(y, bad), -100.0);
}

TEST(Metrics, ConstantTargetEdgeCase) {
  std::vector<double> y = {2, 2, 2};
  EXPECT_DOUBLE_EQ(r2_score(y, y), 1.0);
  EXPECT_DOUBLE_EQ(r2_score(y, {1, 2, 3}), 0.0);
}

TEST(Metrics, Mae) {
  EXPECT_DOUBLE_EQ(mae({1, 2}, {2, 4}), 1.5);
}

TEST(Dataset, SplitPreservesRowsAndFraction) {
  util::Rng rng(3);
  auto d = two_blob_classification(100, rng);
  auto split = split_dataset(d, 0.7, rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
  EXPECT_TRUE(split.train.has_labels());
  EXPECT_THROW(split_dataset(d, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(split_dataset(d, 1.0, rng), std::invalid_argument);
}

TEST(Dataset, NumClasses) {
  Dataset d;
  d.add_classification({0.0}, 0);
  d.add_classification({1.0}, 4);
  EXPECT_EQ(d.num_classes(), 5);
  EXPECT_THROW(d.add_classification({1.0}, -1), std::invalid_argument);
}

TEST(MinMaxScaler, MapsToUnitBox) {
  MinMaxScaler sc;
  sc.fit({{0, 10}, {10, 30}});
  auto t = sc.transform({5, 20});
  EXPECT_DOUBLE_EQ(t[0], 0.5);
  EXPECT_DOUBLE_EQ(t[1], 0.5);
}

TEST(MinMaxScaler, ConstantFeatureMapsToHalf) {
  MinMaxScaler sc;
  sc.fit({{7.0}, {7.0}});
  EXPECT_DOUBLE_EQ(sc.transform({7.0})[0], 0.5);
}

TEST(SolveLinearSystem, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10  -> x = 1, y = 3
  auto x = solve_linear_system({{2, 1}, {1, 3}}, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(SolveLinearSystem, ThrowsOnSingular) {
  EXPECT_THROW(solve_linear_system({{1, 1}, {2, 2}}, {1, 2}),
               std::runtime_error);
}

TEST(LinearRegressor, RecoversCoefficients) {
  util::Rng rng(5);
  auto d = linear_regression_data(200, rng);
  LinearRegressor lr;
  lr.fit(d);
  EXPECT_NEAR(lr.predict({0, 0}), 3.0, 0.05);
  EXPECT_NEAR(lr.predict({1, 0}), 5.0, 0.05);
  EXPECT_NEAR(lr.predict({0, 1}), 2.0, 0.05);
}

TEST(LinearRegressor, PredictBeforeFitThrows) {
  LinearRegressor lr;
  EXPECT_THROW(lr.predict({1.0}), std::logic_error);
}

TEST(LogisticClassifier, SeparatesBlobs) {
  util::Rng rng(7);
  auto d = two_blob_classification(200, rng);
  auto split = split_dataset(d, 0.7, rng);
  LogisticClassifier clf;
  clf.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, clf.predict_all(split.test.x)), 0.95);
}

TEST(SvmClassifier, SeparatesBlobs) {
  util::Rng rng(11);
  auto d = two_blob_classification(200, rng);
  auto split = split_dataset(d, 0.7, rng);
  SvmClassifier svm;
  svm.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, svm.predict_all(split.test.x)), 0.95);
}

TEST(MlpClassifier, LearnsXorLikePattern) {
  // XOR is not linearly separable; the hidden layer must earn its keep.
  util::Rng rng(13);
  Dataset d;
  for (int i = 0; i < 400; ++i) {
    const int a = rng.bernoulli(0.5), b = rng.bernoulli(0.5);
    d.add_classification(
        {a + rng.normal(0, 0.1), b + rng.normal(0, 0.1)}, a ^ b);
  }
  auto split = split_dataset(d, 0.7, rng);
  MlpOptions opt;
  opt.hidden = 16;
  opt.epochs = 300;
  MlpClassifier mlp(opt);
  mlp.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, mlp.predict_all(split.test.x)), 0.9);
}

TEST(MlpRegressor, FitsSmoothFunction) {
  util::Rng rng(17);
  Dataset d;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0, 1);
    d.add_regression({x}, std::sin(3 * x));
  }
  auto split = split_dataset(d, 0.7, rng);
  MlpRegressor mlp;
  mlp.fit(split.train);
  EXPECT_GE(r2_score(split.test.targets, mlp.predict_all(split.test.x)), 0.9);
}

TEST(DecisionTree, ClassifiesPerfectlySeparableData) {
  Dataset d;
  for (int i = 0; i < 50; ++i) d.add_classification({static_cast<double>(i)}, i < 25 ? 0 : 1);
  DecisionTreeClassifier tree;
  tree.fit(d);
  EXPECT_EQ(tree.predict({3.0}), 0);
  EXPECT_EQ(tree.predict({40.0}), 1);
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(DecisionTree, RegressionStepFunction) {
  Dataset d;
  for (int i = 0; i < 60; ++i)
    d.add_regression({static_cast<double>(i)}, i < 30 ? 1.0 : 5.0);
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_NEAR(tree.predict({10.0}), 1.0, 1e-9);
  EXPECT_NEAR(tree.predict({50.0}), 5.0, 1e-9);
}

TEST(DecisionTree, RespectsMaxDepth) {
  util::Rng rng(19);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 1);
    d.add_regression({x}, x + rng.normal(0, 0.01));
  }
  TreeOptions opt;
  opt.max_depth = 1;
  DecisionTreeRegressor stump(opt);
  stump.fit(d);
  EXPECT_LE(stump.node_count(), 3u);  // root + two leaves
}

// Bootstrap repeats and distinct rows tie in x; no split separates equal x,
// so each leaf's value counts every repeat of the rows it receives. The
// workspace, last used for a wider classification fit, is reused.
TEST(DecisionTree, RepeatedSampleRowsTieInX) {
  util::Rng rng(31);
  const auto wide = one_feature_classification(90, 6, rng);
  detail::CartWorkspace ws;
  detail::Cart cart;
  std::vector<size_t> all(wide.size());
  std::iota(all.begin(), all.end(), size_t{0});
  cart.fit(wide, all, /*classification=*/true, wide.num_classes(), {}, ws);

  Dataset d;  // x = 0: {0, 1}, x = 1: {10, 11}, x = 2: {20, 21}
  for (int i = 0; i < 6; ++i)
    d.add_regression({static_cast<double>(i / 2)}, 10.0 * (i / 2) + i % 2);
  cart.fit(d, {0, 0, 0, 1, 2, 3, 3, 4, 5, 5}, /*classification=*/false, 0, {},
           ws);
  EXPECT_EQ(cart.node_count(), 5u);  // one leaf per distinct x
  EXPECT_DOUBLE_EQ(cart.predict({0.0}), (0.0 + 0.0 + 0.0 + 1.0) / 4.0);
  EXPECT_DOUBLE_EQ(cart.predict({1.0}), (10.0 + 11.0 + 11.0) / 3.0);
  EXPECT_DOUBLE_EQ(cart.predict({2.0}), (20.0 + 21.0 + 21.0) / 3.0);

  Dataset c;  // x = 0: labels {0, 1}, x = 1: labels {1, 1}
  for (int label : {0, 1}) c.add_classification({0.0}, label);
  for (int i = 0; i < 2; ++i) c.add_classification({1.0}, 1);
  cart.fit(c, {0, 0, 1, 2, 3}, /*classification=*/true, 2, {}, ws);
  EXPECT_EQ(cart.node_count(), 3u);
  EXPECT_EQ(cart.predict({0.0}), 0.0);  // two 0s beat one 1
  EXPECT_EQ(cart.predict({1.0}), 1.0);
}

TEST(DecisionTree, NodeBelowTwoMinLeavesIsALeaf) {
  Dataset d;
  for (int i = 0; i < 5; ++i)
    d.add_regression({static_cast<double>(i)}, static_cast<double>(i));
  TreeOptions opt;
  opt.min_samples_leaf = 3;
  DecisionTreeRegressor tree(opt);
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict({0.0}), 2.0);
  // Six rows admit exactly one split, and its halves no further one.
  d.add_regression({5.0}, 5.0);
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_DOUBLE_EQ(tree.predict({0.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict({5.0}), 4.0);
}

TEST(DecisionTree, ConstantTargetsAreOneLeaf) {
  Dataset d, near;
  for (int i = 0; i < 40; ++i) {
    d.add_regression({0.5 * i}, 7.25);
    near.add_regression({0.5 * i}, 7.25 + (i % 2) * 1e-7);  // variance < 1e-12
  }
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict({3.0}), 7.25);
  tree.fit(near);
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(DecisionTree, SingleClassIsOneLeaf) {
  Dataset d;
  for (int i = 0; i < 30; ++i) d.add_classification({0.1 * i}, 2);
  DecisionTreeClassifier tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict({1.0}), 2);
}

TEST(DecisionTree, ZeroDepthIsTheRootLeaf) {
  TreeOptions opt;
  opt.max_depth = 0;
  Dataset r;
  for (int i = 0; i < 10; ++i)
    r.add_regression({static_cast<double>(i)}, static_cast<double>(i));
  DecisionTreeRegressor reg(opt);
  reg.fit(r);
  EXPECT_EQ(reg.node_count(), 1u);
  EXPECT_DOUBLE_EQ(reg.predict({0.0}), 4.5);
  Dataset c;  // classes 0 and 1 tie: the first max wins
  for (int label : {1, 1, 0, 0, 2})
    c.add_classification({static_cast<double>(label)}, label);
  DecisionTreeClassifier clf(opt);
  clf.fit(c);
  EXPECT_EQ(clf.node_count(), 1u);
  EXPECT_EQ(clf.predict({2.0}), 0);
}

// lo and hi are adjacent doubles and 0.5 * (lo + hi) rounds to hi, so the
// split sends the rows at hi left with those at lo: children are split by
// value, not at the scored position.
TEST(DecisionTree, SplitsByValueWhenTheMidpointRoundsUp) {
  const double lo = std::nextafter(1.0, 2.0);
  const double hi = std::nextafter(lo, 2.0);
  ASSERT_EQ(0.5 * (lo + hi), hi);
  Dataset d;
  for (int i = 0; i < 4; ++i) {
    d.add_regression({lo}, 0.0);
    d.add_regression({hi}, 10.0);
    d.add_regression({2.0}, 10.0);
  }
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.predict({lo}), 5.0);
  EXPECT_EQ(tree.predict({hi}), 5.0);
  EXPECT_EQ(tree.predict({2.0}), 10.0);
}

TEST(RandomForest, BeatsChanceOnNoisyBlobs) {
  util::Rng rng(23);
  auto d = one_feature_blobs(300, rng);
  auto split = split_dataset(d, 0.7, rng);
  RandomForestClassifier rf;
  rf.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, rf.predict_all(split.test.x)), 0.95);
  EXPECT_EQ(rf.tree_count(), 40u);
}

TEST(RandomForest, RegressionOnLinearData) {
  util::Rng rng(29);
  auto d = one_feature_line(300, rng);
  auto split = split_dataset(d, 0.7, rng);
  RandomForestRegressor rf;
  rf.fit(split.train);
  EXPECT_GE(r2_score(split.test.targets, rf.predict_all(split.test.x)), 0.9);
}

TEST(Histogram, ExactPercentilesOnSmallSample) {
  HistogramModel h(0, 100, 10);
  for (double v : {10.0, 20.0, 30.0, 40.0}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 25.0);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, BucketedPercentilesAfterOverflow) {
  HistogramModel h(0, 100, 100, /*max_exact=*/10);
  util::Rng rng(31);
  for (int i = 0; i < 10000; ++i) h.observe(rng.uniform(0, 100));
  EXPECT_NEAR(h.percentile(50), 50.0, 3.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 3.0);
}

TEST(Histogram, ClampsOutOfRangeObservations) {
  HistogramModel h(0, 10, 10);
  h.observe(-5);
  h.observe(50);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5);
  EXPECT_DOUBLE_EQ(h.max(), 50);
}

TEST(Histogram, EmptyThrows) {
  HistogramModel h(0, 10, 10);
  EXPECT_THROW(h.percentile(50), std::logic_error);
  EXPECT_THROW(h.mean(), std::logic_error);
}

/// The percentile HistogramModel computed before it kept its samples
/// sorted: copy, sort, interpolate between order statistics.
double copy_and_sort_percentile(const std::vector<double>& samples, double p) {
  std::vector<double> sorted(samples);
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// Observes `total` seeded samples with many duplicates (and some outside
/// [lo, hi]) and, at every count in `checked`, compares each percentile with
/// the copy-and-sort result while samples are exact and with a bucket-only
/// twin (max_exact = 0) after that.
void check_percentiles_against_copy_and_sort(
    size_t max_exact, size_t total, const std::vector<size_t>& checked) {
  HistogramModel h(0.0, 64.0, 128, max_exact);
  HistogramModel buckets_only(0.0, 64.0, 128, /*max_exact=*/0);
  std::vector<double> samples;
  util::Rng rng(97);
  size_t next_check = 0;
  for (size_t n = 1; n <= total; ++n) {
    const double v = std::round(rng.uniform(-4.0, 70.0) * 2.0) / 2.0;
    h.observe(v);
    buckets_only.observe(v);
    samples.push_back(v);
    if (next_check >= checked.size() || checked[next_check] != n) continue;
    ++next_check;
    for (double p : {0.0, 5.0, 50.0, 99.0, 100.0}) {
      const double want = n <= max_exact ? copy_and_sort_percentile(samples, p)
                                         : buckets_only.percentile(p);
      ASSERT_EQ(std::bit_cast<uint64_t>(h.percentile(p)),
                std::bit_cast<uint64_t>(want))
          << "n=" << n << " p=" << p;
    }
  }
  ASSERT_EQ(next_check, checked.size());
}

TEST(Histogram, SortedPercentilesMatchCopyAndSortAtEveryCount) {
  constexpr size_t kMaxExact = 64;
  std::vector<size_t> every;
  for (size_t n = 1; n <= kMaxExact + 40; ++n) every.push_back(n);
  check_percentiles_against_copy_and_sort(kMaxExact, kMaxExact + 40, every);
}

TEST(Histogram, SortedPercentilesMatchCopyAndSortAtDefaultCapacity) {
  // The profiler's histograms use the default max_exact (4096): check a
  // spread of counts and every count around the capacity boundary.
  std::vector<size_t> checked;
  for (size_t n = 1; n < 4090; n += 37) checked.push_back(n);
  for (size_t n = 4090; n <= 4110; ++n) checked.push_back(n);
  check_percentiles_against_copy_and_sort(4096, 4110, checked);
}

// ---- compiled step functions vs tree-walked forests ----

/// Profiler-shaped data: one feature (log-uniform input size), a noisy
/// step-like class label and a noisy smooth regression target.
/// Every input worth probing: each compiled breakpoint and each midpoint
/// of two training values (every threshold a bootstrap tree can pick) at
/// -1 ulp, exactly, and +1 ulp; every training value; points below the
/// first and above the last breakpoint, the infinities and NaN.
std::vector<double> probe_points(const Dataset& d,
                                 const std::vector<double>& breaks) {
  std::vector<double> centers(breaks);
  for (size_t i = 0; i < d.size(); ++i) {
    centers.push_back(d.x[i][0]);
    for (size_t j = i + 1; j < d.size(); ++j)
      centers.push_back(0.5 * (d.x[i][0] + d.x[j][0]));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> points;
  for (double c : centers) {
    points.push_back(std::nextafter(c, -kInf));
    points.push_back(c);
    points.push_back(std::nextafter(c, kInf));
  }
  if (!breaks.empty()) {
    points.push_back(breaks.front() - 1.0);
    points.push_back(breaks.back() + 1.0);
  }
  for (double x : {-kInf, kInf, std::numeric_limits<double>::lowest(),
                   std::numeric_limits<double>::max(), 0.0, -1.0,
                   std::numeric_limits<double>::quiet_NaN()})
    points.push_back(x);
  return points;
}

TEST(StepFunction, LookupIsRightClosedAndNanTakesLastValue) {
  const StepFunction<int> f({1.0, 2.0}, {10, 20, 30});
  EXPECT_EQ(f(0.5), 10);
  EXPECT_EQ(f(1.0), 10);  // x <= threshold goes left
  EXPECT_EQ(f(std::nextafter(1.0, 2.0)), 20);
  EXPECT_EQ(f(2.0), 20);
  EXPECT_EQ(f(3.0), 30);
  EXPECT_EQ(f(std::numeric_limits<double>::quiet_NaN()), 30);
  EXPECT_THROW(StepFunction<int>({1.0}, {1}), std::invalid_argument);
  EXPECT_THROW(StepFunction<int>()(1.0), std::logic_error);
}

class CompiledForest : public ::testing::TestWithParam<int> {};

TEST_P(CompiledForest, ClassifierEqualsTreeWalkEverywhere) {
  // Few trees make vote ties common, which exercises the first-max rule.
  util::Rng rng(41);
  const auto data = one_feature_classification(70, 4, rng);
  ForestOptions opt;
  opt.num_trees = GetParam();
  opt.tree.min_samples_leaf = 3;
  opt.tree.max_depth = 10;
  RandomForestClassifier forest(opt);
  forest.fit(data);
  const StepFunction<int> compiled = forest.compile();
  ASSERT_FALSE(compiled.breaks().empty());
  const auto& breaks = compiled.breaks();
  EXPECT_TRUE(std::is_sorted(breaks.begin(), breaks.end()));
  for (double x : probe_points(data, compiled.breaks()))
    ASSERT_EQ(compiled(x), forest.predict({x})) << "x=" << x;
}

TEST_P(CompiledForest, RegressorEqualsTreeWalkBitForBit) {
  util::Rng rng(43);
  const auto data = one_feature_regression(70, rng);
  ForestOptions opt;
  opt.num_trees = GetParam();
  opt.tree.min_samples_leaf = 3;
  opt.tree.max_depth = 10;
  RandomForestRegressor forest(opt);
  forest.fit(data);
  const StepFunction<double> compiled = forest.compile();
  ASSERT_FALSE(compiled.breaks().empty());
  for (double x : probe_points(data, compiled.breaks()))
    ASSERT_EQ(std::bit_cast<uint64_t>(compiled(x)),
              std::bit_cast<uint64_t>(forest.predict({x})))
        << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, CompiledForest,
                         ::testing::Values(1, 4, 40));

TEST(CompiledForest, FitRejectsTwoFeatures) {
  util::Rng rng(47);
  RandomForestClassifier forest;
  EXPECT_THROW(forest.fit(two_blob_classification(200, rng)),
               std::invalid_argument);
  EXPECT_THROW(RandomForestRegressor().fit(linear_regression_data(50, rng)),
               std::invalid_argument);
  EXPECT_THROW(DecisionTreeClassifier().fit(two_blob_classification(50, rng)),
               std::invalid_argument);
  EXPECT_THROW(RandomForestRegressor().compile(), std::logic_error);
}

// Property sweep: RF classification accuracy is robust across seeds.
class ForestSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ForestSeedSweep, StableAccuracyAcrossSeeds) {
  util::Rng rng(GetParam());
  auto d = one_feature_blobs(200, rng);
  auto split = split_dataset(d, 0.7, rng);
  ForestOptions opt;
  opt.seed = GetParam();
  RandomForestClassifier rf(opt);
  rf.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, rf.predict_all(split.test.x)), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestSeedSweep,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace libra::ml
