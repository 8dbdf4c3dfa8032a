#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "core/profiler.h"
#include "gen/synthetic_source.h"
#include "core/window_predictors.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra::core {
namespace {

using sim::Invocation;
using sim::Resources;

Invocation sample_invocation(const sim::FunctionCatalog& cat, int func,
                             uint64_t seed) {
  util::Rng rng(seed);
  return workload::make_invocation(cat, 0, func,
                                   cat.at(func).sample_input(rng), 0.0);
}

TEST(UserConfigPredictor, PredictsExactlyUserAllocation) {
  UserConfigPredictor p;
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 0, 1);
  p.predict(inv);
  EXPECT_EQ(inv.pred_demand.cpu, inv.user_alloc.cpu);
  EXPECT_FALSE(inv.accelerable());
}

TEST(MovingWindow, ColdStartFallsBackToUserAlloc) {
  MovingWindowPredictor p(5);
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 1, 2);
  p.predict(inv);
  EXPECT_TRUE(inv.first_seen);
  EXPECT_EQ(inv.pred_demand.cpu, inv.user_alloc.cpu);
}

TEST(MovingWindow, PredictsWindowMaximum) {
  MovingWindowPredictor p(3);
  Observation obs;
  obs.func = 1;
  for (double cpu : {1.0, 3.0, 2.0}) {
    obs.observed_peak = {cpu, cpu * 100};
    obs.exec_duration = cpu;
    p.observe(obs);
  }
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 1, 3);
  p.predict(inv);
  EXPECT_DOUBLE_EQ(inv.pred_demand.cpu, 3.0);
  EXPECT_DOUBLE_EQ(inv.pred_demand.mem, 300.0);
  EXPECT_DOUBLE_EQ(inv.pred_duration, 3.0);
}

TEST(MovingWindow, OldObservationsAgeOut) {
  MovingWindowPredictor p(2);
  Observation obs;
  obs.func = 1;
  obs.observed_peak = {8.0, 800};
  obs.exec_duration = 8;
  p.observe(obs);
  obs.observed_peak = {1.0, 100};
  obs.exec_duration = 1;
  p.observe(obs);
  p.observe(obs);  // the 8-core observation falls out of the window
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 1, 4);
  p.predict(inv);
  EXPECT_DOUBLE_EQ(inv.pred_demand.cpu, 1.0);
}

TEST(Ewma, ConvergesTowardRecentObservations) {
  EwmaPredictor p(0.5);
  Observation obs;
  obs.func = 2;
  obs.observed_peak = {4.0, 400};
  obs.exec_duration = 10;
  p.observe(obs);
  obs.observed_peak = {2.0, 200};
  obs.exec_duration = 6;
  for (int i = 0; i < 10; ++i) p.observe(obs);
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 2, 5);
  p.predict(inv);
  EXPECT_NEAR(inv.pred_demand.cpu, 2.0, 0.05);
  EXPECT_NEAR(inv.pred_duration, 6.0, 0.1);
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_shared<const sim::FunctionCatalog>(
        workload::sebs_catalog());
    ProfilerConfig cfg;
    profiler_ = std::make_unique<Profiler>(cfg, catalog_);
  }
  std::shared_ptr<const sim::FunctionCatalog> catalog_;
  std::unique_ptr<Profiler> profiler_;
};

TEST_F(ProfilerTest, FirstInvocationServedWithUserConfig) {
  auto inv = sample_invocation(*catalog_, 0, 6);
  profiler_->predict(inv);
  EXPECT_TRUE(inv.first_seen);
  EXPECT_DOUBLE_EQ(inv.pred_demand.cpu, inv.user_alloc.cpu);
}

TEST_F(ProfilerTest, ClassifiesAllTenFunctionsCorrectly) {
  profiler_->prewarm(*catalog_, 1234, 20);
  for (int f = 0; f < 10; ++f) {
    const auto metrics = profiler_->train_metrics(f);
    ASSERT_TRUE(metrics.has_value()) << "func " << f;
    EXPECT_EQ(metrics->classified_size_related,
              catalog_->at(f).size_related())
        << "func " << catalog_->at(f).name();
  }
}

TEST_F(ProfilerTest, SizeRelatedPredictionsTrackDemand) {
  profiler_->prewarm(*catalog_, 1234, 20);
  util::Rng rng(7);
  double abs_err = 0;
  int n = 0;
  for (int i = 0; i < 60; ++i) {
    auto inv = workload::make_invocation(
        *catalog_, i, /*DH*/ 4, catalog_->at(4).sample_input(rng), 0.0);
    profiler_->predict(inv);
    EXPECT_FALSE(inv.first_seen);
    EXPECT_TRUE(inv.pred_size_related);
    abs_err += std::abs(inv.pred_demand.cpu - inv.truth.demand.cpu);
    ++n;
  }
  // Spikes (~6%) are unpredictable by design; the average error stays small.
  EXPECT_LT(abs_err / n, 1.0);
}

TEST_F(ProfilerTest, UnrelatedPredictionsAreConservativeTail) {
  profiler_->prewarm(*catalog_, 1234, 40);
  util::Rng rng(8);
  auto inv = workload::make_invocation(*catalog_, 0, /*VP*/ 5,
                                       catalog_->at(5).sample_input(rng), 0.0);
  profiler_->predict(inv);
  EXPECT_FALSE(inv.pred_size_related);
  // p99 of a 2..8 core demand distribution: near the top.
  EXPECT_GE(inv.pred_demand.cpu, 6.0);
}

TEST_F(ProfilerTest, ProfilingWindowProbesBeforeHistogramReady) {
  // Without prewarm, the first VP invocation trains (histogram mode), and
  // subsequent ones inside the window are probes at the platform max.
  auto first = sample_invocation(*catalog_, 5, 9);
  profiler_->predict(first);
  EXPECT_TRUE(first.first_seen);
  auto second = sample_invocation(*catalog_, 5, 10);
  profiler_->predict(second);
  EXPECT_TRUE(second.profiling_probe);
  EXPECT_GE(second.pred_demand.cpu, 8.0);
}

TEST_F(ProfilerTest, MemStrikesDisableMemoryHarvesting) {
  EXPECT_FALSE(profiler_->mem_harvest_disabled(3, 3));
  profiler_->record_mem_safeguard_strike(3);
  profiler_->record_mem_safeguard_strike(3);
  EXPECT_FALSE(profiler_->mem_harvest_disabled(3, 3));
  profiler_->record_mem_safeguard_strike(3);
  EXPECT_TRUE(profiler_->mem_harvest_disabled(3, 3));
}

TEST_F(ProfilerTest, ForceFlagsOverrideClassification) {
  ProfilerConfig hist_cfg;
  hist_cfg.force_histogram = true;
  Profiler hist(hist_cfg, catalog_);
  hist.prewarm(*catalog_, 1, 20);
  EXPECT_FALSE(hist.train_metrics(0)->classified_size_related);

  ProfilerConfig ml_cfg;
  ml_cfg.force_ml = true;
  Profiler ml(ml_cfg, catalog_);
  ml.prewarm(*catalog_, 1, 20);
  EXPECT_TRUE(ml.train_metrics(5)->classified_size_related);

  ProfilerConfig bad;
  bad.force_ml = bad.force_histogram = true;
  EXPECT_THROW(Profiler(bad, catalog_), std::invalid_argument);
}

TEST_F(ProfilerTest, TrainMetricsShowTableTwoShape) {
  profiler_->prewarm(*catalog_, 1234, 20);
  // Size-related functions: high accuracy, high R².
  for (int f = 0; f < 5; ++f) {
    const auto m = *profiler_->train_metrics(f);
    EXPECT_GE(m.cpu_accuracy, 0.8) << f;
    EXPECT_GE(m.duration_r2, 0.8) << f;
  }
  // Size-unrelated: poor accuracy and/or non-positive R² (Table 2 bottom).
  for (int f = 5; f < 10; ++f) {
    const auto m = *profiler_->train_metrics(f);
    EXPECT_TRUE(m.cpu_accuracy < 0.8 || m.duration_r2 < 0.5) << f;
  }
}

// Prewarm trains functions on worker threads; each function's models must
// not depend on how many there are. Prewarm is the only code that starts
// threads, so CI runs the ProfilerTest suite under TSan.
TEST_F(ProfilerTest, PrewarmWorkerCountDoesNotChangeModels) {
  Profiler serial(ProfilerConfig{}, catalog_);
  serial.prewarm_with_workers(*catalog_, 77, 20, 1);
  for (unsigned workers : {2u, 3u, 16u}) {
    Profiler parallel(ProfilerConfig{}, catalog_);
    parallel.prewarm_with_workers(*catalog_, 77, 20, workers);
    for (int f = 0; f < static_cast<int>(catalog_->size()); ++f) {
      const auto a = serial.train_metrics(f);
      const auto b = parallel.train_metrics(f);
      ASSERT_TRUE(a.has_value() && b.has_value()) << f;
      EXPECT_EQ(a->cpu_accuracy, b->cpu_accuracy) << f;
      EXPECT_EQ(a->mem_accuracy, b->mem_accuracy) << f;
      EXPECT_EQ(a->duration_r2, b->duration_r2) << f;
      EXPECT_EQ(a->classified_size_related, b->classified_size_related) << f;
      // Predictions over a log-spaced size grid, through both serving paths.
      for (double size = 0.01; size < 1e4; size *= 1.37) {
        auto x = workload::make_invocation(*catalog_, 0, f, {size, 5}, 0.0);
        auto y = x;
        serial.predict(x);
        parallel.predict(y);
        EXPECT_EQ(x.pred_demand.cpu, y.pred_demand.cpu) << f << " " << size;
        EXPECT_EQ(x.pred_demand.mem, y.pred_demand.mem) << f << " " << size;
        EXPECT_EQ(x.pred_duration, y.pred_duration) << f << " " << size;
        EXPECT_EQ(x.pred_size_related, y.pred_size_related) << f;
        serial.predict_fallback(x);
        parallel.predict_fallback(y);
        EXPECT_EQ(x.pred_demand.cpu, y.pred_demand.cpu) << f << " " << size;
        EXPECT_EQ(x.pred_duration, y.pred_duration) << f << " " << size;
      }
    }
  }
}

TEST_F(ProfilerTest, PrewarmWithZeroWorkersStillTrains) {
  profiler_->prewarm_with_workers(*catalog_, 77, 20, 0);
  for (int f = 0; f < static_cast<int>(catalog_->size()); ++f)
    EXPECT_TRUE(profiler_->train_metrics(f).has_value()) << f;
}

// Pins every trained model: a change to how the forests are fit must keep
// them bit-identical. Digests each function's TrainMetrics bits and its
// predictions over the log-spaced size grid through both serving paths, on
// the SeBS catalog and on the 300-function synthetic Azure catalog
// (catalog seed 42) that perfbench's libra_azure prewarms, with the same
// prewarm seed and sample count as exp::make_platform.
uint64_t trained_models_digest(
    const std::shared_ptr<const sim::FunctionCatalog>& catalog) {
  Profiler profiler(ProfilerConfig{}, catalog);
  profiler.prewarm(*catalog, 1234, 30);
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_d = [&mix](double v) { mix(std::bit_cast<uint64_t>(v)); };
  for (int f = 0; f < static_cast<int>(catalog->size()); ++f) {
    const auto m = profiler.train_metrics(f);
    if (!m.has_value()) {
      mix(~0ULL);
      continue;
    }
    mix_d(m->cpu_accuracy);
    mix_d(m->mem_accuracy);
    mix_d(m->duration_r2);
    mix(m->classified_size_related ? 1 : 0);
    for (double size = 0.01; size < 1e4; size *= 1.37) {
      auto x = workload::make_invocation(*catalog, 0, f, {size, 5}, 0.0);
      auto y = x;
      profiler.predict(x);
      profiler.predict_fallback(y);
      for (const auto* inv : {&x, &y}) {
        mix_d(inv->pred_demand.cpu);
        mix_d(inv->pred_demand.mem);
        mix_d(inv->pred_duration);
        mix(inv->pred_size_related ? 1 : 0);
      }
    }
  }
  return h;
}

TEST_F(ProfilerTest, TrainedModelsPinned) {
  gen::GenConfig g;  // perfbench's libra_azure catalog
  g.functions = 300;
  g.rpm = 25000.0;
  g.diurnal_period = 60.0;
  g.duration = 60.0;
  g.seed = 42;
  const auto azure =
      std::make_shared<const sim::FunctionCatalog>(gen::synthetic_catalog(g));
  EXPECT_EQ(trained_models_digest(catalog_), 0xa39a0c6a56c90c57ULL);
  EXPECT_EQ(trained_models_digest(azure), 0x32b63b4677691797ULL);
}

}  // namespace
}  // namespace libra::core
