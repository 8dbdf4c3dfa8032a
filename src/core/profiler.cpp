#include "core/profiler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "ml/dataset.h"
#include "ml/metrics.h"
#include "util/log.h"

namespace libra::core {

using sim::FunctionId;
using sim::InputSpec;
using sim::Invocation;
using sim::Resources;

namespace {

void check_percentile(double p, const char* what) {
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument(std::string("ProfilerConfig: ") + what + " = " +
                                std::to_string(p) + " outside [0, 100]");
}

}  // namespace

void ProfilerConfig::validate() const {
  if (duplicates < 2)
    throw std::invalid_argument(
        "ProfilerConfig: duplicates must be >= 2 to split train/test, got " +
        std::to_string(duplicates));
  if (scale_lo <= 0.0 || scale_hi <= 0.0 || scale_lo >= scale_hi)
    throw std::invalid_argument(
        "ProfilerConfig: rescale range must satisfy 0 < scale_lo < scale_hi, "
        "got [" +
        std::to_string(scale_lo) + ", " + std::to_string(scale_hi) + "]");
  if (train_fraction <= 0.0 || train_fraction >= 1.0)
    throw std::invalid_argument(
        "ProfilerConfig: train_fraction must be inside (0, 1), got " +
        std::to_string(train_fraction));
  if (profiling_window <= 0)
    throw std::invalid_argument(
        "ProfilerConfig: profiling_window must be positive, got " +
        std::to_string(profiling_window));
  check_percentile(peak_percentile, "peak_percentile");
  check_percentile(duration_percentile, "duration_percentile");
  if (accuracy_threshold < 0.0 || accuracy_threshold > 1.0 ||
      r2_threshold > 1.0)
    throw std::invalid_argument(
        "ProfilerConfig: relatedness thresholds outside their ranges");
  if (profiling_max.cpu <= 0.0 || profiling_max.mem <= 0.0)
    throw std::invalid_argument(
        "ProfilerConfig: profiling_max must be positive, got " +
        profiling_max.to_string());
  if (mem_class_mb <= 0.0)
    throw std::invalid_argument(
        "ProfilerConfig: mem_class_mb must be positive, got " +
        std::to_string(mem_class_mb));
  if (force_ml && force_histogram)
    throw std::invalid_argument(
        "ProfilerConfig: force_ml and force_histogram are mutually exclusive");
}

Profiler::Profiler(ProfilerConfig cfg,
                   std::shared_ptr<const sim::FunctionCatalog> catalog)
    : cfg_(cfg), catalog_(std::move(catalog)), rng_(cfg.seed) {
  if (!catalog_) throw std::invalid_argument("Profiler: null catalog");
  cfg_.validate();
}

void Profiler::train_function(FunctionId func, const InputSpec& first_input,
                              FuncState& state) const {
  const auto& model = catalog_->at(func);
  util::Rng rng = rng_.fork(static_cast<uint64_t>(func) * 977 + 5);

  // Workload duplicator (§4.2): rescale the first input's size log-uniformly
  // and pilot-run each duplicate with full allocation to label the dataset.
  ml::Dataset cpu_data, mem_data, dur_data;
  std::vector<double> pilot_durations;
  const double log_lo = std::log(cfg_.scale_lo);
  const double log_hi = std::log(cfg_.scale_hi);
  for (int i = 0; i < cfg_.duplicates; ++i) {
    InputSpec dup;
    dup.size = std::max(1e-9, first_input.size *
                                  std::exp(rng.uniform(log_lo, log_hi)));
    dup.content_seed = rng.next_u64();
    const auto truth = model.evaluate(dup);
    // With full allocation the observed peaks equal the true demand and the
    // execution time is work / demand.cpu.
    const double duration = truth.work / std::max(1e-9, truth.demand.cpu);
    pilot_durations.push_back(duration);
    const ml::FeatureRow row = {dup.size};
    cpu_data.add_classification(
        row, static_cast<int>(std::lround(truth.demand.cpu)));
    mem_data.add_classification(
        row, static_cast<int>(truth.demand.mem / cfg_.mem_class_mb));
    dur_data.add_regression(row, duration);
  }
  std::sort(pilot_durations.begin(), pilot_durations.end());
  state.pilot_median_duration = pilot_durations[pilot_durations.size() / 2];

  util::Rng split_rng = rng_.fork(static_cast<uint64_t>(func) * 31 + 7);
  const auto cpu_split = ml::split_dataset(cpu_data, cfg_.train_fraction,
                                           split_rng);
  const auto mem_split = ml::split_dataset(mem_data, cfg_.train_fraction,
                                           split_rng);
  const auto dur_split = ml::split_dataset(dur_data, cfg_.train_fraction,
                                           split_rng);

  ml::ForestOptions fopt = cfg_.forest;
  fopt.seed = rng.next_u64();
  // Regression on near-flat curves is noise-dominated; modest leaves keep
  // the forest from memorizing pilot noise.
  fopt.tree.min_samples_leaf = 3;
  fopt.tree.max_depth = 10;
  ml::RandomForestClassifier cpu_forest(fopt);
  cpu_forest.fit(cpu_split.train);
  state.cpu_clf = cpu_forest.compile();
  ml::RandomForestClassifier mem_forest(fopt);
  mem_forest.fit(mem_split.train);
  state.mem_clf = mem_forest.compile();
  ml::RandomForestRegressor dur_forest(fopt);
  dur_forest.fit(dur_split.train);
  state.dur_reg = dur_forest.compile();

  // Held-out metrics through the compiled models, i.e. the serving path.
  auto predict_all = [](const auto& step,
                        const std::vector<ml::FeatureRow>& x) {
    std::vector<decltype(step(0.0))> out;
    out.reserve(x.size());
    for (const auto& row : x) out.push_back(step(row[0]));
    return out;
  };
  state.metrics.cpu_accuracy = ml::accuracy(
      cpu_split.test.labels, predict_all(state.cpu_clf, cpu_split.test.x));
  state.metrics.mem_accuracy = ml::accuracy(
      mem_split.test.labels, predict_all(state.mem_clf, mem_split.test.x));
  state.metrics.duration_r2 = ml::r2_score(
      dur_split.test.targets, predict_all(state.dur_reg, dur_split.test.x));

  bool related = state.metrics.cpu_accuracy >= cfg_.accuracy_threshold &&
                 state.metrics.mem_accuracy >= cfg_.accuracy_threshold &&
                 state.metrics.duration_r2 >= cfg_.r2_threshold;
  if (cfg_.force_ml) related = true;
  if (cfg_.force_histogram) related = false;
  state.metrics.classified_size_related = related;
  state.mode = related ? Mode::kMl : Mode::kHistogram;
  LIBRA_INFO() << "profiler trained func " << func << " ("
               << model.name() << "): acc_cpu=" << state.metrics.cpu_accuracy
               << " acc_mem=" << state.metrics.mem_accuracy
               << " r2=" << state.metrics.duration_r2
               << (related ? " -> ML" : " -> histogram");
}

void Profiler::serve_ml(const FuncState& state, Invocation& inv) const {
  const double size = inv.input.size;
  const double cpu = std::max(1, state.cpu_clf(size));
  // Memory classes map back to the bucket's upper edge: a conservative
  // choice that avoids harvesting into the predicted band.
  const double mem =
      (static_cast<double>(state.mem_clf(size)) + 1.0) * cfg_.mem_class_mb;
  inv.pred_demand = {cpu, mem};
  inv.pred_duration = std::max(0.01, state.dur_reg(size));
  inv.pred_size_related = true;
  inv.first_seen = false;
}

void Profiler::serve_histogram(const FuncState& state, Invocation& inv) const {
  inv.pred_size_related = false;
  inv.first_seen = false;
  if (state.observations < cfg_.profiling_window || state.hist_cpu.empty()) {
    // Profiling window: serve with maximum allocation to inspect real peaks
    // (§4.3.2). The probe allocation is granted from node free capacity by
    // the policy, not borrowed from the harvest pool.
    inv.profiling_probe = true;
    inv.pred_demand = Resources::max(inv.user_alloc, cfg_.profiling_max);
    inv.pred_duration = state.hist_dur.empty()
                            ? state.pilot_median_duration
                            : state.hist_dur.percentile(50.0);
    return;
  }
  const double cpu = std::ceil(state.hist_cpu.percentile(cfg_.peak_percentile));
  const double mem = state.hist_mem.percentile(cfg_.peak_percentile);
  inv.pred_demand = {std::max(1.0, cpu), std::max(64.0, mem)};
  inv.pred_duration =
      std::max(0.01, state.hist_dur.percentile(cfg_.duration_percentile));
}

void Profiler::predict(Invocation& inv) {
  auto& state = functions_[inv.func];
  if (state.mode == Mode::kUntrained) {
    // First-ever invocation: serve with the user configuration while the
    // duplicator builds the models offline (Fig. 3 step "first-seen").
    inv.first_seen = true;
    train_function(inv.func, inv.input, state);
    inv.pred_demand = inv.user_alloc;
    inv.pred_duration = state.pilot_median_duration;
    inv.pred_size_related = state.mode == Mode::kMl;
    return;
  }
  if (state.mode == Mode::kMl)
    serve_ml(state, inv);
  else
    serve_histogram(state, inv);
}

void Profiler::predict_fallback(Invocation& inv) {
  auto it = functions_.find(inv.func);
  if (it == functions_.end() || it->second.mode == Mode::kUntrained) {
    // Never trained and the ML path is down: nothing to serve but the user
    // configuration. No probe either — probes are a profiling decision the
    // degraded path must not take.
    inv.first_seen = false;
    inv.pred_demand = inv.user_alloc;
    inv.pred_duration = 1.0;
    inv.pred_size_related = false;
    return;
  }
  serve_histogram(it->second, inv);
}

void Profiler::observe(const Observation& obs) {
  auto it = functions_.find(obs.func);
  if (it == functions_.end()) return;
  auto& state = it->second;
  ++state.observations;
  state.hist_cpu.observe(obs.observed_peak.cpu);
  state.hist_mem.observe(obs.observed_peak.mem);
  state.hist_dur.observe(obs.exec_duration);
}

void Profiler::prewarm(const sim::FunctionCatalog& catalog, uint64_t seed,
                       int samples_per_function) {
  prewarm_with_workers(catalog, seed, samples_per_function,
                       std::thread::hardware_concurrency());
}

void Profiler::prewarm_with_workers(const sim::FunctionCatalog& catalog,
                                    uint64_t seed, int samples_per_function,
                                    unsigned workers) {
  // Serial part: the sample inputs come from one stream in catalog order,
  // and every state is inserted before any thread starts, so the threads
  // never touch the map itself.
  struct Job {
    FunctionId func;
    InputSpec input;
    FuncState* state;
    std::exception_ptr error;
  };
  std::vector<Job> jobs;
  util::Rng rng(util::mix64(seed ^ 0x11b7a11ULL));
  for (const auto& func : catalog.all()) {
    auto& state = functions_[func->id()];
    if (state.mode == Mode::kUntrained)
      jobs.push_back({func->id(), func->sample_input(rng), &state, nullptr});
  }
  // Parallel part: each job writes only its own state.
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t i = next++; i < jobs.size(); i = next++) {
      try {
        train_function(jobs[i].func, jobs[i].input, *jobs[i].state);
      } catch (...) {
        jobs[i].error = std::current_exception();
      }
    }
  };
  const size_t threads = std::min<size_t>(std::max(1u, workers), jobs.size());
  std::vector<std::thread> pool;
  try {
    for (size_t t = 1; t < threads; ++t) pool.emplace_back(drain);
  } catch (const std::system_error&) {
    // No more threads to be had: the ones started and this one drain the
    // queue, which changes nothing but the wall time.
  }
  drain();
  for (auto& thread : pool) thread.join();
  for (const auto& job : jobs)
    if (job.error) std::rethrow_exception(job.error);
  // Seed the histogram models with historical full-allocation telemetry.
  DemandPredictor::prewarm(catalog, seed, samples_per_function);
}

std::optional<Profiler::TrainMetrics> Profiler::train_metrics(
    FunctionId func) const {
  auto it = functions_.find(func);
  if (it == functions_.end() || it->second.mode == Mode::kUntrained)
    return std::nullopt;
  return it->second.metrics;
}

void Profiler::record_mem_safeguard_strike(FunctionId func) {
  ++functions_[func].mem_strikes;
}

bool Profiler::mem_harvest_disabled(FunctionId func, int max_strikes) const {
  auto it = functions_.find(func);
  return it != functions_.end() && it->second.mem_strikes >= max_strikes;
}

}  // namespace libra::core
