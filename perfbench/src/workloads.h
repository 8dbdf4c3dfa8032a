// The benchmark's three workloads and the function that sets one of them
// up, runs it and tears it down, timing each phase. The workload seed is the
// only input; every stream and fault seed derives from it. perfbench/
// README.md gives the reason for each workload.
//
// A workload is a fixed number of parts: independent streams run one after
// another on fresh platforms, whose results are pooled. The azure pair has
// one part; libra_audited_churn has several, because the every-event
// auditor caps one stream at 4096 invocations and one such stream is too
// small for its tail latency to be steady from seed to seed.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "layer_clock.h"

namespace perfbench {

enum class Workload { kLibraAzure, kDefaultAzure, kLibraAuditedChurn };

const std::vector<Workload>& all_workloads();
const char* workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// kFull is the benchmark; kSmall shrinks every stream so the unit tests can
/// run each workload in well under a second.
enum class Scale { kFull, kSmall };

/// Raw sums over a workload's parts, from which every metric is derived.
struct Totals {
  // ---- Host time, seconds ----
  double setup_s = 0.0;     // catalog, stream and platform construction
  double run_s = 0.0;       // inside exp::run_experiment
  double teardown_s = 0.0;  // destroying platform, inputs and metrics

  // ---- Simulated outputs (deterministic for a seed) ----
  uint64_t digest = 0;  // FNV-1a over the parts' exp::run_metrics_digest
  long finalized = 0;
  long completed = 0;
  /// Response latency of every completed invocation, from the benchmark's
  /// own record sink (exact; no sketch).
  std::vector<double> latencies;
  double latency_sum = 0.0;       // sum of response latencies
  double user_latency_sum = 0.0;  // sum of static-allocation latencies
  double eq1_speedup_sum = 0.0;   // sum of Eq. 1 speedups
  double cpu_busy_core_s = 0.0;   // busy core-seconds in the arrival window
  double cpu_capacity_core_s = 0.0;

  /// Correctness violations, each naming the workload. Empty = correct.
  std::vector<std::string> failures;

  // ---- Traced runs only ----
  std::array<int64_t, kLayers> self_ns{};
  std::array<long, kLayers> calls{};
  int64_t timed_ns = 0;  // inside outermost spans
  double catalog_s = 0.0;
  double trace_s = 0.0;
  double prewarm_s = 0.0;
  long predictions = 0;
  long speculated_predictions = 0;
  long decisions = 0;
  long engine_events = 0;
  long audit_sweeps = 0;
  long obs_series = 0;
  long pool_puts = 0, pool_gets = 0, pool_revocations = 0, pool_reharvests = 0;
  long safeguard_triggers = 0;
  long trust_demotions = 0;
  long ctrl_conflicts = 0, ctrl_steals = 0;
  long fault_retries = 0, lost = 0;
};

/// Sets up, runs and tears down every part of one workload. Setup time is
/// counted from `start` (process start for the first run of a process).
/// With `traced`, every call into a layer goes through the timed wrappers
/// of timed.h and the traced fields of Totals are filled.
Totals run_workload(Workload w, uint64_t seed, Scale scale, bool traced,
                    std::chrono::steady_clock::time_point start);

/// The end-to-end metrics, by their BENCHMARK.json names.
std::map<std::string, double> end_to_end_metrics(const Totals& t,
                                                 double peak_rss_mb);

/// The per-layer metrics of a traced run, by their BENCHMARK.json names;
/// `plain` is the untraced run of the same seed (for the tracing overhead).
std::map<std::string, double> layer_metrics(const Totals& traced,
                                            const Totals& plain);

/// Share of a traced run's wall time spent in each layer (self time), plus
/// "sim.engine.self" for the rest; the shares sum to 1.
std::map<std::string, double> layer_shares(const Totals& traced);

}  // namespace perfbench
