// Figure 12 — scalability of the decentralized sharding schedulers on the
// Jetstream-like cluster: (a) strong scaling (1000 concurrent invocations,
// 10..50 nodes, 1..4 schedulers), (b) weak scaling (20 invocations per
// node), (c) real measured scheduling overhead (< 1 ms) on 50 nodes, and
// (d) one timed run of a large burst — with a hard determinism gate: an
// untimed second run of the same burst (captured by the observability
// session when one is requested) must reproduce its RunMetrics digest
// bit-for-bit (exit 1 on mismatch).
//
// --smoke shrinks the sweeps for CI; with --obs / --trace-out /
// --trace-ndjson the second run of section (d) is captured by an
// observability session (its summary includes the per-shard decision
// balance). With --json-out PATH the section (c) overhead quantiles and the
// section (d) latency / utilization rows are merged into a BenchArtifact
// (BENCH_hotpath.json in CI) for tools/bench_diff.
#include <chrono>
#include <iostream>
#include <memory>

#include "exp/bench_artifact.h"
#include "exp/cli.h"
#include "exp/digest.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "obs/obs_session.h"
#include "util/stats.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;
using util::Table;

int main(int argc, char** argv) {
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  if (cli.help) {
    std::cout << "bench_fig12_scaling [options]\n" << exp::cli_usage();
    return 0;
  }

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());

  util::print_banner(std::cout,
                     "Figure 12 — scalability (Jetstream-like, 24c/24GB "
                     "nodes)");

  const std::vector<int> node_sweep =
      cli.smoke ? std::vector<int>{10, 20} : std::vector<int>{10, 20, 30,
                                                              40, 50};
  const size_t burst_size = cli.smoke ? 200 : 1000;

  // (a) Strong scaling: one burst, nodes x shards.
  Table strong("Fig 12(a) — strong scaling: completion time (s), " +
               std::to_string(burst_size) + " concurrent invocations");
  strong.set_header({"nodes", "1 scheduler", "2 schedulers", "4 schedulers"});
  const auto burst = workload::burst_trace(*catalog, burst_size, 5);
  for (int nodes : node_sweep) {
    std::vector<std::string> row = {std::to_string(nodes)};
    for (int shards : {1, 2, 4}) {
      auto policy = exp::make_scheduler_platform(
          exp::SchedulerKind::kCoverage, catalog);
      auto cfg = exp::jetstream_config(nodes, shards);
      auto m = exp::run_experiment(cfg, policy, burst);
      row.push_back(Table::fmt(m.workload_completion_time(), 1));
    }
    strong.add_row(std::move(row));
  }
  strong.print(std::cout);

  // (b) Weak scaling: 20 invocations per node.
  Table weak("Fig 12(b) — weak scaling: completion time (s), 20 invocations "
             "per node, 4 schedulers");
  weak.set_header({"nodes", "invocations", "completion(s)"});
  for (int nodes : node_sweep) {
    const auto trace = workload::burst_trace(
        *catalog, static_cast<size_t>(20 * nodes), 7);
    auto policy =
        exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog);
    auto m = exp::run_experiment(exp::jetstream_config(nodes, 4), policy,
                                 trace);
    weak.add_row({std::to_string(nodes), std::to_string(trace.size()),
                  Table::fmt(m.workload_completion_time(), 1)});
  }
  weak.print(std::cout);

  // (c) Real scheduling overhead with 4 schedulers.
  const int overhead_nodes = cli.smoke ? 20 : 50;
  Table delay("Fig 12(c) — measured scheduling overhead (real wall clock, " +
              std::to_string(overhead_nodes) + " nodes, 4 schedulers)");
  delay.set_header({"invocations", "avg (us)", "p99 (us)", "< 1 ms?"});
  const std::vector<size_t> overhead_counts =
      cli.smoke ? std::vector<size_t>{200}
                : std::vector<size_t>{200, 400, 600, 800, 1000};
  exp::BenchArtifact artifact;
  for (size_t count : overhead_counts) {
    auto cfg = exp::jetstream_config(overhead_nodes, 4);
    cfg.measure_real_sched_overhead = true;
    auto policy =
        exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog);
    auto m = exp::run_experiment(cfg, policy,
                                 workload::burst_trace(*catalog, count, 9));
    auto samples = m.sched_overhead_seconds;
    const double avg_us = util::mean(samples) * 1e6;
    const double p99_us = util::percentile(samples, 99) * 1e6;
    delay.add_row({std::to_string(count), Table::fmt(avg_us, 1),
                   Table::fmt(p99_us, 1), avg_us < 1000 ? "yes" : "NO"});
    if (count == overhead_counts.back()) {
      // ns/decision rows from the largest burst: the steady-state number.
      artifact.add("fig12_sched_overhead_avg_ns", avg_us * 1e3, "ns");
      artifact.add("fig12_sched_overhead_p99_ns", p99_us * 1e3, "ns");
    }
  }
  delay.print(std::cout);

  // (d) One timed run of a large burst on the full scheduler stack.
  const int scale_nodes = cli.smoke ? 20 : 50;
  const size_t scale_burst = cli.smoke ? 400 : 1000;
  Table scale("Fig 12(d) — wall clock of one run (" +
              std::to_string(scale_nodes) + " nodes, 4 shards, " +
              std::to_string(scale_burst) + " invocations)");
  scale.set_header({"wall clock (ms)", "digest"});
  const auto scale_trace = workload::burst_trace(*catalog, scale_burst, 11);
  const auto scale_cfg = exp::jetstream_config(scale_nodes, 4);
  const auto start = std::chrono::steady_clock::now();
  const auto m = exp::run_experiment(
      scale_cfg,
      exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog),
      scale_trace);
  const auto stop = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  const uint64_t base_digest = exp::run_metrics_digest(m);
  scale.add_row({Table::fmt(ms, 1), exp::digest_hex(base_digest)});
  // Simulated-outcome integrals: the determinism gate below pins the
  // digest, so these only move when behavior changes and bench_diff flags
  // them at zero tolerance drift rather than runner noise.
  artifact.add("fig12_p99_latency_s", m.p99_latency(), "s");
  artifact.add("fig12_avg_cpu_utilization", m.avg_cpu_utilization(),
               "fraction", "higher");
  artifact.add("fig12_avg_mem_utilization", m.avg_mem_utilization(),
               "fraction", "higher");
  artifact.add("fig12_completion_time_s", m.workload_completion_time(), "s");
  scale.print(std::cout);

  if (!cli.json_out.empty()) {
    std::string error;
    if (!exp::merge_bench_artifact(cli.json_out, artifact, &error)) {
      std::cerr << "bench artifact export failed: " << error << "\n";
      return 1;
    }
    std::cout << "merged " << artifact.rows.size() << " perf rows into "
              << cli.json_out << "\n";
  }
  // Determinism gate on a second, untimed run of the same burst: with
  // --obs the observability session captures it (and must not move the
  // simulation); without, it is a plain same-seed replay.
  std::unique_ptr<obs::ObsSession> obs_session;
  if (cli.obs_requested())
    obs_session = std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
  const auto replay = exp::run_experiment(
      scale_cfg,
      exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog),
      scale_trace, obs_session.get());
  const char* const replay_kind = obs_session ? "obs" : "replayed";
  if (exp::run_metrics_digest(replay) != base_digest) {
    std::cout << "\nDETERMINISM FAILURE: the " << replay_kind
              << " run's RunMetrics digest differs from the timed run's.\n";
    return 1;
  }
  std::cout << "\nPaper: completion falls with more schedulers/nodes, weak "
               "scaling stays flat, overhead stays under 1 ms.\nDeterminism "
               "gate: digests identical (timed run vs "
            << replay_kind << " run).\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
