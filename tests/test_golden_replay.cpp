// Golden-replay guard for the Cluster / Lifecycle / Controller decomposition:
// proves that the barrier-batched sharded controller, which commits one
// Policy::select_node call per decision in shard-registration order,
// produces BIT-IDENTICAL RunMetrics to the pre-refactor monolithic engine,
// with 1 and with 4 front-end controllers, across baselines, Libra and
// Libra+Trust platforms and the order-dependent baseline schedulers. Every
// case runs through the engine's one run loop: Engine::run(vector) pulls the
// trace through workload::MaterializedSource.
//
// The pinned constants were captured from the monolithic engine (commit
// 54422fc, before the decomposition) with tools/golden_capture.cpp at the
// default RelWithDebInfo build; the capture was repeated at -O3 with the same
// result, so they are stable across optimization levels on this toolchain.
// If a deliberate semantic change moves them, re-run the capture tool and
// update the table — never update it to paper over an unexplained diff.
//
// Re-captured (libra, libra_trust, sched_jsq, sched_mws only) after the
// libra-lint unordered-iteration fixes: end-of-run finalization of unfinished
// invocations and the pool idle-integral accumulation now run in sorted key
// order instead of unordered_map bucket order, so record order and FP
// summation order no longer depend on the standard library's hash layout.
// default/freyr/sched_rr were bit-identical before and after, confirming the
// diff is exactly the ordering fix.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "exp/digest.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra {
namespace {

struct GoldenCase {
  const char* name;
  uint64_t digest;  // captured from the pre-refactor engine
};

// Prints the scenario name, so ctest names stay stable across builds (the
// default printer dumps the object's bytes, a string-literal address).
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

constexpr GoldenCase kGolden[] = {
    {"default", 0xf87d77ec968fee23ull},
    {"freyr", 0xb9ecae76596e2c0eull},
    {"libra", 0xbdec2ebdc6363975ull},
    {"libra_trust", 0x7892a708f69cac46ull},
    {"sched_rr", 0x59f634a72cbb53b6ull},
    {"sched_jsq", 0x9369a98c5da485c1ull},
    {"sched_mws", 0x4904b0ebd4f07e4aull},
};

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  return cat;
}

// Builds the scenario fresh on every call: policies are stateful, so each
// (scenario, controller-count) run needs its own instance.
uint64_t run_scenario(const std::string& name, int controllers = 1) {
  auto cat = catalog();
  sim::EngineConfig cfg;
  std::shared_ptr<sim::Policy> policy;
  std::vector<sim::Invocation> trace;
  if (name == "default" || name == "freyr" || name == "libra" ||
      name == "libra_trust") {
    cfg = exp::jetstream_config(8, 4);
    trace = workload::multi_trace(*cat, 120, 5);
    const exp::PlatformKind kind =
        name == "default"  ? exp::PlatformKind::kDefault
        : name == "freyr"  ? exp::PlatformKind::kFreyr
        : name == "libra"  ? exp::PlatformKind::kLibra
                           : exp::PlatformKind::kLibraTrust;
    policy = exp::make_platform(kind, cat);
  } else {
    cfg = exp::multi_node_config(4);
    trace = workload::multi_trace(*cat, 120, 7);
    const exp::SchedulerKind kind =
        name == "sched_rr"    ? exp::SchedulerKind::kRoundRobin
        : name == "sched_jsq" ? exp::SchedulerKind::kJsq
                              : exp::SchedulerKind::kMws;
    policy = exp::make_scheduler_platform(kind, cat);
  }
  cfg.control.num_controllers = controllers;
  const auto metrics = exp::run_experiment(cfg, policy, std::move(trace));
  return exp::run_metrics_digest(metrics);
}

class GoldenReplay : public ::testing::TestWithParam<GoldenCase> {};

// One front-end controller: the single-controller engine the digests were
// captured from.
TEST_P(GoldenReplay, MatchesPreRefactorEngine) {
  const auto& c = GetParam();
  EXPECT_EQ(exp::digest_hex(run_scenario(c.name)), exp::digest_hex(c.digest))
      << "scenario " << c.name << " diverged from the pre-refactor engine";
}

// Multi-controller digest identity (DESIGN.md §5k): with pass-through gossip
// and full fan-out, every controller's pool-view cache equals the policy's
// own piggybacked snapshot at all times, so sharding the catalog across four
// front ends — with work stealing enabled — must still reproduce the
// pre-refactor digests bit-for-bit.
TEST_P(GoldenReplay, FourControllersMatchPreRefactorEngine) {
  const auto& c = GetParam();
  EXPECT_EQ(exp::digest_hex(run_scenario(c.name, /*controllers=*/4)),
            exp::digest_hex(c.digest))
      << "scenario " << c.name << " diverged from the pre-refactor engine "
      << "with 4 controllers — catalog sharding, gossip caches or work "
      << "stealing leaked into engine behaviour";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, GoldenReplay,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The digest itself must be stable across identical runs (no iteration-order
// or address-dependent leakage into the hash).
TEST(GoldenReplayDigest, DeterministicAcrossIdenticalRuns) {
  EXPECT_EQ(run_scenario("libra"), run_scenario("libra"));
}

}  // namespace
}  // namespace libra
