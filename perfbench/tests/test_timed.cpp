// Tests of the benchmark's own pieces: the layer clock's self-time
// accounting, the timed wrappers' forwarding of every call, and — the
// end-to-end form of the same property — each workload, at a small size,
// producing the same RunMetrics digest traced and untraced.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "baselines/default_policy.h"
#include "exp/runner.h"
#include "layer_clock.h"
#include "timed.h"
#include "workload/function_catalog.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace lb = libra;
using lb::sim::EngineApi;
using lb::sim::Invocation;
using lb::sim::NodeId;

TEST(LayerClock, ChargesSelfTimeAndAccountsForEveryNanosecond) {
  LayerClock clock;
  {
    LayerClock::Scope outer(&clock, Layer::kPlan);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      LayerClock::Scope inner(&clock, Layer::kAudit);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  {
    LayerClock::Scope again(&clock, Layer::kAudit);
  }
  EXPECT_EQ(clock.depth(), 0u);
  EXPECT_EQ(clock.calls(Layer::kPlan), 1);
  EXPECT_EQ(clock.calls(Layer::kAudit), 2);
  EXPECT_GE(clock.self_ns(Layer::kAudit), 5'000'000);
  // The plan span is charged its own 2 ms, not its child's 5 ms.
  EXPECT_GE(clock.self_ns(Layer::kPlan), 2'000'000);
  EXPECT_LT(clock.self_ns(Layer::kPlan), clock.self_ns(Layer::kAudit));
  int64_t sum = 0;
  for (size_t i = 0; i < kLayers; ++i) sum += clock.self_ns(Layer(i));
  EXPECT_EQ(sum, clock.top_level_ns());
}

/// Counts every virtual call and returns recognisable values.
class RecordingPolicy final : public lb::sim::Policy {
 public:
  std::map<std::string, int> calls;

  std::string name() const override { return "recording"; }
  void predict(Invocation&) override { ++calls["predict"]; }
  std::optional<lb::sim::PredictionMemo> speculate_predict(
      const Invocation&) const override {
    ++mutable_calls()["speculate_predict"];
    lb::sim::PredictionMemo memo;
    memo.pred_duration = 7.0;
    return memo;
  }
  void commit_predict(Invocation&, const lb::sim::PredictionMemo&) override {
    ++calls["commit_predict"];
  }
  NodeId select_node(Invocation&, EngineApi&) override {
    ++calls["select_node"];
    return 3;
  }
  std::optional<NodeId> speculate_select(const Invocation&,
                                         const EngineApi&) const override {
    ++mutable_calls()["speculate_select"];
    return NodeId{4};
  }
  void commit_select(Invocation&, EngineApi&) override {
    ++calls["commit_select"];
  }
  lb::sim::AllocationPlan plan_allocation(Invocation&, EngineApi&) override {
    ++calls["plan_allocation"];
    return {lb::sim::Resources{1.5, 64.0}};
  }
  bool wants_monitor(const Invocation&) const override {
    ++mutable_calls()["wants_monitor"];
    return true;
  }
  void on_monitor(Invocation&, EngineApi&) override { ++calls["on_monitor"]; }
  void on_complete(Invocation&, EngineApi&) override {
    ++calls["on_complete"];
  }
  void on_oom(Invocation&, EngineApi&) override { ++calls["on_oom"]; }
  void on_evicted(Invocation&, EngineApi&) override { ++calls["on_evicted"]; }
  void on_health_ping(NodeId, EngineApi&) override {
    ++calls["on_health_ping"];
  }
  void on_node_down(NodeId, EngineApi&) override { ++calls["on_node_down"]; }
  void on_node_up(NodeId, EngineApi&) override { ++calls["on_node_up"]; }
  void on_finalized(const Invocation&) override { ++calls["on_finalized"]; }
  void on_drain_notice(NodeId, lb::sim::SimTime, EngineApi&) override {
    ++calls["on_drain_notice"];
  }
  lb::sim::PolicyStats stats() const override {
    lb::sim::PolicyStats s;
    s.harvest_puts = 11;
    return s;
  }

 private:
  std::map<std::string, int>& mutable_calls() const {
    return const_cast<RecordingPolicy*>(this)->calls;
  }
};

TEST(TimedPolicy, ForwardsEveryVirtualCall) {
  auto inner = std::make_shared<RecordingPolicy>();
  LayerClock clock;
  TimedPolicy timed(inner, &clock);
  // Any EngineApi will do; the recording policy never touches it.
  lb::sim::Engine engine(lb::exp::single_node_config(),
                         std::make_shared<lb::baselines::DefaultPolicy>());
  Invocation inv;

  EXPECT_EQ(timed.name(), "recording");
  timed.predict(inv);
  EXPECT_EQ(timed.speculate_predict(inv)->pred_duration, 7.0);
  timed.commit_predict(inv, {});
  EXPECT_EQ(timed.select_node(inv, engine), 3);
  EXPECT_EQ(timed.speculate_select(inv, engine), NodeId{4});
  timed.commit_select(inv, engine);
  EXPECT_EQ(timed.plan_allocation(inv, engine).effective.cpu, 1.5);
  EXPECT_TRUE(timed.wants_monitor(inv));
  timed.on_monitor(inv, engine);
  timed.on_complete(inv, engine);
  timed.on_oom(inv, engine);
  timed.on_evicted(inv, engine);
  timed.on_health_ping(0, engine);
  timed.on_node_down(0, engine);
  timed.on_node_up(0, engine);
  timed.on_finalized(inv);
  timed.on_drain_notice(0, 1.0, engine);
  EXPECT_EQ(timed.stats().harvest_puts, 11);

  const char* kForwarded[] = {
      "predict",        "speculate_predict", "commit_predict",
      "select_node",    "speculate_select",  "commit_select",
      "plan_allocation", "wants_monitor",    "on_monitor",
      "on_complete",    "on_oom",            "on_evicted",
      "on_health_ping", "on_node_down",      "on_node_up",
      "on_finalized",   "on_drain_notice"};
  for (const char* call : kForwarded) EXPECT_EQ(inner->calls[call], 1) << call;
  EXPECT_EQ(inner->calls.size(), std::size(kForwarded));
  EXPECT_EQ(timed.counts().predicts, 1);
  EXPECT_EQ(timed.counts().speculated_predicts, 1);
  EXPECT_EQ(clock.depth(), 0u);
  EXPECT_EQ(clock.calls(Layer::kPredict), 3);
  EXPECT_EQ(clock.calls(Layer::kSelect), 3);
}

TEST(TimedSource, ForwardsTheStreamUnchanged) {
  const auto catalog = lb::workload::sebs_catalog();
  lb::workload::TraceConfig tc;
  tc.rpm = 120.0;
  const auto trace = lb::workload::generate_trace(catalog, tc);
  lb::workload::MaterializedSource plain(trace);
  lb::workload::MaterializedSource wrapped_inner(trace);
  LayerClock clock;
  TimedSource timed(&wrapped_inner, &clock);
  EXPECT_EQ(timed.horizon(), plain.horizon());
  EXPECT_EQ(timed.size_hint(), plain.size_hint());
  size_t n = 0;
  while (auto t = plain.peek_arrival()) {
    ASSERT_EQ(timed.peek_arrival(), t);
    EXPECT_EQ(timed.next().id, plain.next().id);
    ++n;
  }
  EXPECT_FALSE(timed.peek_arrival().has_value());
  EXPECT_EQ(n, trace.size());
  EXPECT_EQ(clock.calls(Layer::kPull), static_cast<long>(2 * n + 1));
}

/// A policy that is also a pool-status provider, as LibraPolicy is.
class StatusPolicy final : public lb::sim::Policy,
                           public lb::core::PoolStatusProvider {
 public:
  mutable int status_calls = 0;
  lb::core::PoolStatus status;

  std::string name() const override { return "status"; }
  void predict(Invocation&) override {}
  NodeId select_node(Invocation&, EngineApi&) override { return 0; }
  lb::sim::AllocationPlan plan_allocation(Invocation&, EngineApi&) override {
    return {};
  }
  const lb::core::PoolStatus& pool_status(NodeId) const override {
    ++status_calls;
    return status;
  }
};

TEST(TimedPolicy, KeepsPoolStatusProviderVisibleOnlyWhenInnerIsOne) {
  LayerClock clock;
  const auto plain = make_timed_policy(std::make_shared<RecordingPolicy>(),
                                       &clock);
  EXPECT_EQ(dynamic_cast<const lb::core::PoolStatusProvider*>(plain.get()),
            nullptr);

  auto inner = std::make_shared<StatusPolicy>();
  const auto timed = make_timed_policy(inner, &clock);
  const auto* provider =
      dynamic_cast<const lb::core::PoolStatusProvider*>(timed.get());
  ASSERT_NE(provider, nullptr);
  EXPECT_EQ(&provider->pool_status(2), &inner->status);
  EXPECT_EQ(inner->status_calls, 1);
}

struct CountingHook final : lb::sim::EngineAuditHook,
                            lb::core::PoolEventListener,
                            lb::core::PolicyEventListener {
  int engine = 0, pool = 0, policy = 0;
  void on_engine_event(EngineApi&, const lb::sim::EngineEvent&) override {
    ++engine;
  }
  void on_pool_event(const lb::core::PoolEvent&) override { ++pool; }
  void on_policy_event(const lb::core::PolicyEvent&) override { ++policy; }
};

TEST(TimedListeners, ForwardEveryEvent) {
  CountingHook inner;
  LayerClock clock;
  TimedHook hook(&inner, &clock, Layer::kAudit);
  TimedPoolListener pool(&inner, &clock, Layer::kAudit);
  TimedPolicyListener policy(&inner, &clock, Layer::kObs);
  lb::sim::Engine engine(lb::exp::single_node_config(),
                         std::make_shared<lb::baselines::DefaultPolicy>());
  hook.on_engine_event(engine, {});
  hook.on_engine_event(engine, {});
  pool.on_pool_event({});
  policy.on_policy_event({});
  EXPECT_EQ(inner.engine, 2);
  EXPECT_EQ(inner.pool, 1);
  EXPECT_EQ(inner.policy, 1);
  EXPECT_EQ(hook.events(), 2);
  EXPECT_EQ(clock.calls(Layer::kAudit), 3);
  EXPECT_EQ(clock.calls(Layer::kObs), 1);
}

class WorkloadDigest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadDigest, TracedRunReproducesUntracedDigest) {
  const auto start = std::chrono::steady_clock::now();
  const Totals plain = run_workload(GetParam(), 7, Scale::kSmall, false, start);
  const Totals traced = run_workload(GetParam(), 7, Scale::kSmall, true, start);
  EXPECT_TRUE(plain.failures.empty()) << plain.failures.front();
  EXPECT_TRUE(traced.failures.empty()) << traced.failures.front();
  EXPECT_GT(plain.finalized, 0);
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.finalized, traced.finalized);
  EXPECT_EQ(plain.latencies, traced.latencies);
  EXPECT_GT(traced.engine_events, 0);
  // Every nanosecond of the traced run is charged to some layer or to the
  // engine itself.
  double shares = 0.0;
  for (const auto& [layer, share] : layer_shares(traced)) shares += share;
  EXPECT_NEAR(shares, 1.0, 1e-9);
  EXPECT_EQ(layer_shares(traced).at("sim.engine.self"),
            layer_metrics(traced, plain).at("sim.engine.self_share"));
  // A different seed is a different workload.
  const Totals other = run_workload(GetParam(), 8, Scale::kSmall, false, start);
  EXPECT_NE(plain.digest, other.digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDigest, ::testing::ValuesIn(all_workloads()),
    [](const ::testing::TestParamInfo<Workload>& info) {
      return std::string(workload_name(info.param));
    });

}  // namespace
}  // namespace perfbench
