// The audit framework, the node quiescence checks and the invariant auditor
// — including the NEGATIVE tests: seeded violations must actually fire. A
// scoped failure handler observes the diagnostics instead of aborting (death
// tests are fragile under TSan), so every test here runs under every
// sanitizer configuration.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "audit_test_support.h"
#include "core/harvest_pool.h"
#include "core/libra_policy.h"
#include "core/profiler.h"
#include "exp/runner.h"
#include "sim/engine.h"
#include "sim/node.h"
#include "util/audit.h"
#include "util/rng.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra {
namespace {

using sim::Resources;
using test_support::AuditCapture;
using test_support::FakeApi;

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  return cat;
}

std::shared_ptr<core::LibraPolicy> make_libra_policy(bool trust = false) {
  core::ProfilerConfig pcfg;
  auto profiler = std::make_shared<core::Profiler>(pcfg, catalog());
  profiler->prewarm(*catalog(), 1234, 30);
  core::LibraPolicyConfig cfg;
  cfg.trust_enabled = trust;
  return core::LibraPolicy::with_coverage_scheduler(cfg, profiler);
}

// ---------------------------------------------------------------------------
// Framework
// ---------------------------------------------------------------------------

TEST(AuditFramework, PassingCheckReportsNothing) {
  AuditCapture capture;
  LIBRA_AUDIT_CHECK(1 + 1 == 2, "never printed");
  EXPECT_FALSE(capture.fired());
}

TEST(AuditFramework, DiagnosticCarriesContextAndDetail) {
  AuditCapture capture;
  util::audit::set_context(42, 3.5);
  const int entry = 7;
  LIBRA_AUDIT_CHECK(entry < 0, "offending entry " << entry << " (cpu 2)");
  util::audit::set_context(-1, -1.0);

  ASSERT_EQ(capture.diags().size(), 1u);
  const auto& d = capture.diags()[0];
  EXPECT_EQ(d.event_id, 42);
  EXPECT_DOUBLE_EQ(d.sim_time, 3.5);
  EXPECT_EQ(d.check, "entry < 0");
  EXPECT_EQ(d.detail, "offending entry 7 (cpu 2)");
  EXPECT_NE(d.to_string().find("invariant violated"), std::string::npos);
  EXPECT_NE(d.to_string().find("event_id=42"), std::string::npos);
}

TEST(AuditFramework, FailureCounterAdvances) {
  AuditCapture capture;
  const long before = util::audit::failures_observed();
  LIBRA_AUDIT_CHECK(false, "counted");
  EXPECT_EQ(util::audit::failures_observed(), before + 1);
}

// ---------------------------------------------------------------------------
// Node quiescence (the former bare asserts in node.cpp)
// ---------------------------------------------------------------------------

TEST(NodeAudit, QuiescentNodePasses) {
  sim::Node node(0, {8.0, 8192.0}, /*num_shards=*/2);
  AuditCapture capture;
  node.check_quiescent();
  EXPECT_FALSE(capture.fired());
}

TEST(NodeAudit, LeftoverReservationFiresWithNodeState) {
  sim::Node node(3, {8.0, 8192.0}, /*num_shards=*/2);
  ASSERT_TRUE(node.try_reserve(1, {2.0, 512.0}));
  AuditCapture capture;
  node.check_quiescent();
  ASSERT_TRUE(capture.fired());
  // The diagnostic must name the node and its surviving allocation.
  const auto& d = capture.diags()[0];
  EXPECT_NE(d.detail.find("node=3"), std::string::npos) << d.detail;
  EXPECT_NE(d.detail.find("2"), std::string::npos) << d.detail;
}

TEST(NodeAudit, LeftoverRunningCountFires) {
  sim::Node node(5, {8.0, 8192.0}, 1);
  node.invocation_started();
  AuditCapture capture;
  node.check_quiescent();
  EXPECT_TRUE(capture.fired());
}

// ---------------------------------------------------------------------------
// Negative tests: seeded pool violations must fire
// ---------------------------------------------------------------------------

TEST(AuditNegative, SeededConservationViolationFiresOnAuditNow) {
  core::HarvestResourcePool pool;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.corrupt_for_audit_test(1, {1.0, 0.0});  // idle grows, ledger does not

  AuditCapture capture;
  pool.audit_now(1.0);
  ASSERT_TRUE(capture.fired());
  EXPECT_NE(capture.diags()[0].detail.find("source=1"), std::string::npos)
      << capture.diags()[0].detail;
}

TEST(AuditNegative, SeededViolationCaughtByNextMutation) {
  core::HarvestResourcePool pool;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.corrupt_for_audit_test(1, {0.5, 0.0});

  AuditCapture capture;
  // Any mutating operation re-runs the conservation audit.
  pool.put(2, {1.0, 64.0}, 20.0, 1.0);
  EXPECT_TRUE(capture.fired());
}

TEST(AuditNegative, TinyNegativeGrantFiresOnAuditNow) {
  core::HarvestResourcePool pool;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  // A grant of -1e-12 cpu, with the harvested ledger moved in lockstep so
  // conservation holds: only the grant bound (>= 0, no tolerance) sees it.
  pool.corrupt_tenant_for_audit_test(/*source=*/1, /*borrower=*/2,
                                     /*tenant=*/0, {-1e-12, 0.0});
  AuditCapture capture;
  pool.audit_now(1.0);
  EXPECT_TRUE(capture.fired_with("negative borrow amount"));
}

TEST(AuditNegative, HealthyPoolNeverFires) {
  core::HarvestResourcePool pool;
  AuditCapture capture;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.get({1.0, 128.0}, 9, 0.5);
  pool.reharvest(9, 1.0);
  pool.preempt_source(1, 2.0);
  pool.audit_now(3.0);
  EXPECT_FALSE(capture.fired());
}

// ---------------------------------------------------------------------------
// Negative tests: seeded cross-layer violations must fire in the sweep
// ---------------------------------------------------------------------------

/// One auditor sweep over `api`, as after a dispatched engine event.
void sweep(analysis::InvariantAuditor& auditor, sim::EngineApi& api) {
  auditor.on_engine_event(api, sim::EngineEvent{"test", 0});
}

/// A policy whose node-0 pool holds one entry sourced from invocation 1 and
/// one grant lent to invocation 2, both alive in `api`.
std::shared_ptr<core::LibraPolicy> lend_one_grant(
    analysis::InvariantAuditor& auditor, FakeApi& api) {
  auto policy = make_libra_policy();
  auditor.attach_policy(policy.get());
  api.add_invocation(1, /*func=*/0);
  api.add_invocation(2, /*func=*/0);
  policy->pool(0).put(1, {2.0, 256.0}, 100.0, 0.0);
  EXPECT_FALSE(policy->pool(0).get({1.0, 128.0}, 2, 0.5).empty());
  AuditCapture healthy;
  sweep(auditor, api);
  EXPECT_FALSE(healthy.fired());
  return policy;
}

TEST(AuditNegative, SweepGrantFromFinishedSourceFires) {
  analysis::InvariantAuditor auditor;
  FakeApi api;
  const auto policy = lend_one_grant(auditor, api);
  api.invocation(1).done = true;  // finished without preempt_source
  AuditCapture capture;
  sweep(auditor, api);
  EXPECT_TRUE(capture.fired_with("grant sourced from invocation 1"));
}

TEST(AuditNegative, SweepGrantToFinishedBorrowerFires) {
  analysis::InvariantAuditor auditor;
  FakeApi api;
  const auto policy = lend_one_grant(auditor, api);
  api.invocation(2).done = true;  // finished without reharvest
  AuditCapture capture;
  sweep(auditor, api);
  EXPECT_TRUE(capture.fired_with("grant lent to invocation 2"));
}

TEST(AuditNegative, SweepPoolEntryFromFinishedSourceFires) {
  analysis::InvariantAuditor auditor;
  auto policy = make_libra_policy();
  auditor.attach_policy(policy.get());
  FakeApi api;
  api.add_invocation(1, /*func=*/0);
  policy->pool(0).put(1, {2.0, 256.0}, 100.0, 0.0);
  {
    AuditCapture healthy;
    sweep(auditor, api);
    EXPECT_FALSE(healthy.fired());
  }
  // No grant references the source, so only the entry-liveness check can
  // see that its idle volume outlived the invocation.
  api.invocation(1).done = true;
  AuditCapture capture;
  sweep(auditor, api);
  EXPECT_TRUE(capture.fired_with("entry sourced from invocation 1"));
}

TEST(AuditNegative, SweepNonEmptyPoolOnDownNodeFires) {
  analysis::InvariantAuditor auditor;
  FakeApi api;
  const auto policy = lend_one_grant(auditor, api);
  api.node(0).set_up(false);  // crashed without preempt_all
  AuditCapture capture;
  sweep(auditor, api);
  EXPECT_TRUE(capture.fired_with("pool of DOWN node 0 is not empty"));
}

TEST(AuditNegative, SweepStashedPredictionForDeadIdFires) {
  analysis::InvariantAuditor auditor;
  auto policy = make_libra_policy(/*trust=*/true);
  auditor.attach_policy(policy.get());
  FakeApi api;
  util::Rng rng(3);
  auto inv = workload::make_invocation(
      *catalog(), 9, 0, catalog()->at(0).sample_input(rng), 1.0);
  api.add_invocation(9, 0);
  policy->predict(inv);  // trust on: the raw prediction is stashed
  {
    AuditCapture healthy;
    sweep(auditor, api);
    EXPECT_FALSE(healthy.fired());
  }
  FakeApi without_nine;  // invocation 9 is gone, its stash entry is not
  AuditCapture capture;
  sweep(auditor, without_nine);
  EXPECT_TRUE(capture.fired_with("raw-prediction stash holds invocation 9"));
}

TEST(AuditNegative, SweepNodeAllocatedMismatchFires) {
  analysis::InvariantAuditor auditor;  // no policy: node accounting only
  FakeApi api;
  api.add_invocation(1, /*func=*/0);
  api.place(1, {2.0, 512.0});
  ASSERT_TRUE(api.node(0).try_reserve(0, {2.0, 512.0}));
  {
    AuditCapture healthy;
    sweep(auditor, api);
    EXPECT_FALSE(healthy.fired());
  }
  ASSERT_TRUE(api.node(0).try_reserve(0, {1.0, 128.0}));  // nobody's
  AuditCapture capture;
  sweep(auditor, api);
  EXPECT_TRUE(capture.fired_with("node 0 allocated totals"));
}

TEST(AuditNegative, SweepPlacedOnInvalidNodeFires) {
  analysis::InvariantAuditor auditor;
  FakeApi api;
  api.add_invocation(1, /*func=*/0);
  api.place(1, {2.0, 512.0});
  api.invocation(1).node = 7;  // the fake cluster has node 0 only
  AuditCapture capture;
  sweep(auditor, api);  // reports, and must not index node 7's tally
  EXPECT_TRUE(capture.fired_with("references invalid node 7"));
}

// ---------------------------------------------------------------------------
// InvariantAuditor: pool-event path
// ---------------------------------------------------------------------------

TEST(InvariantAuditor, ObservesEveryPoolMutation) {
  analysis::InvariantAuditor auditor;
  core::HarvestResourcePool pool;
  pool.set_event_listener(&auditor);

  AuditCapture capture;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.get({1.0, 128.0}, 9, 0.5);
  pool.reharvest(9, 1.0);
  pool.preempt_source(1, 2.0);
  EXPECT_EQ(auditor.stats().pool_events, 4);
  EXPECT_FALSE(capture.fired());
}

TEST(InvariantAuditor, ListenerAttachesToFuturePools) {
  analysis::InvariantAuditor auditor;
  auto policy = make_libra_policy();
  auditor.attach_policy(policy.get());
  // The pool for node 0 does not exist yet; it is created on first access
  // and must come back with the listener already installed.
  AuditCapture capture;
  policy->pool(0).put(1, {1.0, 128.0}, 5.0, 0.0);
  EXPECT_EQ(auditor.stats().pool_events, 1);
  EXPECT_FALSE(capture.fired());
}

// ---------------------------------------------------------------------------
// InvariantAuditor: engine-sweep path
// ---------------------------------------------------------------------------

TEST(InvariantAuditor, SweepsEveryEngineEventInLibraRun) {
  analysis::InvariantAuditor auditor;
  auto policy = make_libra_policy();
  auditor.attach_policy(policy.get());

  auto cfg = exp::single_node_config();
  cfg.audit_hook = &auditor;

  const long failures_before = util::audit::failures_observed();
  sim::Engine engine(cfg, policy);
  auto m = engine.run(workload::single_node_trace(*catalog(), 7));
  EXPECT_EQ(m.incomplete, 0);
  EXPECT_EQ(util::audit::failures_observed(), failures_before);

  // every_n defaults to 1: every dispatched event is swept, and a Libra run
  // mutates pools so the listener path fired too.
  EXPECT_GT(auditor.stats().engine_events, 0);
  EXPECT_EQ(auditor.stats().sweeps, auditor.stats().engine_events);
  EXPECT_GT(auditor.stats().pool_events, 0);
}

TEST(InvariantAuditor, SamplingHonorsEveryN) {
  analysis::InvariantAuditorConfig cfg;
  cfg.every_n = 5;
  analysis::InvariantAuditor auditor(cfg);
  auto policy = make_libra_policy();
  auditor.attach_policy(policy.get());

  auto engine_cfg = exp::single_node_config();
  engine_cfg.audit_hook = &auditor;
  sim::Engine engine(engine_cfg, policy);
  engine.run(workload::single_node_trace(*catalog(), 11));

  ASSERT_GT(auditor.stats().engine_events, 10);
  EXPECT_LT(auditor.stats().sweeps, auditor.stats().engine_events);
  // Exactly the events whose id is a multiple of 5.
  EXPECT_NEAR(static_cast<double>(auditor.stats().sweeps),
              static_cast<double>(auditor.stats().engine_events) / 5.0, 1.0);
}

TEST(InvariantAuditor, RunExperimentWiresAuditorByDefault) {
  // exp::run_experiment installs the auditor on every run; a healthy run
  // must complete without a single audit failure.
  const long failures_before = util::audit::failures_observed();
  auto m = exp::run_experiment(exp::single_node_config(), make_libra_policy(),
                               workload::single_node_trace(*catalog(), 7));
  EXPECT_EQ(m.incomplete, 0);
  EXPECT_EQ(util::audit::failures_observed(), failures_before);
}

}  // namespace
}  // namespace libra
