// Forwarding wrappers for the traced benchmark run. Each one sits on a seam
// the simulator already exposes (sim::Policy, gen::TraceSource,
// sim::EngineAuditHook, core::PoolEventListener, core::PolicyEventListener),
// forwards every call unchanged to the wrapped object, and charges the call
// to a layer of a LayerClock. They never touch simulation state, so a
// wrapped run must reproduce the unwrapped run's RunMetrics digest — the
// benchmark checks exactly that on every traced run.
#pragma once

#include <memory>

#include "core/policy_event.h"
#include "core/pool_event.h"
#include "core/pool_status.h"
#include "gen/trace_source.h"
#include "layer_clock.h"
#include "sim/audit_hook.h"
#include "sim/policy.h"

namespace perfbench {

/// Wraps a Policy and forwards every virtual, including the speculative
/// speculate_* / commit_* pairs. Hides the concrete policy type from
/// exp::run_experiment's dynamic_cast, so the caller wires the auditor itself
/// (see workloads.cpp). Build it with make_timed_policy, which keeps the
/// wrapped policy's PoolStatusProvider side visible to the control plane.
class TimedPolicy : public libra::sim::Policy {
 public:
  struct Counts {
    long predicts = 0;            // serial predict() calls
    long speculated_predicts = 0; // speculate_predict() calls returning a memo
  };

  TimedPolicy(std::shared_ptr<libra::sim::Policy> inner, LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  const Counts& counts() const { return counts_; }

  std::string name() const override { return inner_->name(); }
  void predict(libra::sim::Invocation& inv) override;
  std::optional<libra::sim::PredictionMemo> speculate_predict(
      const libra::sim::Invocation& inv) const override;
  void commit_predict(libra::sim::Invocation& inv,
                      const libra::sim::PredictionMemo& memo) override;
  libra::sim::NodeId select_node(libra::sim::Invocation& inv,
                                 libra::sim::EngineApi& api) override;
  std::optional<libra::sim::NodeId> speculate_select(
      const libra::sim::Invocation& inv,
      const libra::sim::EngineApi& api) const override;
  void commit_select(libra::sim::Invocation& inv,
                     libra::sim::EngineApi& api) override;
  libra::sim::AllocationPlan plan_allocation(
      libra::sim::Invocation& inv, libra::sim::EngineApi& api) override;
  bool wants_monitor(const libra::sim::Invocation& inv) const override;
  void on_monitor(libra::sim::Invocation& inv,
                  libra::sim::EngineApi& api) override;
  void on_complete(libra::sim::Invocation& inv,
                   libra::sim::EngineApi& api) override;
  void on_oom(libra::sim::Invocation& inv,
              libra::sim::EngineApi& api) override;
  void on_evicted(libra::sim::Invocation& inv,
                  libra::sim::EngineApi& api) override;
  void on_health_ping(libra::sim::NodeId node,
                      libra::sim::EngineApi& api) override;
  void on_node_down(libra::sim::NodeId node,
                    libra::sim::EngineApi& api) override;
  void on_node_up(libra::sim::NodeId node,
                  libra::sim::EngineApi& api) override;
  void on_finalized(const libra::sim::Invocation& inv) override;
  void on_drain_notice(libra::sim::NodeId node, libra::sim::SimTime deadline,
                       libra::sim::EngineApi& api) override;
  libra::sim::PolicyStats stats() const override { return inner_->stats(); }

 protected:
  std::shared_ptr<libra::sim::Policy> inner_;
  LayerClock* clock_;

 private:
  // The speculate_* hooks are const; the counters are benchmark state, not
  // policy state.
  mutable Counts counts_;
};

/// TimedPolicy over a policy that is also a core::PoolStatusProvider (Libra):
/// the multi-controller control plane dynamic_casts the engine's policy to
/// one to feed its gossip caches.
class TimedStatusPolicy final : public TimedPolicy,
                                public libra::core::PoolStatusProvider {
 public:
  TimedStatusPolicy(std::shared_ptr<libra::sim::Policy> inner,
                    const libra::core::PoolStatusProvider* provider,
                    LayerClock* clock)
      : TimedPolicy(std::move(inner), clock), provider_(provider) {}

  const libra::core::PoolStatus& pool_status(
      libra::sim::NodeId node) const override;

 private:
  const libra::core::PoolStatusProvider* provider_;
};

/// A TimedStatusPolicy when `inner` is a PoolStatusProvider, else a plain
/// TimedPolicy — so the wrapper changes no dynamic_cast the engine makes.
std::shared_ptr<TimedPolicy> make_timed_policy(
    std::shared_ptr<libra::sim::Policy> inner, LayerClock* clock);

/// Times the generator pull (peek_arrival / next); horizon and size_hint
/// forward untimed — size_hint also keys the runner's audit sampling.
class TimedSource final : public libra::gen::TraceSource {
 public:
  TimedSource(libra::gen::TraceSource* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  std::optional<libra::sim::SimTime> peek_arrival() override;
  libra::sim::Invocation next() override;
  libra::sim::SimTime horizon() const override { return inner_->horizon(); }
  size_t size_hint() const override { return inner_->size_hint(); }

 private:
  libra::gen::TraceSource* inner_;
  LayerClock* clock_;
};

/// Times one engine-event consumer (the auditor or the obs session) and
/// counts the events it saw.
class TimedHook final : public libra::sim::EngineAuditHook {
 public:
  TimedHook(libra::sim::EngineAuditHook* inner, LayerClock* clock, Layer layer)
      : inner_(inner), clock_(clock), layer_(layer) {}

  void on_engine_event(libra::sim::EngineApi& api,
                       const libra::sim::EngineEvent& ev) override;
  long events() const { return events_; }

 private:
  libra::sim::EngineAuditHook* inner_;
  LayerClock* clock_;
  Layer layer_;
  long events_ = 0;
};

class TimedPoolListener final : public libra::core::PoolEventListener {
 public:
  TimedPoolListener(libra::core::PoolEventListener* inner, LayerClock* clock,
                    Layer layer)
      : inner_(inner), clock_(clock), layer_(layer) {}

  void on_pool_event(const libra::core::PoolEvent& ev) override;

 private:
  libra::core::PoolEventListener* inner_;
  LayerClock* clock_;
  Layer layer_;
};

class TimedPolicyListener final : public libra::core::PolicyEventListener {
 public:
  TimedPolicyListener(libra::core::PolicyEventListener* inner,
                      LayerClock* clock, Layer layer)
      : inner_(inner), clock_(clock), layer_(layer) {}

  void on_policy_event(const libra::core::PolicyEvent& ev) override;

 private:
  libra::core::PolicyEventListener* inner_;
  LayerClock* clock_;
  Layer layer_;
};

}  // namespace perfbench
