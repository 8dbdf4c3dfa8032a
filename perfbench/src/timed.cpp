#include "timed.h"

namespace perfbench {

using libra::sim::EngineApi;
using libra::sim::Invocation;
using libra::sim::NodeId;
using Scope = LayerClock::Scope;

void TimedPolicy::predict(Invocation& inv) {
  Scope s(clock_, Layer::kPredict);
  ++counts_.predicts;
  inner_->predict(inv);
}

std::optional<libra::sim::PredictionMemo> TimedPolicy::speculate_predict(
    const Invocation& inv) const {
  Scope s(clock_, Layer::kPredict);
  auto memo = inner_->speculate_predict(inv);
  if (memo) ++counts_.speculated_predicts;
  return memo;
}

void TimedPolicy::commit_predict(Invocation& inv,
                                 const libra::sim::PredictionMemo& memo) {
  Scope s(clock_, Layer::kPredict);
  inner_->commit_predict(inv, memo);
}

NodeId TimedPolicy::select_node(Invocation& inv, EngineApi& api) {
  Scope s(clock_, Layer::kSelect);
  return inner_->select_node(inv, api);
}

std::optional<NodeId> TimedPolicy::speculate_select(
    const Invocation& inv, const EngineApi& api) const {
  Scope s(clock_, Layer::kSelect);
  return inner_->speculate_select(inv, api);
}

void TimedPolicy::commit_select(Invocation& inv, EngineApi& api) {
  Scope s(clock_, Layer::kSelect);
  inner_->commit_select(inv, api);
}

libra::sim::AllocationPlan TimedPolicy::plan_allocation(Invocation& inv,
                                                        EngineApi& api) {
  Scope s(clock_, Layer::kPlan);
  return inner_->plan_allocation(inv, api);
}

bool TimedPolicy::wants_monitor(const Invocation& inv) const {
  Scope s(clock_, Layer::kMonitor);
  return inner_->wants_monitor(inv);
}

void TimedPolicy::on_monitor(Invocation& inv, EngineApi& api) {
  Scope s(clock_, Layer::kMonitor);
  inner_->on_monitor(inv, api);
}

void TimedPolicy::on_complete(Invocation& inv, EngineApi& api) {
  Scope s(clock_, Layer::kComplete);
  inner_->on_complete(inv, api);
}

void TimedPolicy::on_oom(Invocation& inv, EngineApi& api) {
  Scope s(clock_, Layer::kPolicyOther);
  inner_->on_oom(inv, api);
}

void TimedPolicy::on_evicted(Invocation& inv, EngineApi& api) {
  Scope s(clock_, Layer::kPolicyOther);
  inner_->on_evicted(inv, api);
}

void TimedPolicy::on_health_ping(NodeId node, EngineApi& api) {
  Scope s(clock_, Layer::kPing);
  inner_->on_health_ping(node, api);
}

void TimedPolicy::on_node_down(NodeId node, EngineApi& api) {
  Scope s(clock_, Layer::kPolicyOther);
  inner_->on_node_down(node, api);
}

void TimedPolicy::on_node_up(NodeId node, EngineApi& api) {
  Scope s(clock_, Layer::kPolicyOther);
  inner_->on_node_up(node, api);
}

void TimedPolicy::on_finalized(const Invocation& inv) {
  Scope s(clock_, Layer::kPolicyOther);
  inner_->on_finalized(inv);
}

void TimedPolicy::on_drain_notice(NodeId node, libra::sim::SimTime deadline,
                                  EngineApi& api) {
  Scope s(clock_, Layer::kPolicyOther);
  inner_->on_drain_notice(node, deadline, api);
}

const libra::core::PoolStatus& TimedStatusPolicy::pool_status(
    NodeId node) const {
  Scope s(clock_, Layer::kPolicyOther);
  return provider_->pool_status(node);
}

std::shared_ptr<TimedPolicy> make_timed_policy(
    std::shared_ptr<libra::sim::Policy> inner, LayerClock* clock) {
  const auto* provider =
      dynamic_cast<const libra::core::PoolStatusProvider*>(inner.get());
  if (provider == nullptr)
    return std::make_shared<TimedPolicy>(std::move(inner), clock);
  return std::make_shared<TimedStatusPolicy>(std::move(inner), provider,
                                             clock);
}

std::optional<libra::sim::SimTime> TimedSource::peek_arrival() {
  Scope s(clock_, Layer::kPull);
  return inner_->peek_arrival();
}

Invocation TimedSource::next() {
  Scope s(clock_, Layer::kPull);
  return inner_->next();
}

void TimedHook::on_engine_event(EngineApi& api,
                                const libra::sim::EngineEvent& ev) {
  Scope s(clock_, layer_);
  ++events_;
  inner_->on_engine_event(api, ev);
}

void TimedPoolListener::on_pool_event(const libra::core::PoolEvent& ev) {
  Scope s(clock_, layer_);
  inner_->on_pool_event(ev);
}

void TimedPolicyListener::on_policy_event(
    const libra::core::PolicyEvent& ev) {
  Scope s(clock_, layer_);
  inner_->on_policy_event(ev);
}

}  // namespace perfbench
