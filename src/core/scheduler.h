// Node-selection strategies (§6.3). The strategy only picks a node; harvest
// and acceleration decisions belong to the policy. Feasibility means the
// invocation's user-defined allocation fits the scheduler shard's slice of
// the node (§6.4 horizontal sharding).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "core/pool_status.h"
#include "sim/policy.h"

namespace libra::core {

class SchedulerStrategy {
 public:
  virtual ~SchedulerStrategy() = default;
  virtual std::string name() const = 0;
  /// Returns a feasible node for the invocation or sim::kNoNode.
  virtual sim::NodeId select(sim::Invocation& inv, sim::EngineApi& api) = 0;
};

using SchedulerPtr = std::shared_ptr<SchedulerStrategy>;

/// True when the node's shard slice can admit the user-defined allocation.
bool shard_feasible(const sim::Node& node, const sim::Invocation& inv);

/// Controller-side feasibility: shard capacity AND the node is not suspected
/// down (§6.4 health pings). Schedulers must use this overload — it works
/// from the deliberately stale ping-based health view, never ground truth.
bool shard_feasible(const sim::Node& node, const sim::Invocation& inv,
                    const sim::EngineApi& api);

/// OpenWhisk-style sticky hashing: invocations of a function go to the same
/// node (container reuse); when the target lacks capacity the hash advances
/// and upcoming invocations of the function follow (§6.3). The salt map is
/// shared scheduler-shard state: every decentralized shard advances the
/// same per-function target.
class StickyHashState {
 public:
  sim::NodeId pick(sim::Invocation& inv, sim::EngineApi& api);

 private:
  std::unordered_map<sim::FunctionId, int> salt_;
};

/// Libra's timeliness-aware greedy scheduler (§6.3):
///  * non-accelerable invocations -> sticky hash (container locality);
///  * accelerable invocations -> feasible node with the maximum weighted
///    demand coverage computed from the piggybacked pool snapshots.
class CoverageScheduler final : public SchedulerStrategy {
 public:
  CoverageScheduler(const PoolStatusProvider* provider, double alpha)
      : provider_(provider), alpha_(alpha) {}

  std::string name() const override { return "libra-coverage"; }
  sim::NodeId select(sim::Invocation& inv, sim::EngineApi& api) override;

  double alpha() const { return alpha_; }

 private:
  const PoolStatusProvider* provider_;
  double alpha_;
  StickyHashState hash_;
};

}  // namespace libra::core
