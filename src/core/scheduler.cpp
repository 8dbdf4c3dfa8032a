#include "core/scheduler.h"

#include "core/coverage.h"
#include "util/rng.h"

namespace libra::core {

using sim::EngineApi;
using sim::Invocation;
using sim::kNoNode;
using sim::NodeId;

bool shard_feasible(const sim::Node& node, const Invocation& inv) {
  return inv.user_alloc.fits_in(node.shard_free(inv.shard));
}

bool shard_feasible(const sim::Node& node, const Invocation& inv,
                    const sim::EngineApi& api) {
  return !api.node_suspected_down(node.id()) && shard_feasible(node, inv);
}

NodeId StickyHashState::pick(Invocation& inv, EngineApi& api) {
  const auto& nodes = api.nodes();
  const auto n = static_cast<uint64_t>(nodes.size());
  int& salt = salt_[inv.func];
  // Advance the function's sticky target until a feasible node is found;
  // the new target persists so upcoming invocations follow (§6.3).
  for (size_t attempt = 0; attempt < nodes.size(); ++attempt) {
    const uint64_t h = util::mix64(
        static_cast<uint64_t>(inv.func) * 0x9e3779b97f4a7c15ULL +
        static_cast<uint64_t>(salt));
    const auto candidate = static_cast<NodeId>(h % n);
    if (shard_feasible(nodes[static_cast<size_t>(candidate)], inv, api))
      return candidate;
    ++salt;
  }
  return kNoNode;
}

NodeId CoverageScheduler::select(Invocation& inv, EngineApi& api) {
  if (!inv.accelerable()) return hash_.pick(inv, api);
  // Extra demand beyond the user allocation, and the window it is needed for.
  const sim::Resources extra =
      (inv.pred_demand - inv.user_alloc).clamped_non_negative();
  sim::DemandProfile pred_profile;
  pred_profile.demand = inv.pred_demand;
  pred_profile.work = inv.pred_duration * std::max(1.0, inv.pred_demand.cpu);
  pred_profile.min_mem = 0.0;
  const double window = api.exec_model().exec_time(
      sim::Resources::max(inv.user_alloc, inv.pred_demand), pred_profile);

  static const PoolStatus kEmpty;
  NodeId best = kNoNode;
  double best_score = -1.0;
  for (const auto& node : api.nodes()) {
    if (!shard_feasible(node, inv, api)) continue;
    // Owning controller's gossip-fed cache first (src/sim/ctrl); fall back to
    // the policy's own piggybacked snapshot when the control plane is
    // transparent. Reference semantics either way — no per-decision copies.
    const PoolStatus* cached = api.controller_pool_view(node.id(), inv.controller);
    const PoolStatus& status =
        cached ? *cached
               : (provider_ ? provider_->pool_status(node.id()) : kEmpty);
    const auto cov = demand_coverage(status, api.now(), extra, window);
    const double score = cov.weighted(alpha_);
    if (score > best_score + 1e-12) {
      best_score = score;
      best = node.id();
    }
  }
  // No node offers coverage: fall back to container locality.
  if (best == kNoNode) return hash_.pick(inv, api);
  return best;
}

}  // namespace libra::core
