#include "analysis/invariant_auditor.h"

#include <algorithm>
#include <cmath>

#include "util/audit.h"

namespace libra::analysis {

using sim::InvocationId;
using sim::Resources;

namespace {

/// Absolute-plus-relative tolerance matching the pool's internal audits:
/// the ledgers are sums of O(thousands) of doubles.
bool near(double a, double b) {
  return std::abs(a - b) <= 1e-6 + 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// Present and not terminal. The engine's invocation_alive already means
/// both; test doubles of EngineApi may model presence only.
bool live(sim::EngineApi& api, InvocationId id) {
  return api.invocation_alive(id) && !api.invocation(id).done;
}

}  // namespace

InvariantAuditor::InvariantAuditor(InvariantAuditorConfig cfg) : cfg_(cfg) {
  if (cfg_.every_n < 1) cfg_.every_n = 1;
}

void InvariantAuditor::attach_policy(core::LibraPolicy* policy) {
  policy_ = policy;
  if (policy_) policy_->set_pool_listener(this);
}

void InvariantAuditor::on_pool_event(const core::PoolEvent&) {
  ++stats_.pool_events;
}

void InvariantAuditor::on_engine_event(sim::EngineApi& api,
                                       const sim::EngineEvent& ev) {
  ++stats_.engine_events;
  if (ev.id % cfg_.every_n != 0) return;
  ++stats_.sweeps;
  sweep(api, ev.what);
}

void InvariantAuditor::sweep(sim::EngineApi& api, const char* what) {
  // ---- Node accounting: allocated totals == sum of placed reservations ----
  const auto& nodes = api.nodes();
  tally_.assign(nodes.size(), NodeTally{});
  api.placed_invocations(&ids_);
  for (const InvocationId id : ids_) {
    LIBRA_AUDIT_CHECK(api.invocation_alive(id),
                      "after " << what << ": placed invocation " << id
                               << " is not alive");
    const auto& inv = api.invocation(id);
    LIBRA_AUDIT_CHECK(!inv.done, "after " << what << ": placed invocation "
                                          << id << " already completed");
    const bool on_node = inv.node != sim::kNoNode &&
                         static_cast<size_t>(inv.node) < nodes.size();
    LIBRA_AUDIT_CHECK(on_node, "after " << what << ": placed invocation "
                                        << id << " references invalid node "
                                        << inv.node);
    // A test failure handler does not abort: never index past the range.
    if (!on_node) continue;
    NodeTally& t = tally_[static_cast<size_t>(inv.node)];
    t.reserved += inv.user_alloc + inv.probe_extra;
    ++t.placed;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const auto& node = nodes[i];
    const Resources want = tally_[i].reserved;
    LIBRA_AUDIT_CHECK(
        near(node.allocated().cpu, want.cpu) &&
            near(node.allocated().mem, want.mem),
        "after " << what << ": node " << node.id()
                 << " allocated totals (cpu " << node.allocated().cpu
                 << ", mem " << node.allocated().mem
                 << ") != sum of placed reservations (cpu " << want.cpu
                 << ", mem " << want.mem << ") over " << tally_[i].placed
                 << " invocations");
    if (!node.up()) {
      LIBRA_AUDIT_CHECK(want.is_zero() && node.running_invocations() == 0,
                        "after " << what << ": down node " << node.id()
                                 << " still holds reservations (cpu "
                                 << want.cpu << ", mem " << want.mem << ", "
                                 << node.running_invocations() << " running)");
    }
  }

  if (!policy_) return;

  // ---- Bookkeeping boundedness: every stashed raw prediction must belong
  // to a live invocation (terminal records drop theirs via on_finalized), so
  // the stash can never outgrow the live set. ----
  policy_->raw_pred_ids_for_audit(&ids_);
  for (const InvocationId stashed : ids_) {
    LIBRA_AUDIT_CHECK(api.invocation_alive(stashed),
                      "after " << what << ": policy raw-prediction stash holds "
                               << "invocation " << stashed
                               << " which is completed or gone — bookkeeping "
                                  "must stay bounded by the live set");
  }

  // ---- Pool sweeps: source/grant liveness, quarantine, down-node emptiness.
  // Per-source conservation is the pool's own audit_now. ----
  const auto* trust = policy_->trust_manager();
  policy_->for_each_pool([&](sim::NodeId node_id,
                             const core::HarvestResourcePool& pool) {
    pool.for_each_grant([&](InvocationId source, InvocationId borrower) {
      LIBRA_AUDIT_CHECK(
          live(api, source),
          "after " << what << ": pool of node " << node_id
                   << " holds a grant sourced from invocation " << source
                   << " which is completed or gone (borrower " << borrower
                   << ")");
      LIBRA_AUDIT_CHECK(
          live(api, borrower),
          "after " << what << ": pool of node " << node_id
                   << " holds a grant lent to invocation " << borrower
                   << " which is completed or gone (source " << source
                   << ")");
    });
    pool.for_each_entry([&](InvocationId source, const Resources& idle) {
      const bool source_live = live(api, source);
      LIBRA_AUDIT_CHECK(source_live,
                        "after " << what << ": pool of node " << node_id
                                 << " holds an entry sourced from invocation "
                                 << source << " which is completed or gone"
                                 << " (idle cpu " << idle.cpu << ", mem "
                                 << idle.mem << ")");
      // Quarantine invariant (trust circuit breaker): a function demoted to
      // the OPEN tier must have had every harvest sourced from its running
      // invocations pulled back — the pool holds nothing it contributed.
      if (!source_live || trust == nullptr) return;
      const auto func = api.invocation(source).func;
      LIBRA_AUDIT_CHECK(
          !trust->quarantined(func, api.now()),
          "after " << what << ": pool of node " << node_id
                   << " holds an entry sourced from invocation " << source
                   << " of QUARANTINED function " << func << " (idle cpu "
                   << idle.cpu << ", mem " << idle.mem
                   << ") — quarantined functions must never be harvest "
                      "sources");
    });
    if (static_cast<size_t>(node_id) < nodes.size() &&
        !nodes[static_cast<size_t>(node_id)].up()) {
      LIBRA_AUDIT_CHECK(
          pool.entry_count() == 0 && pool.outstanding_borrows() == 0,
          "after " << what << ": pool of DOWN node " << node_id
                   << " is not empty (" << pool.entry_count() << " entries, "
                   << pool.outstanding_borrows()
                   << " grants) — harvested inventory must die with its node");
    }
  });
}

}  // namespace libra::analysis
