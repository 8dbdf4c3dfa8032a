// Cross-layer invariant auditor (dynamic prong of the concurrency-correctness
// analysis layer). Each invariant is checked in exactly one place:
//
//   pool-local laws (per-source conservation, grant bounds, tenant quotas)
//   live in HarvestResourcePool::audit_now, which every pool mutation ends
//   with; record-local laws (a recycled record is terminal, disarmed and
//   out of the usage sums) live in Engine::drain_recycle. This auditor keeps
//   no second copy of either.
//
//   sim::EngineAuditHook — after every dispatched engine event (sampled via
//   every_n for large traces), sweeps what spans the engine's records, nodes
//   and pools: every placed invocation is alive and references a real node;
//   each node's allocated totals equal the sum of its placed invocations'
//   reservations (user_alloc + probe_extra); every pool entry's source is
//   alive; no pool grant references a finished source or borrower; a down
//   node's pool is empty; no pool entry is sourced from a function the trust
//   circuit breaker has quarantined; every stashed raw prediction belongs to
//   a live invocation.
//
//   core::PoolEventListener — counts pool mutations (the pool audits itself).
//
// A violation aborts through LIBRA_AUDIT_CHECK with a structured diagnostic
// carrying the engine event id and sim time (stamped by Engine::notify_audit
// before this hook runs), unless a test installed a failure handler.
#pragma once

#include <vector>

#include "core/libra_policy.h"
#include "core/pool_event.h"
#include "sim/audit_hook.h"
#include "sim/policy.h"

namespace libra::analysis {

struct InvariantAuditorConfig {
  /// Cluster sweeps run on every n-th engine event (1 = every event). The
  /// pool's and the engine's own checks run on every mutation regardless.
  int every_n = 1;
};

class InvariantAuditor final : public core::PoolEventListener,
                               public sim::EngineAuditHook {
 public:
  explicit InvariantAuditor(InvariantAuditorConfig cfg = {});

  /// Attaches this auditor to the policy's pools (current and future) so
  /// pool mutations are counted. Also remembered for cluster sweeps; may be
  /// nullptr when only engine-side checks are wanted.
  void attach_policy(core::LibraPolicy* policy);

  // core::PoolEventListener
  void on_pool_event(const core::PoolEvent& ev) override;

  // sim::EngineAuditHook
  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override;

  struct Stats {
    long pool_events = 0;    // pool mutations observed
    long engine_events = 0;  // engine events observed
    long sweeps = 0;         // full cluster sweeps actually run
  };
  const Stats& stats() const { return stats_; }

 private:
  void sweep(sim::EngineApi& api, const char* what);

  struct NodeTally {
    sim::Resources reserved;  // Σ user_alloc + probe_extra of placed ids
    int placed = 0;
  };

  InvariantAuditorConfig cfg_;
  core::LibraPolicy* policy_ = nullptr;
  Stats stats_;
  /// Sweep buffers, cleared and refilled by every sweep so a warm sweep
  /// allocates nothing: the node tallies (indexed by node id) and the id
  /// lists read from the engine and the policy.
  std::vector<NodeTally> tally_;
  std::vector<sim::InvocationId> ids_;
};

}  // namespace libra::analysis
