// Observer seam between the harvest pool and the invariant auditor
// (src/analysis). The pool fires one event after every mutating operation,
// once its state is consistent, so a listener may freely call back into the
// pool's const/introspection API. Production builds run with no listener attached —
// the notification is a single pointer test.
#pragma once

#include "sim/types.h"

namespace libra::core {

class HarvestResourcePool;

/// What just happened to the pool.
enum class PoolOp { kPut, kGet, kPreemptSource, kReharvest, kPreemptAll };

struct PoolEvent {
  PoolOp op = PoolOp::kPut;
  /// Source invocation for put/preempt_source, borrower for get/reharvest,
  /// 0 for preempt_all.
  sim::InvocationId subject = 0;
  sim::SimTime now = 0.0;
  /// The pool the operation ran against (valid for the callback's duration).
  const HarvestResourcePool* pool = nullptr;
  /// The worker node the pool belongs to (the pool's node hint; kNoNode when
  /// the owner never set one, e.g. standalone pools in unit tests).
  sim::NodeId node = sim::kNoNode;
};

class PoolEventListener {
 public:
  virtual ~PoolEventListener() = default;
  virtual void on_pool_event(const PoolEvent& event) = 0;
};

}  // namespace libra::core
