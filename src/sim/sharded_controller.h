// Controller layer: the decentralized sharded scheduler of §6.4. Owns the
// per-shard FIFO queues, the parked-invocation list and the per-shard
// decision service-time bookkeeping, and replaces the monolithic engine's
// per-shard decision events with EVENT BARRIERS: all shards whose next
// decision falls on the same timestamp form one batch. A batch pops one
// invocation per member shard, then commits each decision
// (Policy::select_node + reservation) in shard-registration order — exactly
// the position the serial engine would have run it.
//
// The merge rule makes RunMetrics bit-identical to the pre-refactor engine
// (asserted by the golden-replay test).
#pragma once

#include <deque>
#include <vector>

#include "sim/engine_host.h"

namespace libra::sim {

class ShardedController {
 public:
  explicit ShardedController(EngineHost& host);

  /// Profiled invocation enters the scheduling layer: assigns its shard
  /// (id-based stateless dispatch, §6.4), rejects invocations that can never
  /// fit any shard slice, and queues the rest.
  void admit(InvocationId id);

  /// Backoff expired: hand the invocation back to its shard queue.
  void requeue_after_fault(InvocationId id);

  /// Capacity freed: hand parked invocations back to their shards in FIFO
  /// order. They pay another scheduling decision, like OpenWhisk retries.
  void retry_waiting();

  /// Declares parked invocations lost once they exceed placement_timeout.
  void expire_overdue_waiting();

 private:
  /// Registers the shard for its next decision slot (max(now, busy_until))
  /// unless it is already registered or has nothing queued. Joins the batch
  /// already pending at that timestamp, or opens a new one and schedules its
  /// barrier event.
  void pump(ShardId shard);

  /// The barrier event: pops one invocation per registered shard, commits
  /// them in registration order and re-pumps the member shards.
  void run_barrier(SimTime at);

  /// Decides and applies one member's placement: the Step-4
  /// Policy::select_node call, validation against ground truth, reservation
  /// and the Step-5 allocation plan.
  void commit_one(InvocationId id);

  EngineHost& host_;

  /// Distinct shard-slice capacities across the fleet (usually one entry —
  /// homogeneous nodes), precomputed so admit()'s can-ever-fit rejection is
  /// O(distinct capacities) instead of O(#nodes) per invocation.
  std::vector<Resources> distinct_shard_caps_;

  std::vector<std::deque<InvocationId>> shard_queues_;
  std::vector<SimTime> shard_busy_until_;
  /// True while the shard sits in a pending batch (mirrors the serial
  /// engine's "pump already scheduled" flag).
  std::vector<bool> shard_registered_;

  /// Pending decision batches, one (timestamp, members) pair per barrier —
  /// a flat vector instead of a time-keyed map because only a handful of
  /// barriers are ever outstanding, so a linear scan beats tree lookups
  /// (§5l). An entry is removed before its members are processed, so
  /// same-time registrations made by later handlers open a fresh batch with
  /// a fresh (later) event — exactly where the serial engine's per-shard
  /// events would have landed.
  std::vector<std::pair<SimTime, std::vector<ShardId>>> batches_;
  /// Retired member vectors, recycled to keep the hot path allocation-free.
  std::vector<std::vector<ShardId>> batch_spare_;

  std::deque<InvocationId> waiting_;  // parked until capacity frees
};

}  // namespace libra::sim
