// Shared experiment harness: the three testbed configurations of §8.2.1 and
// a one-call runner that wires a policy + trace into the engine.
#pragma once

#include <memory>
#include <vector>

#include "gen/trace_source.h"
#include "sim/engine.h"
#include "sim/function.h"
#include "sim/metrics.h"
#include "sim/policy.h"

namespace libra::obs {
class ObsSession;
}

namespace libra::exp {

/// Single-node testbed: one worker with 72 cores / 72 GB (§8.2.1).
sim::EngineConfig single_node_config();

/// Multi-node testbed: four workers with 32 cores / 32 GB each.
sim::EngineConfig multi_node_config(int num_shards = 2);

/// Jetstream testbed: `nodes` workers with 24 cores / 24 GB each and the
/// requested number of decentralized scheduler shards (§8.5).
sim::EngineConfig jetstream_config(int nodes, int num_shards);

/// Runs one experiment to completion. Both vector overloads wrap the trace
/// in a workload::MaterializedSource and take the streaming overload below.
sim::RunMetrics run_experiment(const sim::EngineConfig& cfg,
                               std::shared_ptr<sim::Policy> policy,
                               std::vector<sim::Invocation> trace);

/// Same, with an observability session interposed on the engine-audit,
/// pool-event and policy-event seams. The session forwards every event to
/// the invariant auditor (audit coverage is unchanged) and never mutates
/// simulation state, so the returned RunMetrics are bit-identical to the
/// plain overload for the same inputs — with obs enabled, disabled, or
/// null. finish() is called on the session before returning.
sim::RunMetrics run_experiment(const sim::EngineConfig& cfg,
                               std::shared_ptr<sim::Policy> policy,
                               std::vector<sim::Invocation> trace,
                               obs::ObsSession* obs);

/// Streaming variant: pulls the workload incrementally from a TraceSource
/// (gen::SyntheticSource, workload::MaterializedSource, ...) instead of a
/// pre-built invocation vector, so the trace never has to exist in memory
/// all at once. Auditor sampling keys off source.size_hint().
sim::RunMetrics run_experiment(const sim::EngineConfig& cfg,
                               std::shared_ptr<sim::Policy> policy,
                               gen::TraceSource& source,
                               obs::ObsSession* obs = nullptr);

}  // namespace libra::exp
