// Differential oracle for chaos scenarios. One check_scenario() call runs
// the scenario through up to five engine legs (plain, record-recycling, the
// controller differential pair, and the default-platform reference) and
// reports the first violated property as a stable failure class:
//
//   audit-violation  — a LIBRA_AUDIT_CHECK fired (pool conservation,
//                      per-tenant quota, or a cross-layer InvariantAuditor
//                      sweep) during the instrumented Libra run;
//   accounting       — the retry/loss ledger does not close (completed +
//                      lost + incomplete != admitted, a retry budget was
//                      overdrawn, a lost invocation also completed, ...);
//   digest-mismatch  — RunMetrics digests differ between the plain run and
//                      the same run with recycle_records on (terminal
//                      records recycled through the store's free list must
//                      not perturb the replay), or between 1 and
//                      controllers_b front-end controllers on a copy with
//                      every gossip divergence source stripped (the §5k
//                      multi-controller digest-identity contract);
//   goodput          — goodput outside [0, 1], or a failure-free scenario
//                      lost work on either Libra or the default platform.
//
// The scenario's InjectSpec plants a seeded pool corruption mid-run, which
// the first leg must catch — the negative path that proves the oracle,
// shrinker and repro replay actually work end to end.
#pragma once

#include "sim/chaos/scenario.h"

namespace libra::chaos {

/// Runs the full differential check. Never aborts on audit violations (a
/// capture handler is installed around each leg); throws only on invalid
/// scenarios (Scenario::validate is the caller's validity predicate).
Verdict check_scenario(const Scenario& sc);

/// Arms `sc.inject` and establishes its preconditions: a kTenantQuota
/// injection needs a registered quota for tenant 0 to violate, so one is
/// added when the scenario has none.
void arm_injection(Scenario& sc, InjectKind kind, long at_event = 200);

}  // namespace libra::chaos
