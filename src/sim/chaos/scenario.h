// Adversarial scenario model for the differential scenario fuzzer. A
// Scenario is one self-contained point in the robustness matrix: a
// heterogeneous cluster shape, a scripted FaultPlan (spot outages included),
// a seeded probabilistic FaultProfile, a misprediction storm, a synthetic
// workload (gen::GenConfig), and the multi-tenant quota assignment — plus an
// optional seeded invariant violation (InjectSpec) the negative tests use to
// prove the oracle actually catches, shrinks and replays failures.
//
// Everything needed to re-run the scenario is in the struct (the repro
// serializer round-trips it bit-identically); `seed` is bookkeeping that
// records which fuzzer draw produced it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen/gen_config.h"
#include "sim/engine_config.h"
#include "sim/fault/fault_injector.h"
#include "sim/fault/fault_plan.h"
#include "sim/types.h"

namespace libra::chaos {

/// Seeded invariant violation the oracle plants mid-run (negative testing:
/// a fuzzer that never sees a failure proves nothing about its oracle).
enum class InjectKind {
  kNone = 0,
  /// HarvestResourcePool::corrupt_for_audit_test — breaks per-source
  /// conservation (idle + grants == harvested).
  kConservation = 1,
  /// HarvestResourcePool::corrupt_tenant_for_audit_test — fabricates an
  /// over-quota borrow (conservation intact; the per-tenant audit fires).
  kTenantQuota = 2,
};

struct InjectSpec {
  InjectKind kind = InjectKind::kNone;
  /// Engine event count at (or after) which the corruption is planted. If
  /// the run ends sooner, the oracle plants it post-run and re-audits, so an
  /// armed injection is always detectable.
  long at_event = 200;
};

/// Stable failure classes the oracle reports (the shrinker preserves the
/// class, not the detail text).
inline constexpr const char* kFailAudit = "audit-violation";
inline constexpr const char* kFailAccounting = "accounting";
inline constexpr const char* kFailDigest = "digest-mismatch";
inline constexpr const char* kFailGoodput = "goodput";

struct Verdict {
  bool ok = true;
  /// One of the kFail* classes above; empty when ok.
  std::string failure;
  /// Human-oriented specifics (first audit diagnostic, digest pair, ...).
  std::string detail;
};

struct Scenario {
  /// Fuzzer draw that produced this scenario (bookkeeping only; the fields
  /// below fully determine the run).
  uint64_t seed = 0;

  // ---- Cluster shape (heterogeneous node classes) ----
  std::vector<sim::Resources> node_capacities;
  int num_shards = 1;

  // ---- Faults ----
  /// Scripted outages (spot ones deliver drain notices), blackout windows
  /// and the misprediction storm.
  sim::fault::FaultPlan plan;
  sim::fault::FaultProfile profile;
  /// Drain-notice lead time for `spot` outages (0 = unannounced crashes).
  double spot_drain_notice = 0.0;

  // ---- Workload ----
  gen::GenConfig gen;

  // ---- Multi-tenancy ----
  /// Invocations are stamped tenant = func % num_tenants by the oracle.
  int num_tenants = 1;
  /// Per-tenant harvest-borrow caps (empty = unrestricted single-tenant).
  std::map<int, sim::Resources> tenant_quotas;

  // ---- Control plane (ctrl::ControlPlaneConfig knobs) ----
  /// Front-end controllers for the primary legs (1 = classic engine).
  int num_controllers = 1;
  /// Opt-in gossip divergence knobs: periodic view refresh and partial
  /// fan-out. Both 0 = pass-through gossip (the digest-identity regime).
  double gossip_period = 0.0;
  int gossip_fanout = 0;
  /// Controller count for the controller-differential leg: on a copy of the
  /// scenario with every divergence source stripped (fresh gossip, zero
  /// gossip fault probs, no injection), the replay digest at 1 controller
  /// must equal the digest at controllers_b.
  int controllers_b = 4;

  InjectSpec inject;

  /// Engine configuration for one leg of the differential check. Short
  /// placement timeout / churn pad keep the tiny fuzz runs snappy.
  sim::EngineConfig engine_config() const;

  /// Full validity predicate: EngineConfig::validate for both controller
  /// counts, GenConfig::validate, FaultPlan::validate with the catalog size
  /// bound, plus the tenant/quota/inject fields. Throws
  /// std::invalid_argument.
  void validate() const;
};

}  // namespace libra::chaos
