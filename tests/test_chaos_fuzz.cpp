// Chaos subsystem tests: repro serialization round-trips, fuzzer
// determinism & validity, the differential oracle's clean path, and the
// negative loop — a seeded invariant violation must be caught, shrunk,
// serialized, and replayed from the artifact to the same failure class.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/chaos/fuzzer.h"
#include "sim/chaos/oracle.h"
#include "sim/chaos/repro.h"
#include "sim/chaos/scenario.h"
#include "sim/chaos/shrinker.h"

namespace libra {
namespace {

using chaos::InjectKind;
using chaos::Scenario;
using chaos::ScenarioFuzzer;
using chaos::Verdict;

TEST(ChaosRepro, RoundTripsBitIdentically) {
  ScenarioFuzzer fuzzer(123);
  for (int i = 0; i < 5; ++i) {
    const Scenario sc = fuzzer.next();
    const std::string text = chaos::serialize_scenario(sc);
    const Scenario back = chaos::parse_scenario(text);
    EXPECT_EQ(chaos::serialize_scenario(back), text)
        << "iteration " << i << " did not round-trip";
  }
}

TEST(ChaosRepro, RejectsMalformedInput) {
  EXPECT_THROW(chaos::parse_scenario("bogus"), std::invalid_argument);
  EXPECT_THROW(chaos::parse_scenario("libra-chaos-repro v1\n"),
               std::invalid_argument);  // missing 'end'
  EXPECT_THROW(
      chaos::parse_scenario("libra-chaos-repro v1\nnode 12 zebra\nend\n"),
      std::invalid_argument);  // bad number
  EXPECT_THROW(
      chaos::parse_scenario("libra-chaos-repro v1\nwhatnow 1\nend\n"),
      std::invalid_argument);  // unknown keyword
  // Structurally fine but semantically invalid (no nodes): the parser runs
  // Scenario::validate before handing the scenario back.
  EXPECT_THROW(chaos::parse_scenario("libra-chaos-repro v1\nend\n"),
               std::invalid_argument);
}

// Artifacts written before the multi-controller control plane carry no
// `controllers` / `gossip` lines and an 8-operand `profile` line; they must
// still parse, with the control-plane knobs at their transparent defaults.
// They (like every artifact written before the scheduler worker pool was
// removed) also carry a `workers_b` line, which is checked and discarded.
TEST(ChaosRepro, AcceptsPreControlPlaneArtifacts) {
  const std::string legacy =
      "libra-chaos-repro v1\n"
      "seed 1\n"
      "workers_b 4\n"
      "num_shards 1\n"
      "spot_drain_notice 0\n"
      "node 16 8192\n"
      "profile 7 0 10 0 0 0.25 0 0\n"
      "gen 4 300 20 9 0 0 300 0 0 1 0.05 0.5\n"
      "num_tenants 1\n"
      "end\n";
  const chaos::Scenario sc = chaos::parse_scenario(legacy);
  EXPECT_EQ(sc.num_controllers, 1);
  EXPECT_EQ(sc.controllers_b, 4);
  EXPECT_EQ(sc.gossip_period, 0.0);
  EXPECT_EQ(sc.gossip_fanout, 0);
  EXPECT_EQ(sc.profile.gossip_drop_prob, 0.0);
  EXPECT_EQ(sc.profile.gossip_delay_prob, 0.0);
  // Re-serializing upgrades the artifact to the current format, which then
  // round-trips bit-identically.
  const std::string text = chaos::serialize_scenario(sc);
  EXPECT_NE(text.find("controllers 1 4"), std::string::npos);
  EXPECT_EQ(text.find("workers_b"), std::string::npos);
  EXPECT_EQ(chaos::serialize_scenario(chaos::parse_scenario(text)), text);
  // The discarded legacy line is still held to its old shape.
  const auto with_workers = [&legacy](const std::string& line) {
    const std::string old_line = "workers_b 4\n";
    std::string bad = legacy;
    bad.replace(bad.find(old_line), old_line.size(), line);
    return bad;
  };
  EXPECT_THROW(chaos::parse_scenario(with_workers("workers_b 4 4\n")),
               std::invalid_argument);
  EXPECT_THROW(chaos::parse_scenario(with_workers("workers_b four\n")),
               std::invalid_argument);
}

/// A minimal valid repro with `line` (keyword + operands) in place of the
/// line that starts with the same keyword.
std::string minimal_repro_with(const std::string& line) {
  std::string text =
      "libra-chaos-repro v1\n"
      "seed 1\n"
      "num_shards 1\n"
      "node 16 8192\n"
      "profile 7 0 10 0 0 0.25 0 0\n"
      "gen 4 300 20 9 0 0 300 0 0 1 0.05 0.5\n"
      "num_tenants 1\n"
      "end\n";
  const std::string keyword = line.substr(0, line.find(' ') + 1);
  const size_t at = text.find("\n" + keyword) + 1;
  text.replace(at, text.find('\n', at) - at, line);
  return text;
}

TEST(ChaosRepro, RejectsIntegerThatOverflowsItsField) {
  EXPECT_EQ(chaos::parse_scenario(minimal_repro_with("num_shards 2")).num_shards,
            2);
  // 2^32 + 2 must be rejected, not narrowed to num_shards == 2.
  try {
    chaos::parse_scenario(minimal_repro_with("num_shards 4294967298"));
    FAIL() << "num_shards 4294967298 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3 (num_shards)"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  // Past the range of strtoll itself (ERANGE), and other narrowed fields.
  for (const std::string& line :
       {std::string("num_shards 99999999999999999999"),
        std::string("num_shards -4294967295"),
        std::string("num_tenants 2147483648"),
        std::string("gen 4294967300 300 20 9 0 0 300 0 0 1 0.05 0.5")}) {
    EXPECT_THROW(chaos::parse_scenario(minimal_repro_with(line)),
                 std::invalid_argument)
        << line;
  }
}

TEST(ChaosRepro, RejectsNegativeUnsignedSeed) {
  EXPECT_EQ(chaos::parse_scenario(
                minimal_repro_with("seed 18446744073709551615"))
                .seed,
            18446744073709551615ULL);
  // strtoull reads "-1" as 2^64 - 1; an unsigned field takes no sign.
  try {
    chaos::parse_scenario(minimal_repro_with("seed -1"));
    FAIL() << "seed -1 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2 (seed)"), std::string::npos)
        << e.what();
  }
  for (const std::string& line :
       {std::string("seed 18446744073709551616"),
        std::string("profile -7 0 10 0 0 0.25 0 0"),
        std::string("gen 4 300 20 -9 0 0 300 0 0 1 0.05 0.5")}) {
    EXPECT_THROW(chaos::parse_scenario(minimal_repro_with(line)),
                 std::invalid_argument)
        << line;
  }
}

TEST(ChaosFuzzer, DeterministicAcrossInstances) {
  ScenarioFuzzer a(42);
  ScenarioFuzzer b(42);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(chaos::serialize_scenario(a.next()),
              chaos::serialize_scenario(b.next()));
  ScenarioFuzzer c(43);
  EXPECT_NE(chaos::serialize_scenario(ScenarioFuzzer(42).next()),
            chaos::serialize_scenario(c.next()));
}

TEST(ChaosFuzzer, GeneratesValidVariedScenarios) {
  ScenarioFuzzer fuzzer(7);
  bool saw_spot = false, saw_storm = false, saw_quota = false,
       saw_hetero = false, saw_multi_ctrl = false, saw_stale_gossip = false;
  for (int i = 0; i < 20; ++i) {
    const Scenario sc = fuzzer.next();  // next() validates internally
    EXPECT_NO_THROW(sc.validate());
    for (const auto& o : sc.plan.outages) saw_spot = saw_spot || o.spot;
    saw_storm = saw_storm || !sc.plan.prediction_faults.empty();
    saw_quota = saw_quota || !sc.tenant_quotas.empty();
    for (const auto& cap : sc.node_capacities)
      saw_hetero = saw_hetero || cap.cpu != sc.node_capacities[0].cpu;
    saw_multi_ctrl = saw_multi_ctrl || sc.num_controllers > 1;
    saw_stale_gossip = saw_stale_gossip || sc.gossip_period > 0.0 ||
                       sc.gossip_fanout > 0 ||
                       sc.profile.gossip_drop_prob > 0.0;
  }
  EXPECT_TRUE(saw_spot) << "20 draws produced no spot outage";
  EXPECT_TRUE(saw_storm) << "20 draws produced no misprediction storm";
  EXPECT_TRUE(saw_quota) << "20 draws produced no tenant quota";
  EXPECT_TRUE(saw_hetero) << "20 draws produced no heterogeneous cluster";
  EXPECT_TRUE(saw_multi_ctrl) << "20 draws produced no multi-controller run";
  EXPECT_TRUE(saw_stale_gossip) << "20 draws produced no gossip divergence";
}

TEST(ChaosOracle, CleanOnFixedSeed) {
  ScenarioFuzzer fuzzer(20260808);
  for (int i = 0; i < 2; ++i) {
    const Scenario sc = fuzzer.next();
    const Verdict v = chaos::check_scenario(sc);
    EXPECT_TRUE(v.ok) << "seed 20260808 iteration " << i << " failed: "
                      << v.failure << " — " << v.detail;
  }
}

// The acceptance-path negative test: seed a conservation violation, verify
// the oracle catches it, the shrinker preserves the failure class while
// removing structure, and the serialized artifact replays to the same class.
TEST(ChaosOracle, CatchesShrinksAndReplaysInjectedViolation) {
  ScenarioFuzzer fuzzer(5);
  Scenario sc = fuzzer.next();
  chaos::arm_injection(sc, InjectKind::kConservation, /*at_event=*/150);

  const Verdict v = chaos::check_scenario(sc);
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.failure, chaos::kFailAudit);
  EXPECT_NE(v.detail.find("conservation"), std::string::npos) << v.detail;

  const auto shrunk = chaos::shrink_scenario(sc, v, /*max_rounds=*/2);
  EXPECT_EQ(shrunk.verdict.failure, v.failure);
  EXPECT_GT(shrunk.accepted, 0) << "nothing could be removed from a random "
                                   "scenario without losing the failure";

  const std::string text = chaos::serialize_scenario(shrunk.scenario);
  const Scenario reloaded = chaos::parse_scenario(text);
  EXPECT_EQ(chaos::serialize_scenario(reloaded), text);
  const Verdict replayed = chaos::check_scenario(reloaded);
  ASSERT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.failure, v.failure);
}

TEST(ChaosOracle, CatchesTenantQuotaInjection) {
  ScenarioFuzzer fuzzer(9);
  Scenario sc = fuzzer.next();
  chaos::arm_injection(sc, InjectKind::kTenantQuota, /*at_event=*/100);
  ASSERT_FALSE(sc.tenant_quotas.empty());  // arm_injection's precondition

  const Verdict v = chaos::check_scenario(sc);
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.failure, chaos::kFailAudit);
  EXPECT_NE(v.detail.find("tenant quota"), std::string::npos) << v.detail;
}

}  // namespace
}  // namespace libra
