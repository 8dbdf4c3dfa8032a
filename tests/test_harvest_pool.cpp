#include <gtest/gtest.h>

#include <cstdint>

#include "core/harvest_pool.h"
#include "util/audit.h"
#include "util/rng.h"

namespace libra::core {
namespace {

using sim::InvocationId;
using sim::Resources;

TEST(HarvestPool, PutThenGetGrants) {
  HarvestResourcePool pool;
  pool.put(1, {2, 256}, /*est_completion=*/10.0, /*now=*/0.0);
  const auto grants = pool.get({1, 128}, /*borrower=*/9, 0.0);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].source, 1);
  EXPECT_DOUBLE_EQ(grants[0].amount.cpu, 1);
  EXPECT_DOUBLE_EQ(grants[0].amount.mem, 128);
  EXPECT_DOUBLE_EQ(pool.idle_total().cpu, 1);
}

TEST(HarvestPool, GetIsBestEffort) {
  HarvestResourcePool pool;
  pool.put(1, {1, 64}, 10.0, 0.0);
  const auto grants = pool.get({4, 512}, 9, 0.0);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_DOUBLE_EQ(grants[0].amount.cpu, 1);
  EXPECT_TRUE(pool.idle_total().is_zero());
}

TEST(HarvestPool, EmptyPoolGrantsNothing) {
  HarvestResourcePool pool;
  EXPECT_TRUE(pool.get({2, 128}, 9, 0.0).empty());
}

TEST(HarvestPool, TimelinessOrderLendsLongestLivedFirst) {
  HarvestResourcePool pool;
  pool.put(1, {1, 0}, /*expires*/ 5.0, 0.0);
  pool.put(2, {1, 0}, /*expires*/ 50.0, 0.0);  // lives longer
  const auto grants = pool.get({1, 0}, 9, 0.0);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].source, 2);
}

TEST(HarvestPool, BlindOrderIgnoresTimeliness) {
  HarvestResourcePool pool;
  pool.put(1, {1, 0}, 5.0, 0.0);
  pool.put(2, {1, 0}, 50.0, 0.0);
  HarvestResourcePool::GetOptions opt;
  opt.timeliness_order = false;  // Freyr mode: id order
  const auto grants = pool.get({1, 0}, 9, 0.0, opt);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].source, 1);
}

TEST(HarvestPool, SpansMultipleSources) {
  HarvestResourcePool pool;
  pool.put(1, {1, 0}, 30.0, 0.0);
  pool.put(2, {2, 0}, 40.0, 0.0);
  const auto grants = pool.get({3, 0}, 9, 0.0);
  EXPECT_EQ(grants.size(), 2u);
  double total = 0;
  for (const auto& g : grants) total += g.amount.cpu;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(HarvestPool, MemExpiryFloorFiltersShortLivedMemory) {
  HarvestResourcePool pool;
  pool.put(1, {0, 512}, /*expires*/ 5.0, 0.0);
  pool.put(2, {0, 512}, /*expires*/ 100.0, 0.0);
  HarvestResourcePool::GetOptions opt;
  opt.mem_expiry_floor = 50.0;  // borrower runs until t=50
  const auto grants = pool.get({0, 1024}, 9, 0.0, opt);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].source, 2);
  EXPECT_DOUBLE_EQ(grants[0].amount.mem, 512);
}

TEST(HarvestPool, PreemptSourceRevokesOutstandingGrants) {
  HarvestResourcePool pool;
  pool.put(1, {4, 0}, 10.0, 0.0);
  pool.get({3, 0}, 9, 1.0);  // borrower 9 takes 3 cores
  const auto revs = pool.preempt_source(1, 2.0);
  ASSERT_EQ(revs.size(), 1u);
  EXPECT_EQ(revs[0].borrower, 9);
  EXPECT_DOUBLE_EQ(revs[0].amount.cpu, 3.0);
  EXPECT_TRUE(pool.idle_total().is_zero());
  EXPECT_EQ(pool.entry_count(), 0u);
}

TEST(HarvestPool, PreemptAggregatesPerBorrower) {
  HarvestResourcePool pool;
  pool.put(1, {4, 400}, 10.0, 0.0);
  pool.get({2, 0}, 9, 0.5);
  pool.get({1, 200}, 9, 0.6);
  const auto revs = pool.preempt_source(1, 1.0);
  ASSERT_EQ(revs.size(), 1u);
  EXPECT_DOUBLE_EQ(revs[0].amount.cpu, 3.0);
  EXPECT_DOUBLE_EQ(revs[0].amount.mem, 200.0);
}

TEST(HarvestPool, ReharvestReturnsToLiveSource) {
  HarvestResourcePool pool;
  pool.put(1, {4, 0}, 10.0, 0.0);
  pool.get({3, 0}, 9, 1.0);
  EXPECT_DOUBLE_EQ(pool.idle_total().cpu, 1.0);
  pool.reharvest(9, 2.0);  // borrower finished early; source still running
  EXPECT_DOUBLE_EQ(pool.idle_total().cpu, 4.0);
  // Re-entered volume keeps the original priority: lendable again.
  EXPECT_EQ(pool.get({4, 0}, 10, 3.0).size(), 1u);
}

TEST(HarvestPool, ReharvestAfterSourceGoneDropsVolume) {
  HarvestResourcePool pool;
  pool.put(1, {4, 0}, 10.0, 0.0);
  pool.get({3, 0}, 9, 1.0);
  pool.preempt_source(1, 2.0);
  pool.reharvest(9, 3.0);  // nothing to return to
  EXPECT_TRUE(pool.idle_total().is_zero());
}

TEST(HarvestPool, SnapshotReportsIdleEntriesOnly) {
  HarvestResourcePool pool;
  pool.put(1, {2, 100}, 10.0, 0.0);
  pool.put(2, {1, 0}, 20.0, 0.0);
  pool.get({1, 0}, 9, 0.0);  // drains entry 2 (longest-lived first)
  const auto status = pool.snapshot(1.0);
  ASSERT_EQ(status.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(status.entries[0].volume.cpu, 2.0);
  EXPECT_DOUBLE_EQ(status.taken_at, 1.0);
}

TEST(HarvestPool, IdleTimeIntegralsAccrue) {
  HarvestResourcePool pool;
  pool.put(1, {2, 100}, 100.0, /*now=*/0.0);
  // 2 cores idle for 10 seconds.
  const auto at10 = pool.idle_integrals(10.0);
  EXPECT_NEAR(at10.cpu_core_seconds, 20.0, 1e-9);
  EXPECT_NEAR(at10.mem_mb_seconds, 1000.0, 1e-9);
  // Borrow everything: idle accrual stops.
  pool.get({2, 100}, 9, 10.0);
  const auto at30 = pool.idle_integrals(30.0);
  EXPECT_NEAR(at30.cpu_core_seconds, 20.0, 1e-9);
  EXPECT_NEAR(at30.mem_mb_seconds, 1000.0, 1e-9);
}

TEST(HarvestPool, MergingPutsAccumulateAndKeepLaterExpiry) {
  HarvestResourcePool pool;
  pool.put(1, {1, 0}, 10.0, 0.0);
  pool.put(1, {2, 0}, 30.0, 0.0);
  EXPECT_EQ(pool.entry_count(), 1u);
  EXPECT_DOUBLE_EQ(pool.idle_total().cpu, 3.0);
  const auto status = pool.snapshot(0.0);
  EXPECT_DOUBLE_EQ(status.entries[0].est_expiry, 30.0);
}

TEST(HarvestPool, PreemptSourceIsIdempotent) {
  HarvestResourcePool pool;
  pool.put(1, {2, 256}, 10.0, 0.0);
  pool.get({1, 128}, /*borrower=*/9, 0.0);
  const auto first = pool.preempt_source(1, 1.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].borrower, 9);
  EXPECT_DOUBLE_EQ(first[0].amount.cpu, 1.0);
  EXPECT_EQ(pool.entry_count(), 0u);
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
  // Preempting an already-preempted (or unknown) source changes nothing.
  EXPECT_TRUE(pool.preempt_source(1, 2.0).empty());
  EXPECT_TRUE(pool.preempt_source(77, 2.0).empty());
  EXPECT_EQ(pool.entry_count(), 0u);
}

TEST(HarvestPool, ReharvestAfterSourcePreemptedReturnsNothing) {
  HarvestResourcePool pool;
  pool.put(1, {2, 256}, 10.0, 0.0);
  pool.get({1, 128}, 9, 0.0);
  pool.preempt_source(1, 1.0);  // source gone; borrower's grant is void
  pool.reharvest(9, 2.0);
  EXPECT_EQ(pool.entry_count(), 0u);
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
  EXPECT_TRUE(pool.idle_total().is_zero());
}

TEST(HarvestPool, PreemptAllDrainsEntriesAndAggregatesGrants) {
  HarvestResourcePool pool;
  pool.put(1, {2, 256}, 10.0, 0.0);
  pool.put(2, {3, 512}, 20.0, 0.0);
  pool.get({1.5, 200}, /*borrower=*/8, 0.0);   // spans entry 2 (+ maybe 1)
  pool.get({0.5, 64}, /*borrower=*/9, 0.0);
  const auto revocations = pool.preempt_all(1.0);
  sim::Resources revoked;
  for (const auto& rev : revocations) revoked += rev.amount;
  EXPECT_DOUBLE_EQ(revoked.cpu, 2.0);
  EXPECT_DOUBLE_EQ(revoked.mem, 264.0);
  EXPECT_EQ(pool.entry_count(), 0u);
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
  EXPECT_TRUE(pool.idle_total().is_zero());
  EXPECT_TRUE(pool.preempt_all(2.0).empty());
  // Grants after the wipe come from nothing: the pool really is empty.
  EXPECT_TRUE(pool.get({1, 64}, 7, 3.0).empty());
}

TEST(HarvestPool, IdleIntegralsAreMonotoneUnderInterleavedOps) {
  // Fig. 10's idle-time integrals accumulate history; no put/get/preempt
  // sequence may ever make them shrink.
  HarvestResourcePool pool;
  double last_cpu = 0.0, last_mem = 0.0;
  auto check = [&](double now) {
    const auto ii = pool.idle_integrals(now);
    EXPECT_GE(ii.cpu_core_seconds, last_cpu - 1e-12);
    EXPECT_GE(ii.mem_mb_seconds, last_mem - 1e-12);
    last_cpu = ii.cpu_core_seconds;
    last_mem = ii.mem_mb_seconds;
  };
  pool.put(1, {2, 256}, 100.0, 0.0);
  check(1.0);
  pool.get({1, 128}, 9, 1.0);
  check(2.0);
  pool.put(2, {4, 512}, 100.0, 2.0);
  check(3.0);
  pool.preempt_source(1, 3.0);
  check(4.0);
  pool.reharvest(9, 4.0);
  check(5.0);
  pool.preempt_all(5.0);
  check(6.0);
  check(10.0);  // pool empty: integrals frozen, never decreasing
  EXPECT_GT(last_cpu, 0.0);
  EXPECT_GT(last_mem, 0.0);
}

// Seeded property tests. The pool is owned by the serial event loop and
// takes no lock, so "concurrent" here means many simulated actors whose op
// streams one RNG interleaves on one thread; every operation is followed by
// the full conservation audit. Fixed seeds: any failure replays exactly.
// The suite name keeps these under the `-R HarvestPool` filter.

// A long random mix of every pool operation across eight actors with
// disjoint source/borrower id ranges; a periodic preempt_all plays a node
// crash.
TEST(HarvestPoolStress, ConcurrentMixedOpsPreserveInvariants) {
  constexpr int kActors = 8;
  constexpr int kOps = 3200;
  constexpr int kCrashEvery = 100;

  HarvestResourcePool pool;
  util::Rng rng(1234);
  double now = 0.0;
  auto next_tick = [&now] { return now += 0.001; };
  const long failures_before = util::audit::failures_observed();

  for (int i = 0; i < kOps; ++i) {
    const int actor = static_cast<int>(rng.uniform_int(0, kActors - 1));
    const InvocationId source = 1000 * (actor + 1) + rng.uniform_int(0, 19);
    const InvocationId borrower = 100000 * (actor + 1) + rng.uniform_int(0, 9);
    const double t = next_tick();
    if (i % kCrashEvery == kCrashEvery / 2) {
      pool.preempt_all(t);
      EXPECT_EQ(pool.entry_count(), 0u);
      EXPECT_EQ(pool.outstanding_borrows(), 0u);
    } else {
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // put: harvest some volume
          Resources vol{rng.uniform(0.1, 2.0), rng.uniform(16.0, 256.0)};
          pool.put(source, vol, t + rng.uniform(0.5, 5.0), t);
          break;
        }
        case 4:
        case 5:
        case 6: {  // get: borrow best-effort
          HarvestResourcePool::GetOptions opt;
          opt.timeliness_order = (i % 2 == 0);
          pool.get({rng.uniform(0.1, 1.5), rng.uniform(16.0, 128.0)},
                   borrower, t, opt);
          break;
        }
        case 7:  // reharvest: borrower finished
          pool.reharvest(borrower, t);
          break;
        case 8:  // preemptive release of one source
          pool.preempt_source(source, t);
          break;
        default: {  // readers
          const auto st = pool.debug_state();
          (void)st;
          const auto ii = pool.idle_integrals(t);
          EXPECT_GE(ii.cpu_core_seconds, 0.0);
          EXPECT_GE(ii.mem_mb_seconds, 0.0);
          pool.snapshot(t);
          break;
        }
      }
    }
    pool.audit_now(next_tick());
  }
  EXPECT_EQ(util::audit::failures_observed(), failures_before);
  EXPECT_EQ(pool.debug_state().clock_regressions, 0);

  // The final state must still satisfy conservation exactly: per source,
  // idle + outstanding == harvested.
  const auto st = pool.debug_state();
  ASSERT_FALSE(st.entries.empty());
  for (const auto& e : st.entries) {
    double borrowed_cpu = 0.0, borrowed_mem = 0.0;
    for (const auto& b : st.borrows) {
      if (b.source == e.source) {
        borrowed_cpu += b.amount.cpu;
        borrowed_mem += b.amount.mem;
      }
    }
    EXPECT_NEAR(e.idle.cpu + borrowed_cpu, e.harvested.cpu, 1e-6);
    EXPECT_NEAR(e.idle.mem + borrowed_mem, e.harvested.mem, 1e-6);
  }
}

// Six actors each put to their own sources and borrow from the pool, while
// actor 0 wipes the pool every tenth round (a node crash). No grant may
// outlive a wipe, and a final wipe leaves nothing behind.
TEST(HarvestPoolStress, ConcurrentPreemptAllNeverLeaksGrants) {
  constexpr int kActors = 6;
  constexpr int kRounds = 150;

  HarvestResourcePool pool;
  util::Rng rng(99);
  double now = 0.0;
  auto next_tick = [&now] { return now += 0.001; };
  const long failures_before = util::audit::failures_observed();

  int round[kActors] = {};
  int live = kActors;
  while (live > 0) {
    const int actor = static_cast<int>(rng.uniform_int(0, kActors - 1));
    if (round[actor] == kRounds) continue;
    const int i = round[actor]++;
    if (round[actor] == kRounds) --live;
    const double t = next_tick();
    if (actor == 0 && i % 10 == 9) {
      pool.preempt_all(t);
      EXPECT_EQ(pool.entry_count(), 0u);
      EXPECT_EQ(pool.outstanding_borrows(), 0u);
    } else {
      pool.put(10 * (actor + 1) + rng.uniform_int(0, 3),
               {rng.uniform(0.1, 1.0), rng.uniform(16.0, 64.0)}, t + 2.0, t);
      pool.get({0.5, 32.0}, 500 + actor, t);
    }
    pool.audit_now(next_tick());
  }
  EXPECT_EQ(util::audit::failures_observed(), failures_before);
  EXPECT_GT(pool.outstanding_borrows(), 0u);

  // After a final crash-teardown the pool must be completely empty.
  pool.preempt_all(next_tick());
  const auto st = pool.debug_state();
  EXPECT_TRUE(st.entries.empty());
  EXPECT_TRUE(st.borrows.empty());
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
}

}  // namespace
}  // namespace libra::core
