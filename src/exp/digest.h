// Canonical digest of a RunMetrics: a 64-bit FNV-1a hash over a fixed-order
// serialization of every deterministic field. Two runs with equal digests
// produced bit-identical results; the golden-replay test and the fig12 CI
// smoke step use this to prove the barrier-batched sharded controller merges
// grants exactly like the one-decision-at-a-time engine, and that
// observability never moves the simulation. Wall-clock measurements
// (RunMetrics::sched_overhead_seconds) are deliberately excluded — they are
// real time, not simulation output.
#pragma once

#include <cstdint>
#include <string>

#include "sim/metrics.h"

namespace libra::exp {

/// Incremental FNV-1a 64-bit hasher over raw bytes. Doubles are fed as their
/// IEEE-754 bit patterns, so the digest distinguishes -0.0 from 0.0 and is
/// sensitive to every last ulp — "equal digest" means bit-identical.
class Fnv64 {
 public:
  void bytes(const void* data, size_t n);
  void u64(uint64_t v);
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u64(v ? 1 : 0); }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;  // FNV offset basis
};

/// Digest of every deterministic RunMetrics field (records, series, counters,
/// policy stats) in a fixed order. Excludes sched_overhead_seconds.
uint64_t run_metrics_digest(const sim::RunMetrics& m);

/// The digest as a fixed-width lowercase hex string (16 chars), for logs and
/// CI artifacts.
std::string digest_hex(uint64_t digest);

}  // namespace libra::exp
