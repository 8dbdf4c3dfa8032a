// Adapter: wraps a fully materialized trace (today's generate_trace output)
// behind the pull-based gen::TraceSource interface. Engine::run(vector) is a
// thin wrapper over this adapter, so every materialized scenario runs through
// the engine's one streaming admission loop.
//
// Header-only on purpose: the engine (libra_sim) constructs it, and
// libra_workload links libra_sim, so an out-of-line definition here would
// close a link cycle.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gen/trace_source.h"
#include "sim/invocation.h"

namespace libra::workload {

class MaterializedSource final : public gen::TraceSource {
 public:
  /// The trace must be sorted by arrival (same contract as Engine::run).
  explicit MaterializedSource(std::vector<sim::Invocation> trace)
      : trace_(std::move(trace)) {
    for (size_t i = 0; i < trace_.size(); ++i) {
      if (i > 0 && trace_[i].arrival < trace_[i - 1].arrival)
        throw std::invalid_argument(
            "MaterializedSource: trace not sorted by arrival time (index " +
            std::to_string(i) + ")");
      last_arrival_ = std::max(last_arrival_, trace_[i].arrival);
    }
  }

  std::optional<sim::SimTime> peek_arrival() override {
    if (pos_ >= trace_.size()) return std::nullopt;
    return trace_[pos_].arrival;
  }

  sim::Invocation next() override {
    if (pos_ >= trace_.size())
      throw std::logic_error("MaterializedSource: next() past the end");
    return std::move(trace_[pos_++]);
  }

  sim::SimTime horizon() const override { return last_arrival_; }
  size_t size_hint() const override { return trace_.size(); }

 private:
  std::vector<sim::Invocation> trace_;
  size_t pos_ = 0;
  sim::SimTime last_arrival_ = 0.0;
};

}  // namespace libra::workload
