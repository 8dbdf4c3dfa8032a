// Span clock for the traced benchmark run: the timed wrappers (timed.h)
// open one span around every call they forward into a simulator layer.
// Spans nest (a pool mutation inside Policy::plan_allocation notifies the
// auditor through a timed listener), so each layer is charged its SELF
// time: the span's duration minus the part its child spans cover. The sum
// of all self times equals the time spent inside outermost spans, so the
// engine's own self time is the run's wall time minus top_level_ns().
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer {
  kPull,      // gen::TraceSource::peek_arrival / next
  kPredict,   // Policy::predict / speculate_predict / commit_predict
  kSelect,    // Policy::select_node / speculate_select / commit_select
  kPlan,      // Policy::plan_allocation (harvest pool puts and gets)
  kComplete,  // Policy::on_complete (release, re-harvest, model update)
  kPing,      // Policy::on_health_ping (snapshot refresh, backfill)
  kMonitor,   // Policy::wants_monitor / on_monitor (safeguard)
  kPolicyOther,  // every other Policy callback (faults, OOM, finalize)
  kAudit,     // analysis::InvariantAuditor (engine sweeps, pool checks)
  kObs,       // obs::ObsSession (engine, pool and policy events)
  kCount
};

inline constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

/// Dotted name of a layer, as in the per-layer metric names.
const char* layer_name(Layer l);

class LayerClock {
 public:
  using Clock = std::chrono::steady_clock;

  void enter(Layer layer);
  void exit();

  int64_t self_ns(Layer l) const { return self_ns_[idx(l)]; }
  long calls(Layer l) const { return calls_[idx(l)]; }
  /// Time spent inside outermost spans (= the sum of every self time).
  int64_t top_level_ns() const { return top_level_ns_; }
  /// Spans still open; 0 after a well-formed run.
  size_t depth() const { return stack_.size(); }

  /// RAII span.
  class Scope {
   public:
    Scope(LayerClock* clock, Layer layer) : clock_(clock) {
      clock_->enter(layer);
    }
    ~Scope() { clock_->exit(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock* clock_;
  };

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    int64_t child_ns;
  };
  static size_t idx(Layer l) { return static_cast<size_t>(l); }

  std::vector<Frame> stack_;
  std::array<int64_t, kLayers> self_ns_{};
  std::array<long, kLayers> calls_{};
  int64_t top_level_ns_ = 0;
};

}  // namespace perfbench
