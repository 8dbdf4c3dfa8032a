#include "layer_clock.h"

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kPull:
      return "gen.pull";
    case Layer::kPredict:
      return "core.profiler.predict";
    case Layer::kSelect:
      return "core.scheduler.select";
    case Layer::kPlan:
      return "core.pool.plan";
    case Layer::kComplete:
      return "core.pool.complete";
    case Layer::kPing:
      return "core.policy.ping";
    case Layer::kMonitor:
      return "core.policy.monitor";
    case Layer::kPolicyOther:
      return "core.policy.other";
    case Layer::kAudit:
      return "analysis.audit";
    case Layer::kObs:
      return "obs";
    case Layer::kCount:
      break;
  }
  return "?";
}

void LayerClock::enter(Layer layer) {
  stack_.push_back(Frame{layer, Clock::now(), 0});
}

void LayerClock::exit() {
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           f.start)
          .count();
  self_ns_[idx(f.layer)] += dur - f.child_ns;
  ++calls_[idx(f.layer)];
  if (stack_.empty())
    top_level_ns_ += dur;
  else
    stack_.back().child_ns += dur;
}

}  // namespace perfbench
