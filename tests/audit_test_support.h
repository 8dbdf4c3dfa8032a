// Shared fixtures for the audit tests: a scoped failure handler that
// collects diagnostics instead of aborting, and a minimal EngineApi that
// drives InvariantAuditor sweeps without an engine run.
#pragma once

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/execution_model.h"
#include "sim/invocation.h"
#include "sim/node.h"
#include "sim/policy.h"
#include "util/audit.h"

namespace libra::test_support {

/// Scoped failure handler: collects diagnostics instead of aborting, and
/// restores the previous handler (normally "abort") on destruction.
class AuditCapture {
 public:
  AuditCapture() {
    prev_ = util::audit::set_failure_handler(
        [this](const util::audit::Diagnostic& d) { diags_.push_back(d); });
  }
  ~AuditCapture() { util::audit::set_failure_handler(std::move(prev_)); }
  AuditCapture(const AuditCapture&) = delete;
  AuditCapture& operator=(const AuditCapture&) = delete;

  const std::vector<util::audit::Diagnostic>& diags() const { return diags_; }
  bool fired() const { return !diags_.empty(); }
  /// True when some diagnostic's detail contains `text`.
  bool fired_with(const std::string& text) const {
    return std::any_of(diags_.begin(), diags_.end(),
                       [&](const util::audit::Diagnostic& d) {
                         return d.detail.find(text) != std::string::npos;
                       });
  }

 private:
  util::audit::FailureHandler prev_;
  std::vector<util::audit::Diagnostic> diags_;
};

/// Minimal EngineApi for driving auditor sweeps without an engine run: one
/// node and a handful of invocations. A record is alive while present;
/// tests mark it finished through invocation(id).done.
class FakeApi final : public sim::EngineApi {
 public:
  FakeApi() { nodes_.emplace_back(0, sim::Resources{32.0, 32768.0}, 1); }
  sim::SimTime now() const override { return 50.0; }
  const std::vector<sim::Node>& nodes() const override { return nodes_; }
  sim::Node& node(sim::NodeId id) override {
    return nodes_.at(static_cast<size_t>(id));
  }
  sim::Invocation& invocation(sim::InvocationId id) override {
    return invocations_.at(id);
  }
  bool invocation_alive(sim::InvocationId id) const override {
    return invocations_.count(id) != 0;
  }
  const sim::ExecutionModel& exec_model() const override { return exec_; }
  void update_effective(sim::InvocationId, const sim::Resources&) override {}
  void sync_accounting(sim::InvocationId) override {}
  sim::Resources observed_usage(sim::InvocationId) const override {
    return {};
  }
  sim::Resources observed_peak(sim::InvocationId) const override {
    return {};
  }
  void placed_invocations(std::vector<sim::InvocationId>* out) const override {
    *out = placed_;
  }
  size_t placed_count() const override { return placed_.size(); }

  void add_invocation(sim::InvocationId id, sim::FunctionId func) {
    sim::Invocation inv;
    inv.id = id;
    inv.func = func;
    invocations_[id] = inv;
  }

  /// Records `id` as holding `alloc` on node 0 without reserving it on the
  /// node, so a test reserves (or does not) separately.
  void place(sim::InvocationId id, const sim::Resources& alloc) {
    sim::Invocation& inv = invocations_.at(id);
    inv.node = 0;
    inv.user_alloc = alloc;
    placed_.push_back(id);
    std::sort(placed_.begin(), placed_.end());
  }

 private:
  std::vector<sim::Node> nodes_;
  std::unordered_map<sim::InvocationId, sim::Invocation> invocations_;
  std::vector<sim::InvocationId> placed_;
  sim::ExecutionModel exec_;
};

}  // namespace libra::test_support
