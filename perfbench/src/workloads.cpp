#include "workloads.h"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "analysis/invariant_auditor.h"
#include "core/libra_policy.h"
#include "exp/digest.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "gen/synthetic_source.h"
#include "obs/obs_session.h"
#include "timed.h"
#include "util/audit.h"
#include "util/stats.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace perfbench {

namespace lb = libra;
using Clock = std::chrono::steady_clock;

namespace {

// ---- Workload shapes -------------------------------------------------------
//
// Sizes are chosen against exp/runner.cpp's audit sampling rule: a run of
// <= 4096 expected invocations is swept after every event, up to 1,000,000
// every 64th event, beyond that every 4096th. Each libra_audited_churn part
// stays well below 4096 (every-event auditing is what it measures); the
// azure pair stays well above 4096 and below 1,000,000 at every seed.

constexpr int kAzureNodes = 50;
constexpr int kAzureShards = 4;
constexpr int kChurnNodes = 8;
constexpr int kChurnShards = 2;
constexpr int kChurnParts = 8;
/// The function population is part of a workload, not of its input: one
/// fixed catalog whatever the seed; the seed drives the stream.
constexpr uint64_t kAzureCatalogSeed = 42;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64: independent sub-seeds (per part, stream, faults) from one.
uint64_t derive_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int parts_of(Workload w) {
  return w == Workload::kLibraAuditedChurn ? kChurnParts : 1;
}

/// Azure-style stream shared by libra_azure and default_azure: same rate,
/// catalog, popularity and bursts. The Default stream is longer: its
/// per-invocation cost is ~10x lower, so it needs more invocations for a
/// steady per-invocation time. Both windows hold whole diurnal periods.
lb::gen::GenConfig azure_gen(Workload w, Scale scale, uint64_t seed) {
  lb::gen::GenConfig g;
  const bool small = scale == Scale::kSmall;
  g.functions = small ? 40 : 300;
  g.rpm = small ? 3000.0 : 25000.0;
  g.diurnal_period = small ? 20.0 : 60.0;
  g.duration = small ? 20.0 : (w == Workload::kLibraAzure ? 60.0 : 240.0);
  g.seed = seed;
  return g;
}

/// One churn part: the SeBS catalog at a rate the 8-node fleet serves
/// without a standing queue, over a window long enough for node churn.
lb::workload::TraceConfig churn_trace(Scale scale, uint64_t seed) {
  lb::workload::TraceConfig t;
  t.rpm = 65.0;
  t.duration = scale == Scale::kSmall ? 120.0 : 1800.0;
  t.seed = seed;
  return t;
}

/// Multiplicative under-prediction storm on every function from t = 5 s on
/// (the misprediction bench's "bias x0.15" level): the trust breaker,
/// safeguard and OOM re-dispatch all have work to do.
std::vector<lb::sim::fault::PredictionFault> bias_storm() {
  return {{lb::sim::fault::PredFaultKind::kBias,
           lb::sim::fault::kAllFunctions, 5.0, lb::sim::fault::kNever, 0.15}};
}

lb::sim::EngineConfig engine_config(Workload w, uint64_t fault_seed) {
  if (w != Workload::kLibraAuditedChurn) {
    lb::sim::EngineConfig cfg =
        lb::exp::jetstream_config(kAzureNodes, kAzureShards);
    cfg.retain_records = false;
    cfg.recycle_records = true;
    cfg.series_resolution = 1.0;
    return cfg;
  }
  lb::sim::EngineConfig cfg =
      lb::exp::jetstream_config(kChurnNodes, kChurnShards);
  cfg.oom_redispatch = true;
  cfg.fault_profile.seed = fault_seed;
  cfg.fault_profile.node_mtbf = 300.0;
  cfg.fault_profile.node_mttr = 10.0;
  cfg.fault_profile.ping_drop_prob = 0.10;
  cfg.fault_profile.cold_start_fail_prob = 0.05;
  // Enough retries that churn delays invocations but loses none: the
  // benchmark's operations must all succeed.
  cfg.max_fault_retries = 8;
  cfg.control.num_controllers = 2;
  cfg.control.gossip_period = 2.0;
  return cfg;
}

/// exp/runner.cpp's sweep sampling rule, reproduced for the traced run's
/// own auditor (the policy wrapper hides LibraPolicy from the runner's).
int runner_every_n(size_t workload_size) {
  return workload_size <= 4096 ? 1 : (workload_size <= 1000000 ? 64 : 4096);
}

/// Everything one part owns between setup and teardown.
struct Setup {
  std::shared_ptr<const lb::sim::FunctionCatalog> catalog;
  std::unique_ptr<lb::gen::SyntheticSource> source;  // azure workloads
  std::vector<lb::sim::Invocation> trace;            // churn workload
  std::shared_ptr<lb::sim::Policy> policy;
  lb::core::LibraPolicy* libra = nullptr;  // `policy`, when it is Libra
  std::unique_ptr<lb::obs::ObsSession> obs;
  lb::sim::EngineConfig cfg;
  size_t workload_size = 0;  // what the runner keys audit sampling on
  double window_s = 0.0;     // arrival window
  // Setup phases (traced runs report them).
  double catalog_s = 0.0;
  double trace_s = 0.0;
  double prewarm_s = 0.0;
};

/// Builds one part through the exp:: factories. Nearly all of a Libra
/// factory's time is profiler training, so the lap around it is reported
/// as the prewarm.
std::unique_ptr<Setup> build(Workload w, Scale scale, uint64_t part_seed) {
  auto s = std::make_unique<Setup>();
  const lb::exp::PlatformTuning tuning;
  auto t = Clock::now();
  auto lap = [&t] {
    const auto now = Clock::now();
    const double d = seconds_between(t, now);
    t = now;
    return d;
  };
  const uint64_t stream_seed = derive_seed(part_seed, 1);

  if (w == Workload::kLibraAuditedChurn) {
    s->catalog = std::make_shared<const lb::sim::FunctionCatalog>(
        lb::workload::sebs_catalog());
    s->catalog_s = lap();
    const auto tc = churn_trace(scale, stream_seed);
    s->trace = lb::workload::generate_trace(*s->catalog, tc);
    s->workload_size = s->trace.size();
    s->window_s = tc.duration;
    s->trace_s = lap();
    auto libra = lb::exp::make_faulty_libra(s->catalog, tuning, bias_storm(),
                                            /*with_trust=*/true);
    s->prewarm_s = lap();
    s->libra = libra.get();
    s->policy = std::move(libra);
    s->obs = std::make_unique<lb::obs::ObsSession>();
  } else {
    const lb::gen::GenConfig g = azure_gen(w, scale, stream_seed);
    lb::gen::GenConfig catalog_cfg = g;
    catalog_cfg.seed = kAzureCatalogSeed;
    s->catalog = std::make_shared<const lb::sim::FunctionCatalog>(
        lb::gen::synthetic_catalog(catalog_cfg));
    s->catalog_s = lap();
    s->source = std::make_unique<lb::gen::SyntheticSource>(g, s->catalog);
    s->workload_size = s->source->size_hint();
    s->window_s = g.duration;
    s->trace_s = lap();
    s->policy = lb::exp::make_platform(w == Workload::kDefaultAzure
                                           ? lb::exp::PlatformKind::kDefault
                                           : lb::exp::PlatformKind::kLibra,
                                       s->catalog, tuning);
    s->prewarm_s = lap();
    s->libra = dynamic_cast<lb::core::LibraPolicy*>(s->policy.get());
  }
  s->cfg = engine_config(w, derive_seed(part_seed, 2));
  return s;
}

/// Record sink owned by the benchmark: exact latencies, no sketch.
class ExactSink final : public lb::sim::InvocationRecordSink {
 public:
  explicit ExactSink(Totals& t) : t_(t) {}

  void on_record(const lb::sim::InvocationRecord& rec) override {
    ++records;
    if (!rec.completed) return;
    ++completed;
    t_.latencies.push_back(rec.response_latency);
    t_.latency_sum += rec.response_latency;
    t_.user_latency_sum += rec.user_latency;
    t_.eq1_speedup_sum += rec.speedup;
  }

  long records = 0;
  long completed = 0;

 private:
  Totals& t_;
};

/// Times every call into a layer and wires its own auditor (and the obs
/// session, when the workload has one) exactly as exp::run_wired does.
struct TracedRun {
  LayerClock clock;
  std::shared_ptr<TimedPolicy> policy;
  std::unique_ptr<TimedSource> source;
  lb::analysis::InvariantAuditor auditor;
  TimedHook audit_hook;
  TimedPoolListener audit_pool;
  std::unique_ptr<TimedHook> obs_hook;
  std::unique_ptr<TimedPoolListener> obs_pool;
  std::unique_ptr<TimedPolicyListener> obs_policy;

  explicit TracedRun(Setup& s)
      : policy(make_timed_policy(s.policy, &clock)),
        auditor(lb::analysis::InvariantAuditorConfig{
            runner_every_n(s.workload_size)}),
        audit_hook(&auditor, &clock, Layer::kAudit),
        audit_pool(&auditor, &clock, Layer::kAudit) {
    if (s.source)
      source = std::make_unique<TimedSource>(s.source.get(), &clock);
    auditor.attach_policy(s.libra);
    s.cfg.audit_hook = &audit_hook;
    if (s.libra != nullptr) s.libra->set_pool_listener(&audit_pool);
    if (!s.obs) return;
    lb::obs::ObsSession* obs = s.obs.get();
    obs->chain_engine_hook(&audit_hook);
    obs->chain_pool_listener(&audit_pool);
    obs_hook = std::make_unique<TimedHook>(obs, &clock, Layer::kObs);
    obs_pool = std::make_unique<TimedPoolListener>(obs, &clock, Layer::kObs);
    obs_policy =
        std::make_unique<TimedPolicyListener>(obs, &clock, Layer::kObs);
    s.cfg.audit_hook = obs_hook.get();
    if (s.libra != nullptr) {
      s.libra->set_pool_listener(obs_pool.get());
      s.libra->set_policy_listener(obs_policy.get());
    }
  }

  // The wrappers and the engine config hold addresses of these members.
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  long engine_events() const {
    return obs_hook ? obs_hook->events() : audit_hook.events();
  }
};

void add_traced(const Setup& s, const TracedRun& tr,
                const lb::sim::RunMetrics& m, Totals& t) {
  for (size_t i = 0; i < kLayers; ++i) {
    t.self_ns[i] += tr.clock.self_ns(Layer(i));
    t.calls[i] += tr.clock.calls(Layer(i));
  }
  t.timed_ns += tr.clock.top_level_ns();
  t.catalog_s += s.catalog_s;
  t.trace_s += s.trace_s;
  t.prewarm_s += s.prewarm_s;
  const auto& counts = tr.policy->counts();
  t.predictions += counts.predicts + counts.speculated_predicts;
  t.speculated_predictions += counts.speculated_predicts;
  t.decisions += m.sched_decisions;
  t.engine_events += tr.engine_events();
  t.audit_sweeps += tr.auditor.stats().sweeps;
  if (s.obs)
    t.obs_series += static_cast<long>(s.obs->metrics().all_series().size());
  const auto& ps = m.policy;
  t.pool_puts += ps.harvest_puts;
  t.pool_gets += ps.borrow_gets;
  t.pool_revocations += ps.pool_revocations;
  t.pool_reharvests += ps.reharvests;
  t.safeguard_triggers += ps.safeguard_triggers;
  t.trust_demotions += ps.trust_demotions;
  t.ctrl_conflicts += m.control.total_conflicts();
  t.ctrl_steals += m.control.total_stolen;
  t.fault_retries += m.fault_retries + m.oom_retries;
  t.lost += m.lost_invocations;
}

/// Checks one part's outputs; every message names the workload and part.
void check_part(const std::string& where, const lb::sim::RunMetrics& m,
                const ExactSink& sink, long audit_failures, Totals& t) {
  auto fail = [&t, &where](const std::string& what) {
    t.failures.push_back(where + ": " + what);
  };
  if (m.finalized_records != m.finalized_completed + m.finalized_incomplete +
                                 m.lost_invocations) {
    std::ostringstream os;
    os << "finalized " << m.finalized_records << " != completed "
       << m.finalized_completed << " + incomplete " << m.finalized_incomplete
       << " + lost " << m.lost_invocations;
    fail(os.str());
  }
  if (sink.records != m.finalized_records)
    fail("record sink saw " + std::to_string(sink.records) + " of " +
         std::to_string(m.finalized_records) + " finalized records");
  if (sink.completed != m.finalized_completed)
    fail("record sink saw " + std::to_string(sink.completed) + " of " +
         std::to_string(m.finalized_completed) + " completed records");
  if (m.finalized_records == 0) fail("no invocation was finalized");
  if (audit_failures != 0)
    fail("invariant auditor raised " + std::to_string(audit_failures) +
         " diagnostics");
}

void run_part(Workload w, Scale scale, uint64_t part_seed, bool traced,
              Clock::time_point start, const std::string& where, Totals& t) {
  const long audit_failures_before = lb::util::audit::failures_observed();
  std::unique_ptr<Setup> setup = build(w, scale, part_seed);
  ExactSink sink(t);
  setup->cfg.record_sink = &sink;
  std::unique_ptr<TracedRun> tr;
  if (traced) tr = std::make_unique<TracedRun>(*setup);
  const auto run_begin = Clock::now();
  t.setup_s += seconds_between(start, run_begin);

  auto metrics = std::make_unique<lb::sim::RunMetrics>();
  if (tr && tr->source) {
    *metrics = lb::exp::run_experiment(setup->cfg, tr->policy, *tr->source);
  } else if (tr) {
    *metrics = lb::exp::run_experiment(setup->cfg, tr->policy,
                                       std::move(setup->trace));
    if (setup->obs) {
      LayerClock::Scope span(&tr->clock, Layer::kObs);
      setup->obs->finish(*metrics);
    }
  } else if (setup->source) {
    *metrics =
        lb::exp::run_experiment(setup->cfg, setup->policy, *setup->source);
  } else {
    *metrics = lb::exp::run_experiment(setup->cfg, setup->policy,
                                       std::move(setup->trace),
                                       setup->obs.get());
  }
  const auto run_end = Clock::now();
  t.run_s += seconds_between(run_begin, run_end);

  const lb::sim::RunMetrics& m = *metrics;
  lb::exp::Fnv64 h;
  h.u64(t.digest);
  h.u64(lb::exp::run_metrics_digest(m));
  t.digest = h.value();
  t.finalized += m.finalized_records;
  t.completed += m.finalized_completed;
  // Utilization over the arrival window, where every part carries load;
  // the drain tail after the last arrival would only dilute it.
  t.cpu_busy_core_s += m.cpu_used.integral(0.0, setup->window_s);
  t.cpu_capacity_core_s += m.total_capacity.cpu * setup->window_s;
  check_part(where, m, sink,
             lb::util::audit::failures_observed() - audit_failures_before, t);
  if (tr) {
    if (tr->clock.depth() != 0)
      t.failures.push_back(where + ": a layer span was left open");
    add_traced(*setup, *tr, m, t);
  }

  const auto teardown_begin = Clock::now();
  tr.reset();
  metrics.reset();
  setup.reset();
  t.teardown_s += seconds_between(teardown_begin, Clock::now());
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      Workload::kLibraAzure, Workload::kDefaultAzure,
      Workload::kLibraAuditedChurn};
  return kAll;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kLibraAzure:
      return "libra_azure";
    case Workload::kDefaultAzure:
      return "default_azure";
    case Workload::kLibraAuditedChurn:
      return "libra_audited_churn";
  }
  throw std::invalid_argument("workload_name: bad workload");
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : all_workloads())
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

Totals run_workload(Workload w, uint64_t seed, Scale scale, bool traced,
                    Clock::time_point start) {
  Totals t;
  for (int p = 0; p < parts_of(w); ++p) {
    const std::string where = std::string(workload_name(w)) + " seed " +
                              std::to_string(seed) + " part " +
                              std::to_string(p);
    run_part(w, scale, derive_seed(seed, 100 + static_cast<uint64_t>(p)),
             traced, p == 0 ? start : Clock::now(), where, t);
  }
  return t;
}

std::map<std::string, double> end_to_end_metrics(const Totals& t,
                                                  double peak_rss_mb) {
  const double fin = static_cast<double>(t.finalized);
  const bool any = !t.latencies.empty();
  return {
      {"setup_s", t.setup_s},
      {"run_us_per_inv", per(t.run_s * 1e6, fin)},
      {"total_us_per_inv",
       per((t.setup_s + t.run_s + t.teardown_s) * 1e6, fin)},
      {"peak_rss_mb", peak_rss_mb},
      {"sim_latency_p50_s", any ? lb::util::percentile(t.latencies, 50) : 0.0},
      {"sim_latency_p99_s", any ? lb::util::percentile(t.latencies, 99) : 0.0},
      {"sim_speedup_factor", per(t.user_latency_sum, t.latency_sum)},
      {"sim_cpu_util", per(t.cpu_busy_core_s, t.cpu_capacity_core_s)},
      {"goodput", per(static_cast<double>(t.completed), fin)},
  };
}

std::map<std::string, double> layer_metrics(const Totals& t,
                                            const Totals& plain) {
  auto self_ns = [&t](Layer l) {
    return static_cast<double>(t.self_ns[static_cast<size_t>(l)]);
  };
  auto per_call = [&t, &self_ns](Layer l) {
    return per(self_ns(l),
               static_cast<double>(t.calls[static_cast<size_t>(l)]));
  };
  auto d = [](long v) { return static_cast<double>(v); };
  const double fin = d(t.finalized);
  const double events = d(t.engine_events);
  const double run_ns = t.run_s * 1e9;
  const double engine_self_ns = run_ns - static_cast<double>(t.timed_ns);
  return {
      {"gen.catalog_s", t.catalog_s},
      {"gen.trace_s", t.trace_s},
      {"core.profiler.prewarm_s", t.prewarm_s},
      {"gen.pull_ns_per_inv", per(self_ns(Layer::kPull), fin)},
      {"core.profiler.predict_ns_per_call",
       per(self_ns(Layer::kPredict), d(t.predictions))},
      {"core.profiler.speculated_frac",
       per(d(t.speculated_predictions), d(t.predictions))},
      {"core.scheduler.select_ns_per_decision",
       per(self_ns(Layer::kSelect), d(t.decisions))},
      {"sim.controller.decisions_per_inv", per(d(t.decisions), fin)},
      {"core.pool.plan_ns_per_call", per_call(Layer::kPlan)},
      {"core.pool.complete_ns_per_call", per_call(Layer::kComplete)},
      {"core.policy.ping_ns_per_call", per_call(Layer::kPing)},
      {"core.policy.monitor_ns_per_call", per_call(Layer::kMonitor)},
      {"core.policy.other_ns_per_inv", per(self_ns(Layer::kPolicyOther), fin)},
      {"core.pool.puts", d(t.pool_puts)},
      {"core.pool.gets", d(t.pool_gets)},
      {"core.pool.revocations", d(t.pool_revocations)},
      {"core.pool.reharvests", d(t.pool_reharvests)},
      {"core.pool.safeguard_triggers", d(t.safeguard_triggers)},
      {"core.pool.gets_per_put", per(d(t.pool_gets), d(t.pool_puts))},
      {"analysis.audit_ns_per_event", per(self_ns(Layer::kAudit), events)},
      {"analysis.audit_share", per(self_ns(Layer::kAudit), run_ns)},
      {"analysis.sweeps", d(t.audit_sweeps)},
      {"obs.ns_per_event", per(self_ns(Layer::kObs), events)},
      {"obs.series", d(t.obs_series)},
      {"sim.engine.events_per_inv", per(events, fin)},
      {"sim.engine.self_ns_per_event", per(engine_self_ns, events)},
      {"sim.engine.self_share", per(engine_self_ns, run_ns)},
      {"sim.ctrl.conflicts", d(t.ctrl_conflicts)},
      {"sim.ctrl.steals", d(t.ctrl_steals)},
      {"sim.fault.retries", d(t.fault_retries)},
      {"sim.fault.lost", d(t.lost)},
      {"core.trust.demotions", d(t.trust_demotions)},
      {"sim.latency_samples", d(static_cast<long>(t.latencies.size()))},
      {"sim.speedup_eq1_mean", per(t.eq1_speedup_sum, d(t.completed))},
      {"trace_overhead_frac", per(t.run_s, plain.run_s) - 1.0},
  };
}

std::map<std::string, double> layer_shares(const Totals& t) {
  const double run_ns = t.run_s * 1e9;
  std::map<std::string, double> shares;
  for (size_t i = 0; i < kLayers; ++i)
    shares[layer_name(Layer(i))] =
        per(static_cast<double>(t.self_ns[i]), run_ns);
  shares["sim.engine.self"] =
      per(run_ns - static_cast<double>(t.timed_ns), run_ns);
  return shares;
}

}  // namespace perfbench
