// libra_bench — one repetition of one benchmark workload, as one process.
//
//   libra_bench --workload NAME --seed N [--traced]
//
// Sets the workload up from its seed, runs it and tears it down, then prints
// one JSON line: the end-to-end metrics by their BENCHMARK.json names, the
// RunMetrics digest and every correctness violation found. With
// --traced it runs the workload twice in this process, untraced and then
// through the timed wrappers, checks that both runs produce the same digest
// and adds the per-layer metrics. perfbench/run.py repeats this process for
// the measured duration and aggregates the repetitions.
//
// Exit codes: 0 correct, 1 a correctness check failed, 2 bad arguments.
#include <sys/resource.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/digest.h"
#include "obs/exporters.h"
#include "util/audit.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide peak resident set, MB (ru_maxrss is KB on Linux).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects a missing value
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const std::map<std::string, double>& kv) {
  std::string out = "{";
  for (const auto& [k, v] : kv) {
    if (out.size() > 1) out += ", ";
    out += '"' + libra::obs::json_escape(k) + "\": " + json_number(v);
  }
  return out + "}";
}

int usage(const char* why) {
  std::cerr << "libra_bench: " << why
            << "\nusage: libra_bench --workload "
               "libra_azure|default_azure|libra_audited_churn --seed N "
               "[--traced]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string workload_arg;
  std::string seed_arg;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload_arg = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed_arg = argv[++i];
    } else if (a == "--traced") {
      traced = true;
    } else {
      return usage(("unknown argument '" + a + "'").c_str());
    }
  }
  const auto workload = perfbench::parse_workload(workload_arg);
  if (!workload) return usage("missing or unknown --workload");
  uint64_t seed = 0;
  try {
    size_t used = 0;
    // stoull would accept a sign or leading blanks; a seed is digits only.
    if (seed_arg.empty() ||
        !std::isdigit(static_cast<unsigned char>(seed_arg[0])))
      throw std::invalid_argument(seed_arg);
    seed = std::stoull(seed_arg, &used);
    if (used != seed_arg.size()) throw std::invalid_argument(seed_arg);
  } catch (const std::exception&) {
    return usage("--seed must be a non-negative integer");
  }

  // Count auditor diagnostics instead of aborting on the first one, so the
  // run finishes and reports every violation as a failed check.
  libra::util::audit::set_failure_handler(
      [](const libra::util::audit::Diagnostic& d) {
        std::cerr << d.to_string() << "\n";
      });

  const auto scale = perfbench::Scale::kFull;
  const perfbench::Totals plain =
      perfbench::run_workload(*workload, seed, scale, false, process_start);
  const auto metrics = perfbench::end_to_end_metrics(plain, peak_rss_mb());
  std::vector<std::string> failures = plain.failures;

  std::map<std::string, double> layers;
  std::map<std::string, double> shares;
  if (traced) {
    const perfbench::Totals t = perfbench::run_workload(
        *workload, seed, scale, true, Clock::now());
    failures.insert(failures.end(), t.failures.begin(), t.failures.end());
    if (t.digest != plain.digest)
      failures.push_back(std::string(perfbench::workload_name(*workload)) +
                         " seed " + std::to_string(seed) +
                         ": traced run digest " +
                         libra::exp::digest_hex(t.digest) +
                         " != untraced digest " +
                         libra::exp::digest_hex(plain.digest));
    layers = perfbench::layer_metrics(t, plain);
    shares = perfbench::layer_shares(t);
  }

  std::ostringstream out;
  out << "{\"workload\": \"" << libra::obs::json_escape(workload_arg)
      << "\", \"seed\": " << seed << ", \"digest\": \""
      << libra::exp::digest_hex(plain.digest) << '"';
  out << ", \"finalized\": " << plain.finalized
      << ", \"completed\": " << plain.completed
      << ", \"latency_samples\": " << plain.latencies.size()
      << ", \"metrics\": " << json_object(metrics);
  if (traced)
    out << ", \"layers\": " << json_object(layers)
        << ", \"layer_shares\": " << json_object(shares);
  out << ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i)
    out << (i ? ", \"" : "\"") << libra::obs::json_escape(failures[i]) << '"';
  out << "]}";
  std::cout << out.str() << std::endl;
  return failures.empty() ? 0 : 1;
}
