// Perf-trajectory artifact (DESIGN.md §5l): a flat list of named scalar rows
// a bench run measured — ns/decision medians, p99 latencies, utilization
// integrals — serialized as BENCH_hotpath.json-style files. tools/bench_diff
// loads two artifacts and fails on regressions beyond tolerance, which is
// what lets CI gate performance as a trajectory (today vs the checked-in
// baseline) rather than as absolute numbers that drift with the runner.
//
// Writers MERGE rather than overwrite: several benches (micro_overheads,
// bench_fig12_scaling) append their rows to the same artifact file, with
// same-named rows replaced — re-running a bench refreshes its rows only.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace libra::exp {

struct BenchRow {
  /// Stable row key, e.g. "pool_put_get_ns" — bench_diff matches rows across
  /// artifacts by this name.
  std::string name;
  double value = 0.0;
  /// Display unit: "ns", "ms", "ratio", "core-seconds", ...
  std::string unit;
  /// "lower" when smaller is better (latencies, overheads), "higher" when
  /// larger is better (throughput, utilization integrals). bench_diff reads
  /// the OLD artifact's direction to orient the regression test.
  std::string direction = "lower";
};

struct BenchArtifact {
  std::vector<BenchRow> rows;

  /// Appends a row, replacing any existing row with the same name.
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& direction = "lower");
  const BenchRow* find(const std::string& name) const;
};

/// JSON serialization ({"tool": "libra-bench", "rows": [...]}).
std::string bench_artifact_to_json(const BenchArtifact& artifact);

/// Parses an artifact; throws std::runtime_error on malformed input (a
/// corrupt baseline must fail the CI step loudly, not compare as empty),
/// including a non-finite value or a direction other than "lower"/"higher".
BenchArtifact bench_artifact_from_json(const std::string& text);

/// Loads an artifact file; throws std::runtime_error when unreadable.
BenchArtifact load_bench_artifact(const std::string& path);

/// Merges `artifact`'s rows into the file at `path`: existing rows with
/// other names survive, same-named rows are replaced, and the file is
/// created when absent. Returns false (with `error` set) on IO failure.
bool merge_bench_artifact(const std::string& path,
                          const BenchArtifact& artifact, std::string* error);

}  // namespace libra::exp
