// bench_diff — the perf-trajectory gate (DESIGN.md §5l). Loads two
// BenchArtifact JSON files (old baseline, new run) and compares every row
// they share by name:
//
//   bench_diff OLD.json NEW.json [--tolerance FRAC]
//
// A row regresses when it moves against its direction ("lower" rows grow,
// "higher" rows shrink) by more than the tolerance fraction (default 0.30 —
// wide enough for shared CI runners, tight enough to catch a layout
// regression that doubles a hot-path cost). The direction is read from the
// OLD artifact: the baseline, not the run under test, defines what better
// means. Rows present in only one artifact are reported but never fail the
// gate — benches gain and lose rows across commits.
//
// Exit status: 0 when no shared row regressed, 1 on any regression, 2 on
// usage/IO errors (a corrupt or missing baseline must fail loudly, not
// compare as empty). A tolerance that is not a whole finite non-negative
// number, a non-finite row value and an unknown direction are usage/IO
// errors too: the gate cannot judge such rows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/bench_artifact.h"

using libra::exp::BenchArtifact;
using libra::exp::BenchRow;
using libra::exp::load_bench_artifact;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bench_diff OLD.json NEW.json [--tolerance FRAC]\n"
               "  compares BenchArtifact rows by name; exits 1 when a row\n"
               "  moved against its direction by more than FRAC (default "
               "0.30)\n");
}

/// Parses a --tolerance operand: the whole string must be one finite,
/// non-negative number.
bool parse_tolerance(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0)
    return false;
  *out = v;
  return true;
}

/// Fractional change of `now` vs `then` oriented so positive = worse.
/// "lower" rows worsen by growing, "higher" rows by shrinking.
double regression_fraction(const BenchRow& baseline, double now) {
  const double then = baseline.value;
  if (std::fabs(then) < 1e-300) return 0.0;  // degenerate baseline: skip
  const double change = (now - then) / std::fabs(then);
  return baseline.direction == "higher" ? -change : change;
}

}  // namespace

int main(int argc, char** argv) {
  std::string old_path, new_path;
  double tolerance = 0.30;
  for (int i = 1; i < argc; ++i) {
    const char* tol_text = nullptr;
    if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tol_text = argv[++i];
    } else if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      tol_text = argv[i] + 12;
    }
    if (tol_text != nullptr) {
      if (!parse_tolerance(tol_text, &tolerance)) {
        std::fprintf(stderr, "bench_diff: bad --tolerance '%s'\n", tol_text);
        return 2;
      }
    } else if (std::strcmp(argv[i], "-h") == 0 ||
               std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    } else if (old_path.empty()) {
      old_path = argv[i];
    } else if (new_path.empty()) {
      new_path = argv[i];
    } else {
      usage();
      return 2;
    }
  }
  if (old_path.empty() || new_path.empty()) {
    usage();
    return 2;
  }

  BenchArtifact baseline, current;
  try {
    baseline = load_bench_artifact(old_path);
    current = load_bench_artifact(new_path);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }

  std::printf("bench_diff: %s -> %s (tolerance %.0f%%)\n", old_path.c_str(),
              new_path.c_str(), tolerance * 100.0);
  std::printf("%-36s %14s %14s %9s  %s\n", "row", "old", "new", "change",
              "verdict");

  int regressions = 0;
  int compared = 0;
  for (const BenchRow& row : baseline.rows) {
    const BenchRow* now = current.find(row.name);
    if (!now) {
      std::printf("%-36s %14.4g %14s %9s  only in old\n", row.name.c_str(),
                  row.value, "-", "-");
      continue;
    }
    ++compared;
    const double frac = regression_fraction(row, now->value);
    const bool regressed = frac > tolerance;
    const double change =
        std::fabs(row.value) < 1e-300
            ? 0.0
            : (now->value - row.value) / std::fabs(row.value);
    std::printf("%-36s %14.4g %14.4g %+8.1f%%  %s\n", row.name.c_str(),
                row.value, now->value, change * 100.0,
                regressed ? "REGRESSED" : "ok");
    if (regressed) ++regressions;
  }
  for (const BenchRow& row : current.rows) {
    if (!baseline.find(row.name))
      std::printf("%-36s %14s %14.4g %9s  only in new\n", row.name.c_str(),
                  "-", row.value, "-");
  }

  if (compared == 0) {
    // Disjoint artifacts are a wiring bug (wrong file passed), not a clean
    // pass.
    std::fprintf(stderr,
                 "bench_diff: no shared rows between the two artifacts\n");
    return 2;
  }
  if (regressions > 0) {
    std::printf("bench_diff: %d of %d shared rows regressed beyond %.0f%%\n",
                regressions, compared, tolerance * 100.0);
    return 1;
  }
  std::printf("bench_diff: %d shared rows within tolerance\n", compared);
  return 0;
}
