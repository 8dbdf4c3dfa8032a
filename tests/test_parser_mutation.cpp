// Seeded mutation fuzz of the two text formats the gates read back: chaos
// repro artifacts (chaos::parse_scenario) and bench artifacts
// (exp::bench_artifact_from_json). The toolchain has no coverage-guided
// fuzzer, so each test derives a few thousand mutants from valid inputs
// with a fixed RNG. Every mutant must either parse or be rejected with the
// format's documented exception (anything else, or a crash, fails the
// test), and everything that parses must re-serialize to a fixed point.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/bench_artifact.h"
#include "sim/chaos/fuzzer.h"
#include "sim/chaos/repro.h"
#include "util/rng.h"

namespace libra {
namespace {

/// Tokens that probe number parsing, field ranges and both formats' syntax.
const std::vector<std::string>& dictionary() {
  static const std::vector<std::string> words = {
      "0", "1", "-1", "+5", "-0", "0x10", "1e-320", "1e999", "nan", "-nan",
      "inf", "-inf", "2147483648", "4294967298", "9223372036854775808",
      "18446744073709551616", "-9223372036854775809", " ", "\n", "\t", "",
      "end", "node", "quota", "inject", "seed", "{", "}", "[", "]", "\"",
      ",", ":", "\\", "\"value\"", "\"direction\"", "\"higher\"",
      "\"Higher\"", "\"rows\"", "\"libra-bench\""};
  return words;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t at = 0;
  while (at < text.size()) {
    const size_t nl = text.find('\n', at);
    const size_t end = nl == std::string::npos ? text.size() : nl + 1;
    lines.push_back(text.substr(at, end - at));
    at = end;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l;
  return out;
}

/// One random edit: byte flip, dictionary insert, range delete, token
/// replace, or a line duplicated, dropped or swapped.
std::string mutate_once(std::string s, util::Rng& rng) {
  const auto& words = dictionary();
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n) - 1));
  };
  if (s.empty()) return words[pick(words.size())];
  switch (rng.uniform_int(0, 6)) {
    case 0:  // flip one byte to a printable or control character
      s[pick(s.size())] = static_cast<char>(rng.uniform_int(1, 127));
      return s;
    case 1:
      s.insert(pick(s.size() + 1), words[pick(words.size())]);
      return s;
    case 2: {
      const size_t at = pick(s.size());
      s.erase(at, static_cast<size_t>(rng.uniform_int(1, 16)));
      return s;
    }
    case 3: {  // replace one whitespace-delimited token
      const size_t at = pick(s.size());
      const size_t from = s.find_last_of(" \n", at) == std::string::npos
                              ? 0
                              : s.find_last_of(" \n", at) + 1;
      size_t to = s.find_first_of(" \n", from);
      if (to == std::string::npos) to = s.size();
      s.replace(from, to - from, words[pick(words.size())]);
      return s;
    }
    default: {
      std::vector<std::string> lines = split_lines(s);
      const size_t i = pick(lines.size());
      const size_t j = pick(lines.size());
      if (rng.uniform_int(0, 2) == 0)
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[j]);
      else if (rng.uniform_int(0, 1) == 0)
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      else
        std::swap(lines[i], lines[j]);
      return join(lines);
    }
  }
}

std::string mutate(const std::string& seed, util::Rng& rng) {
  std::string s = seed;
  const int64_t edits = rng.uniform_int(1, 3);
  for (int64_t e = 0; e < edits; ++e) s = mutate_once(std::move(s), rng);
  return s;
}

TEST(ParserMutation, ChaosReproMutantsThrowOrReachAFixedPoint) {
  std::vector<std::string> seeds;
  chaos::ScenarioFuzzer fuzzer(20260808);
  for (int i = 0; i < 6; ++i)
    seeds.push_back(chaos::serialize_scenario(fuzzer.next()));

  util::Rng rng(4242);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string mutant = mutate(seeds[static_cast<size_t>(i) % seeds.size()], rng);
    chaos::Scenario sc;
    try {
      sc = chaos::parse_scenario(mutant);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++parsed;
    const std::string once = chaos::serialize_scenario(sc);
    std::string twice;
    ASSERT_NO_THROW(twice = chaos::serialize_scenario(chaos::parse_scenario(once)))
        << "mutant " << i << " parsed, its serialization did not:\n"
        << mutant;
    ASSERT_EQ(twice, once) << "mutant " << i << ":\n" << mutant;
  }
  // Both outcomes occur, so the mutator neither only breaks nor only
  // preserves its inputs.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

TEST(ParserMutation, BenchArtifactMutantsThrowOrReachAFixedPoint) {
  exp::BenchArtifact base;
  base.add("pool_put_get_ns", 84.25, "ns");
  base.add("fig12_decision_p99_us", 3.5, "us");
  base.add("cluster_utilization", 0.625, "ratio", "higher");
  base.add("idle_core_seconds", 1234.5, "core-seconds", "higher");
  const std::vector<std::string> seeds = {
      exp::bench_artifact_to_json(base),
      "{\"tool\": \"libra-bench\", \"rows\": [{\"name\": \"r\", "
      "\"value\": 2}]}\n"};

  util::Rng rng(777);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string mutant = mutate(seeds[static_cast<size_t>(i) % seeds.size()], rng);
    exp::BenchArtifact artifact;
    try {
      artifact = exp::bench_artifact_from_json(mutant);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++parsed;
    for (const auto& row : artifact.rows) {
      ASSERT_TRUE(std::isfinite(row.value)) << mutant;
      ASSERT_TRUE(row.direction == "lower" || row.direction == "higher")
          << mutant;
    }
    const std::string once = exp::bench_artifact_to_json(artifact);
    std::string twice;
    ASSERT_NO_THROW(twice = exp::bench_artifact_to_json(
                        exp::bench_artifact_from_json(once)))
        << "mutant " << i << " parsed, its serialization did not:\n"
        << mutant;
    ASSERT_EQ(twice, once) << "mutant " << i << ":\n" << mutant;
  }
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace libra
