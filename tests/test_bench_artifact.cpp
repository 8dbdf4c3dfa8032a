// BenchArtifact reader/writer: the file format the perf-trajectory gate
// (tools/bench_diff) compares. A row the gate cannot judge (non-finite
// value, unknown direction) must fail to load, not compare as "ok".
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "exp/bench_artifact.h"

namespace libra::exp {
namespace {

std::string one_row(const std::string& value, const std::string& direction) {
  return "{\"tool\": \"libra-bench\", \"version\": 1, \"rows\": [\n"
         "  {\"name\": \"r\", \"value\": " +
         value + ", \"unit\": \"ns\", \"direction\": \"" + direction +
         "\"}\n]}\n";
}

TEST(BenchArtifact, RoundTripsEveryField) {
  BenchArtifact a;
  a.add("pool_put_get_ns", 123.456789012345678, "ns");
  a.add("utilization", 0.1 + 0.2, "ratio", "higher");
  a.add("quoted \"name\"\twith\\escapes", -4.5e-12, "core-seconds");
  const BenchArtifact back = bench_artifact_from_json(bench_artifact_to_json(a));
  ASSERT_EQ(back.rows.size(), a.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].name, a.rows[i].name);
    EXPECT_EQ(back.rows[i].value, a.rows[i].value);  // bit-exact
    EXPECT_EQ(back.rows[i].unit, a.rows[i].unit);
    EXPECT_EQ(back.rows[i].direction, a.rows[i].direction);
  }
  EXPECT_EQ(bench_artifact_to_json(back), bench_artifact_to_json(a));
}

TEST(BenchArtifact, EmptyArtifactRoundTrips) {
  const BenchArtifact back =
      bench_artifact_from_json(bench_artifact_to_json(BenchArtifact{}));
  EXPECT_TRUE(back.rows.empty());
}

TEST(BenchArtifact, MissingDirectionDefaultsToLower) {
  const BenchArtifact a = bench_artifact_from_json(
      "{\"tool\": \"libra-bench\", \"rows\": [{\"name\": \"r\", "
      "\"value\": 2}]}");
  ASSERT_EQ(a.rows.size(), 1u);
  EXPECT_EQ(a.rows[0].direction, "lower");
}

TEST(BenchArtifact, MergeKeepsOtherRowsAndReplacesSameNamed) {
  const std::string path = ::testing::TempDir() + "bench_artifact_merge.json";
  std::remove(path.c_str());
  BenchArtifact first;
  first.add("kept", 1.0, "ns");
  first.add("replaced", 2.0, "ns");
  std::string error;
  ASSERT_TRUE(merge_bench_artifact(path, first, &error)) << error;

  BenchArtifact second;
  second.add("replaced", 20.0, "ms", "higher");
  second.add("added", 3.0, "ns");
  ASSERT_TRUE(merge_bench_artifact(path, second, &error)) << error;

  const BenchArtifact merged = load_bench_artifact(path);
  ASSERT_EQ(merged.rows.size(), 3u);
  ASSERT_NE(merged.find("kept"), nullptr);
  EXPECT_EQ(merged.find("kept")->value, 1.0);
  ASSERT_NE(merged.find("replaced"), nullptr);
  EXPECT_EQ(merged.find("replaced")->value, 20.0);
  EXPECT_EQ(merged.find("replaced")->unit, "ms");
  EXPECT_EQ(merged.find("replaced")->direction, "higher");
  ASSERT_NE(merged.find("added"), nullptr);
  EXPECT_EQ(merged.find("added")->value, 3.0);
  std::remove(path.c_str());
}

TEST(BenchArtifact, MergeRefusesToOverwriteACorruptFile) {
  const std::string path = ::testing::TempDir() + "bench_artifact_corrupt.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not an artifact";
  }
  BenchArtifact a;
  a.add("r", 1.0, "ns");
  std::string error;
  EXPECT_FALSE(merge_bench_artifact(path, a, &error));
  EXPECT_NE(error.find("unusable"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(BenchArtifact, LoadOfMissingFileThrows) {
  EXPECT_THROW(load_bench_artifact(::testing::TempDir() +
                                   "no_such_bench_artifact.json"),
               std::runtime_error);
}

TEST(BenchArtifact, MalformedInputThrows) {
  EXPECT_NO_THROW(bench_artifact_from_json(one_row("1.5", "lower")));
  EXPECT_NO_THROW(bench_artifact_from_json(one_row("1.5", "higher")));
  for (const std::string& bad : {
           std::string("{\"rows\": []}"),                    // no tool marker
           std::string("{\"tool\": \"libra-bench\"}"),       // no rows
           std::string("{\"tool\": \"libra-bench\", \"rows\"}"),  // no '['
           std::string("{\"tool\": \"libra-bench\", \"rows\": [{\"name\": "
                       "\"r\", \"value\": 1"),               // unterminated
           std::string("{\"tool\": \"libra-bench\", \"rows\": [{\"value\": "
                       "1}]}"),                              // no name
           std::string("{\"tool\": \"libra-bench\", \"rows\": [{\"name\": "
                       "\"r\"}]}"),                          // no value
           std::string("{\"tool\": \"libra-bench\", \"rows\": [{\"name\": "
                       "\"r\", \"value\": x}]}"),            // bad number
           one_row("nan", "lower"),
           one_row("-nan", "higher"),
           one_row("inf", "lower"),
           one_row("-inf", "higher"),
           one_row("1e999", "lower"),  // overflows to inf
           one_row("1.5", "Higher"),
           one_row("1.5", "LOWER"),
           one_row("1.5", ""),
           one_row("1.5", "up"),
       }) {
    EXPECT_THROW(bench_artifact_from_json(bad), std::runtime_error) << bad;
  }
}

}  // namespace
}  // namespace libra::exp
