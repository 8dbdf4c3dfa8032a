#include "exp/bench_artifact.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace libra::exp {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Offset just past the colon of `"key":` in an object body, or npos. The
/// key must be followed by a colon, so a string value that happens to equal
/// a key name ("direction", "unit", ...) is never taken for the key.
size_t value_offset(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  for (size_t at = obj.find(needle); at != std::string::npos;
       at = obj.find(needle, at + 1)) {
    size_t colon = at + needle.size();
    while (colon < obj.size() &&
           std::isspace(static_cast<unsigned char>(obj[colon])))
      ++colon;
    if (colon < obj.size() && obj[colon] == ':') return colon + 1;
  }
  return std::string::npos;
}

/// Minimal scanner over the artifact's own output format (same subset
/// discipline as the lint tool's compile_commands reader): extracts one
/// string field from an object body.
bool take_string(const std::string& obj, const std::string& key,
                 std::string* out) {
  const size_t at = value_offset(obj, key);
  if (at == std::string::npos) return false;
  const size_t open = obj.find('"', at);
  if (open == std::string::npos) return false;
  // Unescape up to the first unescaped quote; an escaped backslash right
  // before the closing quote does not escape the quote.
  std::string unescaped;
  size_t i = open + 1;
  for (; i < obj.size() && obj[i] != '"'; ++i) {
    if (obj[i] == '\\' && i + 1 < obj.size()) {
      ++i;
      unescaped += obj[i] == 'n' ? '\n' : obj[i] == 't' ? '\t' : obj[i];
    } else {
      unescaped += obj[i];
    }
  }
  if (i >= obj.size()) return false;
  *out = unescaped;
  return true;
}

bool take_number(const std::string& obj, const std::string& key, double* out) {
  size_t at = value_offset(obj, key);
  if (at == std::string::npos) return false;
  while (at < obj.size() && std::isspace(static_cast<unsigned char>(obj[at])))
    ++at;
  char* end = nullptr;
  const double v = std::strtod(obj.c_str() + at, &end);
  if (end == obj.c_str() + at) return false;
  *out = v;
  return true;
}

}  // namespace

void BenchArtifact::add(const std::string& name, double value,
                        const std::string& unit,
                        const std::string& direction) {
  for (BenchRow& row : rows) {
    if (row.name == name) {
      row = BenchRow{name, value, unit, direction};
      return;
    }
  }
  rows.push_back(BenchRow{name, value, unit, direction});
}

const BenchRow* BenchArtifact::find(const std::string& name) const {
  for (const BenchRow& row : rows)
    if (row.name == name) return &row;
  return nullptr;
}

std::string bench_artifact_to_json(const BenchArtifact& artifact) {
  std::ostringstream os;
  os << "{\n  \"tool\": \"libra-bench\",\n  \"version\": 1,\n  \"rows\": [";
  bool first = true;
  for (const BenchRow& row : artifact.rows) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"name\": \"" << json_escape(row.name) << "\", \"value\": ";
    // Full round-trip precision: the diff tolerance, not the serializer,
    // decides what counts as equal.
    os.precision(17);
    os << row.value << ", \"unit\": \"" << json_escape(row.unit)
       << "\", \"direction\": \"" << json_escape(row.direction) << "\"}";
  }
  os << (first ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

BenchArtifact bench_artifact_from_json(const std::string& text) {
  if (text.find("\"libra-bench\"") == std::string::npos)
    throw std::runtime_error(
        "bench artifact: missing \"libra-bench\" tool marker");
  const size_t rows_at = text.find("\"rows\"");
  if (rows_at == std::string::npos)
    throw std::runtime_error("bench artifact: missing \"rows\" array");
  BenchArtifact artifact;
  size_t pos = text.find('[', rows_at);
  if (pos == std::string::npos)
    throw std::runtime_error("bench artifact: malformed \"rows\" array");
  while (true) {
    const size_t open = text.find('{', pos);
    if (open == std::string::npos) break;
    const size_t close = text.find('}', open);
    if (close == std::string::npos)
      throw std::runtime_error("bench artifact: unterminated row object");
    const std::string obj = text.substr(open, close - open + 1);
    BenchRow row;
    double value = 0.0;
    if (!take_string(obj, "name", &row.name) ||
        !take_number(obj, "value", &value))
      throw std::runtime_error(
          "bench artifact: row missing \"name\" or \"value\"");
    // A NaN or infinite value compares as "ok" against any baseline, and an
    // unknown direction would silently be read as "lower": both make the
    // gate pass rows it cannot judge, so both are malformed input.
    if (!std::isfinite(value))
      throw std::runtime_error("bench artifact: row \"" + row.name +
                               "\" has a non-finite value");
    row.value = value;
    take_string(obj, "unit", &row.unit);
    if (!take_string(obj, "direction", &row.direction))
      row.direction = "lower";
    if (row.direction != "lower" && row.direction != "higher")
      throw std::runtime_error("bench artifact: row \"" + row.name +
                               "\" has direction \"" + row.direction +
                               "\"; expected \"lower\" or \"higher\"");
    artifact.add(row.name, row.value, row.unit, row.direction);
    pos = close + 1;
  }
  return artifact;
}

BenchArtifact load_bench_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open bench artifact " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return bench_artifact_from_json(ss.str());
}

bool merge_bench_artifact(const std::string& path,
                          const BenchArtifact& artifact, std::string* error) {
  BenchArtifact merged;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      try {
        merged = bench_artifact_from_json(ss.str());
      } catch (const std::runtime_error& e) {
        if (error) *error = std::string("existing artifact unusable: ") +
                            e.what();
        return false;
      }
    }
  }
  for (const BenchRow& row : artifact.rows)
    merged.add(row.name, row.value, row.unit, row.direction);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot write bench artifact " + path;
    return false;
  }
  out << bench_artifact_to_json(merged);
  out.flush();
  if (!out) {
    if (error) *error = "short write to bench artifact " + path;
    return false;
  }
  return true;
}

}  // namespace libra::exp
