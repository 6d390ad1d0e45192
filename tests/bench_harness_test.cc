// Tests for the bench harness's BENCH_<name>.json writer: every value
// must read back as the double that was added.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace lnic::bench {
namespace {

/// The numbers after each `"value": ` in a BENCH file, as written.
std::vector<std::string> written_values(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::string key = "\"value\": ";
  std::vector<std::string> values;
  for (auto pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos)) {
    pos += key.size();
    values.push_back(json.substr(pos, json.find(',', pos) - pos));
  }
  return values;
}

TEST(BenchSummary, ValuesReadBackExactly) {
  const std::vector<double> added = {4294967295.0, 9007199254740991.0, 0.1,
                                     -3.0};
  std::string path;
  {
    BenchSummary summary("harness_roundtrip");
    for (std::size_t i = 0; i < added.size(); ++i) {
      summary.add(std::to_string(i), added[i], "count");
    }
    path = summary.path();
  }  // written on destruction
  const std::vector<std::string> values = written_values(path);
  std::remove(path.c_str());
  ASSERT_EQ(values.size(), added.size());
  for (std::size_t i = 0; i < added.size(); ++i) {
    EXPECT_EQ(std::strtod(values[i].c_str(), nullptr), added[i])
        << "written as " << values[i];
  }
  // Integers print in full, with no exponent.
  EXPECT_EQ(values[0], "4294967295");
  EXPECT_EQ(values[1], "9007199254740991");
  EXPECT_EQ(values[3], "-3");
}

}  // namespace
}  // namespace lnic::bench
