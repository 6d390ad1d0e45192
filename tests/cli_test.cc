// Integration tests for the lnicctl CLI: the compile -> disasm -> run
// workflow over real files, plus error handling. Spawns the actual
// binary (path injected by CMake via LNICCTL_PATH).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

#ifndef LNICCTL_PATH
#define LNICCTL_PATH "./lnicctl"
#endif

struct CommandResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

CommandResult run_command(const std::string& args) {
  const std::string command = std::string(LNICCTL_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = pclose(pipe);
  return CommandResult{WEXITSTATUS(status), output};
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs the discovered cases as separate
    // processes, concurrently — sharing TempDir() directly races.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "lnic_cli_" + info->name() + "/";
    std::filesystem::create_directories(dir_);
    write_file(dir_ + "adder.mc", R"(
      global u8 scratch[32];
      int adder() {
        var total = hdr(key) + hdr(value);
        store8(scratch, 0, total);
        resp_word(load8(scratch, 0));
        return 0;
      }
    )");
    write_file(dir_ + "adder.p4", R"(
      table m { key = { workload_id; } entry (3) -> adder; }
      control ingress { apply(m); }
    )");
  }
  std::string dir_;
};

TEST_F(CliTest, CompileProducesFirmware) {
  const auto r = run_command("compile " + dir_ + "adder.mc --p4 " + dir_ +
                             "adder.p4 -o " + dir_ + "adder.lnfw");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("unoptimized"), std::string::npos);
  EXPECT_NE(r.output.find("memory-stratification"), std::string::npos);
  EXPECT_NE(r.output.find("wrote"), std::string::npos);
  std::ifstream fw(dir_ + "adder.lnfw", std::ios::binary);
  EXPECT_TRUE(fw.good());
}

TEST_F(CliTest, RunExecutesTheLambda) {
  ASSERT_EQ(run_command("compile " + dir_ + "adder.mc --p4 " + dir_ +
                        "adder.p4 -o " + dir_ + "adder.lnfw")
                .exit_code,
            0);
  const auto r = run_command("run " + dir_ +
                             "adder.lnfw --wid 3 --key 40 --value 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("return: 0"), std::string::npos);
  // 40 + 2 = 42 = 0x2a little-endian in the response.
  EXPECT_NE(r.output.find("2a 00 00 00 00 00 00 00"), std::string::npos);
  EXPECT_NE(r.output.find("cycles:"), std::string::npos);
}

TEST_F(CliTest, DisasmListsTheProgram) {
  ASSERT_EQ(run_command("compile " + dir_ + "adder.mc --p4 " + dir_ +
                        "adder.p4 -o " + dir_ + "adder.lnfw")
                .exit_code,
            0);
  const auto r = run_command("disasm " + dir_ + "adder.lnfw");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("func adder"), std::string::npos);
  EXPECT_NE(r.output.find("scratch"), std::string::npos);
  EXPECT_NE(r.output.find("__match_dispatch"), std::string::npos);
}

TEST_F(CliTest, CompileWithoutP4UsesDefaultSpec) {
  const auto r = run_command("compile " + dir_ + "adder.mc -o " + dir_ +
                             "auto.lnfw");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const auto run = run_command("run " + dir_ +
                               "auto.lnfw --wid 1 --key 1 --value 2");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("03 00"), std::string::npos);
}

TEST_F(CliTest, HostCostModelReportsMoreTime) {
  ASSERT_EQ(run_command("compile " + dir_ + "adder.mc -o " + dir_ +
                        "auto.lnfw")
                .exit_code,
            0);
  const auto npu = run_command("run " + dir_ + "auto.lnfw --wid 1 --key 1");
  const auto py =
      run_command("run " + dir_ + "auto.lnfw --wid 1 --key 1 --cost python");
  EXPECT_NE(npu.output.find("at npu"), std::string::npos);
  EXPECT_NE(py.output.find("at python"), std::string::npos);
}

TEST_F(CliTest, BadSourceFailsWithDiagnostic) {
  write_file(dir_ + "bad.mc", "int f() { return missing_var; }");
  const auto r = run_command("compile " + dir_ + "bad.mc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown variable"), std::string::npos);
}

// tests/fixtures/bad_register.lnfw: well-formed firmware bytes whose only
// function (one register) writes register 60000 — it deserializes, but
// the verifier rejects it. Both commands must refuse it with the
// verifier's message and exit 2, not crash.
TEST_F(CliTest, RunRejectsFirmwareThatFailsVerification) {
  const auto r =
      run_command("run " LNIC_FIXTURES_DIR "/bad_register.lnfw --wid 1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("verify: function 'evil': register index out of "
                          "range at const"),
            std::string::npos)
      << r.output;
}

TEST_F(CliTest, DisasmRejectsFirmwareThatFailsVerification) {
  const auto r = run_command("disasm " LNIC_FIXTURES_DIR "/bad_register.lnfw");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("register index out of range"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("r60000"), std::string::npos) << r.output;
}

TEST_F(CliTest, MissingFileFails) {
  const auto r = run_command("disasm /nonexistent/file.lnfw");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliTest, UsageOnNoArguments) {
  const auto r = run_command("");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage"), std::string::npos);
}

}  // namespace
