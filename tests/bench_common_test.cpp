// Bench flag parsing and the harness-v2 run_case machinery.
//
// parse_args() terminates the process on malformed input (it is a CLI
// front door), so the rejection paths are exercised as gtest death tests.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hpp"
#include "gridsec/obs/metrics.hpp"

namespace gridsec::bench {
namespace {

BenchArgs parse(std::vector<std::string> flags,
                const char* argv0 = "bench_common_test") {
  std::vector<char*> argv;
  static std::string prog;
  prog = argv0;
  argv.push_back(prog.data());
  static std::vector<std::string> storage;
  storage = std::move(flags);
  for (std::string& f : storage) argv.push_back(f.data());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, Defaults) {
  const BenchArgs args = parse({});
  EXPECT_EQ(args.trials, 20);
  EXPECT_EQ(args.seed, 2015u);
  EXPECT_FALSE(args.csv_only);
  EXPECT_EQ(args.threads, 0u);
  EXPECT_TRUE(args.json_file.empty());
  EXPECT_FALSE(args.profile);
  EXPECT_EQ(args.reps, 0);
  EXPECT_EQ(args.warmup, -1);
}

TEST(BenchArgs, ParsesEveryFlag) {
  const BenchArgs args =
      parse({"--trials=7", "--seed=42", "--threads=3", "--reps=5",
             "--warmup=2", "--csv", "--profile", "--json=out.json"});
  EXPECT_EQ(args.trials, 7);
  EXPECT_EQ(args.seed, 42u);
  EXPECT_EQ(args.threads, 3u);
  EXPECT_EQ(args.reps, 5);
  EXPECT_EQ(args.warmup, 2);
  EXPECT_TRUE(args.csv_only);
  EXPECT_TRUE(args.profile);
  EXPECT_EQ(args.json_file, "out.json");  // --profile keeps an explicit file

  // A bare --profile implies the default report name.
  const BenchArgs bare = parse({"--profile"}, "/some/build/dir/fig4");
  EXPECT_TRUE(bare.profile);
  EXPECT_EQ(bare.json_file, "BENCH_fig4.json");
}

TEST(BenchArgs, BareJsonDerivesFilenameFromProgram) {
  const BenchArgs args = parse({"--json"}, "/some/build/dir/micro_solvers");
  EXPECT_EQ(args.json_file, "BENCH_micro_solvers.json");
}

TEST(BenchArgs, DefaultJsonNameStripsDirectories) {
  EXPECT_EQ(default_json_name("/a/b/fig2_interdependent"),
            "BENCH_fig2_interdependent.json");
  EXPECT_EQ(default_json_name("bare"), "BENCH_bare.json");
  EXPECT_EQ(default_json_name("dir\\win_prog"), "BENCH_win_prog.json");
}

using BenchArgsDeathTest = ::testing::Test;

TEST(BenchArgsDeathTest, RejectsMalformedNumericValues) {
  EXPECT_EXIT(parse({"--trials=5x"}), testing::ExitedWithCode(2),
              "malformed value");
  EXPECT_EXIT(parse({"--trials=0"}), testing::ExitedWithCode(2),
              "malformed value");
  EXPECT_EXIT(parse({"--threads=-2"}), testing::ExitedWithCode(2),
              "malformed value");
  EXPECT_EXIT(parse({"--reps=0"}), testing::ExitedWithCode(2),
              "malformed value");
  EXPECT_EXIT(parse({"--warmup=-1"}), testing::ExitedWithCode(2),
              "malformed value");
}

TEST(BenchArgsDeathTest, RejectsNegativeSeedInsteadOfWrapping) {
  // strtoull would silently turn -1 into 2^64-1; the parser must refuse.
  EXPECT_EXIT(parse({"--seed=-1"}), testing::ExitedWithCode(2),
              "malformed value");
  EXPECT_EXIT(parse({"--seed=abc"}), testing::ExitedWithCode(2),
              "malformed value");
  EXPECT_EXIT(parse({"--seed="}), testing::ExitedWithCode(2),
              "malformed value");
}

TEST(BenchArgsDeathTest, RejectsEmptyJsonFileAndUnknownFlags) {
  EXPECT_EXIT(parse({"--json="}), testing::ExitedWithCode(2),
              "malformed value");
  EXPECT_EXIT(parse({"--bogus"}), testing::ExitedWithCode(2),
              "unknown option");
  EXPECT_EXIT(parse({"--help"}), testing::ExitedWithCode(0), "usage:");
}

TEST(Harness, RunCaseCountsRepsWarmupAndMetricDeltas) {
  BenchArgs args;
  args.reps = 3;    // override any case default
  args.warmup = 2;  // warmup calls run, but outside the measurement window
  char prog[] = "bench_common_test";
  char* argv[] = {prog};
  Harness harness("bench_common_test", args, 1, argv);

  int calls = 0;
  obs::Counter& counter =
      obs::default_registry().counter("benchtest.run_case.calls");
  const int result = harness.run_case("case_a", [&] {
    ++calls;
    counter.add();
    return calls;
  });
  EXPECT_EQ(calls, 5);   // 2 warmup + 3 measured
  EXPECT_EQ(result, 5);  // last measured invocation's return value

  ASSERT_EQ(harness.report().cases.size(), 1u);
  const obs::CaseResult& c = harness.report().cases.back();
  EXPECT_EQ(c.name, "case_a");
  EXPECT_EQ(c.wall.reps, 3);
  EXPECT_EQ(c.wall.warmup, 2);
  // The counter snapshot is taken after warmup: only measured reps count.
  ASSERT_EQ(c.metrics.count("benchtest.run_case.calls"), 1u);
  EXPECT_EQ(c.metrics.at("benchtest.run_case.calls").total, 3);
  EXPECT_DOUBLE_EQ(c.metrics.at("benchtest.run_case.calls").per_rep, 1.0);
}

TEST(Harness, VoidCasesAndManifestPropagation) {
  BenchArgs args;
  args.seed = 99;
  args.trials = 4;
  args.threads = 2;
  char prog[] = "bench_common_test";
  char* argv[] = {prog};
  Harness harness("bench_common_test", args, 1, argv);
  int calls = 0;
  harness.run_case("void_case", [&] { ++calls; });  // void return supported
  EXPECT_EQ(calls, 1);  // default_reps=1, default_warmup=0
  EXPECT_EQ(harness.report().manifest.seed, 99u);
  EXPECT_EQ(harness.report().manifest.trials, 4);
  EXPECT_EQ(harness.report().manifest.threads, 2u);
  EXPECT_EQ(harness.report().manifest.tool, "bench_common_test");
}

/// Runs one empty case and emits the report the args ask for.
void emit_with(const BenchArgs& args) {
  char prog[] = "bench_common_test";
  char* argv[] = {prog};
  Harness harness("bench_common_test", args, 1, argv);
  harness.run_case("noop", [] {});
  harness.emit_report();
}

using HarnessDeathTest = ::testing::Test;

TEST(HarnessDeathTest, UnwritableArtifactsExitOne) {
  BenchArgs report;
  report.json_file = "/nonexistent-dir/x/BENCH_x.json";
  EXPECT_EXIT(emit_with(report), testing::ExitedWithCode(1),
              "cannot write report");
}

}  // namespace
}  // namespace gridsec::bench
