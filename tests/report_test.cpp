// Run reports: manifest capture, wall stats, JSON round-trip, and the
// benchdiff regression rules.
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/obs/report.hpp"

namespace gridsec::obs {
namespace {

RunReport small_report() {
  RunReport report;
  report.manifest.tool = "report_test";
  report.manifest.git_sha = "abc123def456";
  report.manifest.build_type = "Release";
  report.manifest.compiler = "gcc 12.2.0";
  report.manifest.cxx_flags = "-O3 -DNDEBUG";
  report.manifest.hostname = "testhost";
  report.manifest.hardware_threads = 8;
  report.manifest.threads = 2;
  report.manifest.seed = 2015;
  report.manifest.trials = 5;
  report.manifest.args = {"--trials=5", "--json"};
  report.manifest.start_time_utc = "2026-01-02T03:04:05Z";
  report.manifest.wall_time_seconds = 1.5;

  const double reps_a[] = {0.2, 0.1, 0.3};
  report.cases.push_back(make_case("case_a", 1, reps_a,
                                   {{"lp.simplex.pivots", 100}},
                                   {{"lp.simplex.pivots", 400}}));
  const double reps_b[] = {0.05};
  report.cases.push_back(make_case(
      "case_b", 0, reps_b, {}, {{"lp.bnb.nodes", 12}, {"lp.cuts", 3}}));
  return report;
}

TEST(RunManifest, CaptureFillsProvenance) {
  const char* argv[] = {"prog", "--trials=5", "--json"};
  const RunManifest m = RunManifest::capture("mytool", 3, argv);
  EXPECT_EQ(m.tool, "mytool");
  ASSERT_EQ(m.args.size(), 2u);  // argv[0] is the binary, not an argument
  EXPECT_EQ(m.args[0], "--trials=5");
  EXPECT_EQ(m.args[1], "--json");
  EXPECT_FALSE(m.git_sha.empty());
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_FALSE(m.hostname.empty());
  EXPECT_GE(m.hardware_threads, 1);
  // ISO8601 UTC: "YYYY-MM-DDTHH:MM:SSZ"
  ASSERT_EQ(m.start_time_utc.size(), 20u) << m.start_time_utc;
  EXPECT_EQ(m.start_time_utc[10], 'T');
  EXPECT_EQ(m.start_time_utc.back(), 'Z');
}

TEST(WallStats, FromSamplesComputesOrderStats) {
  const double samples[] = {0.2, 0.1, 0.3};
  const WallStats w = WallStats::from_samples(1, samples);
  EXPECT_EQ(w.reps, 3);
  EXPECT_EQ(w.warmup, 1);
  EXPECT_DOUBLE_EQ(w.min_seconds, 0.1);
  EXPECT_DOUBLE_EQ(w.max_seconds, 0.3);
  EXPECT_DOUBLE_EQ(w.median_seconds, 0.2);
  EXPECT_NEAR(w.mean_seconds, 0.2, 1e-12);
  EXPECT_NEAR(w.total_seconds, 0.6, 1e-12);
}

TEST(MakeCase, ComputesPerRepDeltasAndKeepsUnchangedAtZero) {
  const double reps[] = {0.1, 0.1};
  const CaseResult c = make_case(
      "c", 0, reps, {{"a", 10}, {"b", 5}}, {{"a", 16}, {"b", 5}, {"c", 3}});
  ASSERT_EQ(c.metrics.count("a"), 1u);
  EXPECT_EQ(c.metrics.at("a").total, 6);
  EXPECT_DOUBLE_EQ(c.metrics.at("a").per_rep, 3.0);
  ASSERT_EQ(c.metrics.count("b"), 1u);  // unchanged counters read zero
  EXPECT_EQ(c.metrics.at("b").total, 0);
  EXPECT_DOUBLE_EQ(c.metrics.at("b").per_rep, 0.0);
  ASSERT_EQ(c.metrics.count("c"), 1u);  // counter born during the case
  EXPECT_EQ(c.metrics.at("c").total, 3);
  EXPECT_DOUBLE_EQ(c.metrics.at("c").per_rep, 1.5);
}

TEST(RunReport, JsonRoundTripPreservesEverythingDiffable) {
  const RunReport original = small_report();
  std::ostringstream os;
  original.write_json(os);
  const auto parsed = parse_report(os.str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();

  EXPECT_EQ(parsed->schema_version, kReportSchemaVersion);
  EXPECT_EQ(parsed->manifest.tool, "report_test");
  EXPECT_EQ(parsed->manifest.git_sha, "abc123def456");
  EXPECT_EQ(parsed->manifest.seed, 2015u);
  EXPECT_EQ(parsed->manifest.args, original.manifest.args);
  ASSERT_EQ(parsed->cases.size(), 2u);
  EXPECT_EQ(parsed->cases[0].name, "case_a");
  EXPECT_EQ(parsed->cases[0].wall.reps, 3);
  EXPECT_DOUBLE_EQ(parsed->cases[0].wall.median_seconds, 0.2);
  EXPECT_EQ(parsed->cases[0].metrics.at("lp.simplex.pivots").total, 300);
  EXPECT_DOUBLE_EQ(parsed->cases[0].metrics.at("lp.simplex.pivots").per_rep,
                   100.0);

  // Self-diff of a round-tripped report must be clean.
  const DiffReport diff = diff_reports(original, *parsed);
  EXPECT_TRUE(diff.clean()) << diff.regressions;
  EXPECT_FALSE(diff.rows.empty());
}

TEST(RunReport, JsonRoundTripWithProfileAndEscapes) {
  RunReport report = small_report();
  report.manifest.args = {"--path=C:\\tmp\\x", "--note=\"quoted\"\n\ttabbed"};
  Profile profile;
  profile.threads = 2;
  profile.root.name = "(root)";
  ProfileNode& outer = profile.root.children.emplace_back();
  outer.name = "core.game.play";
  outer.count = 3;
  outer.wall_ns = 9000;
  outer.cpu_ns = 8000;
  outer.excl_wall_ns = 4000;
  outer.excl_cpu_ns = 3500;
  outer.alloc_count = 7;
  outer.alloc_bytes = 4096;
  ProfileNode& inner = outer.children.emplace_back();
  inner.name = "lp.simplex.solve";
  inner.count = 12;
  inner.wall_ns = 5000;
  inner.excl_wall_ns = 5000;
  report.profile = profile;
  std::ostringstream os;
  report.write_json(os);
  const std::string text = os.str();
  const auto parsed = parse_report(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->manifest.args, report.manifest.args);
  EXPECT_TRUE(diff_reports(report, *parsed).clean());

  ASSERT_TRUE(parsed->profile.has_value());
  EXPECT_EQ(parsed->profile->threads, 2);
  EXPECT_EQ(parsed->profile->root.name, "(root)");
  const ProfileNode* back = parsed->profile->root.find("core.game.play");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->count, 3);
  EXPECT_EQ(back->wall_ns, 9000);
  EXPECT_EQ(back->cpu_ns, 8000);
  EXPECT_EQ(back->excl_wall_ns, 4000);
  EXPECT_EQ(back->excl_cpu_ns, 3500);
  EXPECT_EQ(back->alloc_count, 7);
  EXPECT_EQ(back->alloc_bytes, 4096);
  const ProfileNode* back_inner = back->find("lp.simplex.solve");
  ASSERT_NE(back_inner, nullptr);
  EXPECT_EQ(back_inner->count, 12);
  EXPECT_EQ(back_inner->excl_wall_ns, 5000);

  // A report without --profile carries no profile member.
  std::ostringstream plain;
  small_report().write_json(plain);
  EXPECT_EQ(plain.str().find("\"profile\""), std::string::npos);
  const auto plain_parsed = parse_report(plain.str());
  ASSERT_TRUE(plain_parsed.is_ok()) << plain_parsed.status().to_string();
  EXPECT_FALSE(plain_parsed->profile.has_value());

  // A document cut off inside the profile tree is rejected.
  EXPECT_FALSE(parse_report(text.substr(0, text.size() - 8)).is_ok());
}

TEST(RunReport, DoublesRoundTripAtFullPrecision) {
  const double reps[] = {0.123456789, 0.2, 0.3};
  RunReport report;
  report.cases.push_back(make_case("precise", 0, reps,
                                   {{"obs.alloc.bytes", 0}},
                                   {{"obs.alloc.bytes", 16378575}}));
  std::ostringstream os;
  report.write_json(os);
  const auto parsed = parse_report(os.str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const CaseResult& c = parsed->cases.at(0);
  EXPECT_EQ(c.metrics.at("obs.alloc.bytes").total, 16378575);
  EXPECT_EQ(c.metrics.at("obs.alloc.bytes").per_rep, 16378575.0 / 3);
  EXPECT_EQ(c.wall.min_seconds, 0.123456789);
}

TEST(ParseReport, RejectsWrongSchemaVersionAndGarbage) {
  EXPECT_FALSE(parse_report("").is_ok());
  EXPECT_FALSE(parse_report("[]").is_ok());
  EXPECT_FALSE(parse_report("{\"schema\":\"other\"}").is_ok());
  EXPECT_FALSE(
      parse_report(
          "{\"schema\":\"gridsec.bench_report\",\"schema_version\":999,"
          "\"manifest\":{},\"cases\":[]}")
          .is_ok());
  EXPECT_FALSE(parse_report("{\"schema\":\"gridsec.bench_report\"").is_ok());
  EXPECT_FALSE(parse_report("{\"schema\":12}").is_ok());
}

TEST(DiffReports, FlagsInflatedMetricButToleratesSmallAbsoluteNoise) {
  const RunReport baseline = small_report();
  RunReport current = small_report();
  // +50% pivots per rep: past the 10% relative threshold and 4.0 abs slack.
  current.cases[0].metrics["lp.simplex.pivots"].per_rep = 150.0;
  current.cases[0].metrics["lp.simplex.pivots"].total = 450;
  // +1 node on a tiny counter: 8.3% relative would be fine anyway, but even
  // a large relative change on a small counter is shielded by abs slack.
  current.cases[1].metrics["lp.cuts"].per_rep = 6.0;  // +100%, abs +3 < 4
  const DiffReport diff = diff_reports(baseline, current);
  EXPECT_EQ(diff.regressions, 1);
  bool found = false;
  for (const DiffRow& row : diff.rows) {
    if (row.quantity == "lp.simplex.pivots") {
      EXPECT_EQ(row.verdict, DiffVerdict::kRegression);
      EXPECT_NEAR(row.rel_change, 0.5, 1e-9);
      found = true;
    }
    if (row.quantity == "lp.cuts") {
      EXPECT_EQ(row.verdict, DiffVerdict::kOk);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiffReports, WallTimeGatingIsOptIn) {
  const RunReport baseline = small_report();
  RunReport current = small_report();
  current.cases[0].wall.median_seconds = 0.3;  // +50% slowdown
  // Default: wall time reported as info only.
  EXPECT_TRUE(diff_reports(baseline, current).clean());
  // Opted in at 20%: the injected slowdown trips the gate.
  DiffOptions options;
  options.wall_rel_threshold = 0.2;
  const DiffReport gated = diff_reports(baseline, current, options);
  EXPECT_FALSE(gated.clean());
  EXPECT_EQ(gated.regressions, 1);
}

TEST(DiffReports, MissingCoverageIsARegressionNewCoverageIsInfo) {
  const RunReport baseline = small_report();
  RunReport current = small_report();
  current.cases[0].metrics.erase("lp.simplex.pivots");  // metric vanished
  current.cases.pop_back();                             // case_b vanished
  const DiffReport shrunk = diff_reports(baseline, current);
  EXPECT_EQ(shrunk.regressions, 2);

  // The reverse direction (baseline lacks what current has) is only info.
  const DiffReport grown = diff_reports(current, baseline);
  EXPECT_TRUE(grown.clean());
}

TEST(DiffReports, CounterFallingToZeroIsCleanRisingFromZeroRegresses) {
  RunReport baseline = small_report();
  baseline.cases[0].metrics["lp.simplex.basis_repairs"] = {614, 614.0 / 3};
  RunReport current = small_report();
  current.cases[0].metrics["lp.simplex.basis_repairs"] = {0, 0.0};
  EXPECT_TRUE(diff_reports(baseline, current).clean());

  // A counter recorded at zero that starts moving again.
  RunReport risen = current;
  risen.cases[0].metrics["lp.simplex.basis_repairs"] = {12, 12.0};
  const DiffReport diff = diff_reports(current, risen);
  EXPECT_EQ(diff.regressions, 1);
  bool found = false;
  for (const DiffRow& row : diff.rows) {
    if (row.quantity == "lp.simplex.basis_repairs") {
      EXPECT_EQ(row.verdict, DiffVerdict::kRegression);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiffReports, MissingZeroBaselineMetricIsInfo) {
  RunReport baseline = small_report();
  baseline.cases[0].metrics["lp.simplex.warm_start_rejects"] = {0, 0.0};
  const RunReport current = small_report();  // counter no longer reported
  const DiffReport diff = diff_reports(baseline, current);
  EXPECT_TRUE(diff.clean());
  bool found = false;
  for (const DiffRow& row : diff.rows) {
    if (row.quantity == "lp.simplex.warm_start_rejects") {
      EXPECT_EQ(row.verdict, DiffVerdict::kInfo);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiffReports, IgnoredPrefixesNeverGate) {
  const RunReport baseline = small_report();
  RunReport current = small_report();
  current.cases[0].metrics["lp.simplex.pivots"].per_rep = 500.0;
  DiffOptions options;
  options.ignore_prefixes = {"lp.simplex."};
  const DiffReport diff = diff_reports(baseline, current, options);
  EXPECT_TRUE(diff.clean());
}

TEST(DiffReports, AllocCountersOnlyInCandidateAreInfoNotCoverageFailure) {
  // Baselines regenerated before the alloc counters existed must not fail
  // against candidates that carry them: candidate-only metrics are info.
  const RunReport baseline = small_report();
  RunReport current = small_report();
  current.cases[0].metrics["obs.alloc.count"] = {90000, 30000.0};
  current.cases[0].metrics["obs.alloc.bytes"] = {9000000, 3000000.0};
  const DiffReport diff = diff_reports(baseline, current);
  EXPECT_TRUE(diff.clean());
  int info_rows = 0;
  for (const DiffRow& row : diff.rows) {
    if (row.quantity.rfind("obs.alloc.", 0) == 0) {
      EXPECT_EQ(row.verdict, DiffVerdict::kInfo);
      ++info_rows;
    }
  }
  EXPECT_EQ(info_rows, 2);
}

TEST(DiffReports, AllocCountRegressionPastTenPercentIsCaught) {
  RunReport baseline = small_report();
  baseline.cases[0].metrics["obs.alloc.count"] = {90000, 30000.0};
  RunReport current = small_report();
  // A deliberate ~10% allocation-count regression (clears the 4.0 absolute
  // slack by orders of magnitude) must trip the default gate.
  current.cases[0].metrics["obs.alloc.count"] = {99090, 33030.0};
  const DiffReport diff = diff_reports(baseline, current);
  EXPECT_FALSE(diff.clean());
  bool found = false;
  for (const DiffRow& row : diff.rows) {
    if (row.quantity == "obs.alloc.count") {
      EXPECT_EQ(row.verdict, DiffVerdict::kRegression);
      EXPECT_NEAR(row.rel_change, 0.101, 1e-3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiffReports, TimeSuffixedMetricsNeverGateInEitherDirection) {
  RunReport baseline = small_report();
  baseline.cases[0].metrics["util.threadpool.busy_ns"] = {4000000, 1000000.0};
  baseline.cases[0].metrics["util.threadpool.idle_ns"] = {8000000, 2000000.0};

  // A 10x wall-time blowup in a _ns counter is hardware noise, not a gated
  // regression.
  RunReport slower = baseline;
  slower.cases[0].metrics["util.threadpool.busy_ns"].per_rep = 10000000.0;
  const DiffReport diff = diff_reports(baseline, slower);
  EXPECT_TRUE(diff.clean());
  bool found = false;
  for (const DiffRow& row : diff.rows) {
    if (row.quantity == "util.threadpool.busy_ns") {
      EXPECT_EQ(row.verdict, DiffVerdict::kInfo);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // Disappearance of a time metric is not a coverage loss either (runs on
  // machines with different pool behavior simply lack the counter).
  RunReport missing = baseline;
  missing.cases[0].metrics.erase("util.threadpool.busy_ns");
  missing.cases[0].metrics.erase("util.threadpool.idle_ns");
  EXPECT_TRUE(diff_reports(baseline, missing).clean());

  // Opting out of the default suffix list restores strict gating.
  DiffOptions strict;
  strict.time_suffixes.clear();
  EXPECT_FALSE(diff_reports(baseline, slower, strict).clean());
  EXPECT_FALSE(diff_reports(baseline, missing, strict).clean());
}

}  // namespace
}  // namespace gridsec::obs
