// Run reports: self-describing, diffable JSON artifacts for every bench and
// CLI invocation.
//
// A report bundles three things under a versioned schema
// ("gridsec.bench_report", schema_version 3):
//   1. RunManifest — provenance captured once per process: git sha, build
//      type and flags, compiler, hostname, thread count, seed, CLI args,
//      start time and total wall time. Two reports from different configs
//      are never indistinguishable.
//   2. CaseResult — per-case wall-time statistics (min/median/mean/stddev
//      over N measured repetitions after W warmups) plus *metric deltas*:
//      how much each registry counter (lp.simplex.pivots, lp.bnb.nodes,
//      sim.montecarlo.failed_trials, ...) advanced across the measured
//      repetitions, total and per repetition.
//   3. Optionally, the self-profiler's merged call tree (obs/prof.hpp),
//      when the run was recorded with --profile.
//
// One report is the whole artifact of a run: gridsec-benchdiff reads its
// cases, gridsec-inspect profile ranks its call tree. parse_report() reads
// the JSON back (through the minimal reader in json.hpp; no external
// dependency), and diff_reports() compares two
// parsed reports with per-metric relative thresholds — the engine behind
// the `gridsec-benchdiff` CI gate. See docs/observability.md for the
// schema and the baseline-refresh workflow.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gridsec/obs/prof.hpp"
#include "gridsec/util/error.hpp"

namespace gridsec::obs {

/// Wire-format version of RunReport JSON. Bump on breaking changes and
/// teach parse_report() about the old layout (or reject it loudly).
inline constexpr int kReportSchemaVersion = 3;
inline constexpr const char* kReportSchemaName = "gridsec.bench_report";

/// Once-per-process provenance embedded in every report.
struct RunManifest {
  std::string tool;        // program name ("micro_solvers", "gridsec_cli")
  std::string git_sha;     // configure-time sha; env GRIDSEC_GIT_SHA wins
  std::string build_type;  // CMAKE_BUILD_TYPE at configure time
  std::string compiler;    // compiler id + version (from compiler macros)
  std::string cxx_flags;   // CMAKE_CXX_FLAGS (+ per-config flags)
  std::string hostname;
  unsigned hardware_threads = 0;  // std::thread::hardware_concurrency()
  std::size_t threads = 0;        // configured worker count (resolved)
  std::uint64_t seed = 0;
  int trials = 0;
  std::vector<std::string> args;  // argv[1..]
  std::string start_time_utc;     // ISO 8601, e.g. 2026-08-06T12:00:00Z
  double wall_time_seconds = 0.0; // whole-process wall time at write time

  /// Captures everything derivable without caller input (sha, build info,
  /// hostname, start time, argv). seed/trials/threads are the caller's.
  static RunManifest capture(std::string tool, int argc,
                             const char* const* argv);
};

/// Wall-time summary over the measured repetitions of one case.
struct WallStats {
  int reps = 0;
  int warmup = 0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;
  double median_seconds = 0.0;
  double stddev_seconds = 0.0;
  double total_seconds = 0.0;

  static WallStats from_samples(int warmup, std::span<const double> seconds);
};

/// How much one registry counter advanced across a case's measured reps.
struct MetricDelta {
  std::int64_t total = 0;
  double per_rep = 0.0;
};

struct CaseResult {
  std::string name;
  WallStats wall;
  std::map<std::string, MetricDelta> metrics;  // nonzero counter deltas
};

/// Builds a CaseResult from raw per-rep timings and before/after counter
/// snapshots (MetricRegistry::counter_values()). Every counter in `after`
/// gets a delta, zero included.
CaseResult make_case(std::string name, int warmup,
                     std::span<const double> rep_seconds,
                     const std::map<std::string, std::int64_t>& before,
                     const std::map<std::string, std::int64_t>& after);

struct RunReport {
  int schema_version = kReportSchemaVersion;
  RunManifest manifest;
  std::vector<CaseResult> cases;
  /// The self-profiler's snapshot, present when the run was profiled;
  /// written as {"threads":N,"tree":{...}} under "profile".
  std::optional<Profile> profile;

  /// Serializes the report. Finalize manifest.wall_time_seconds first.
  void write_json(std::ostream& os) const;
};

/// Parses a serialized RunReport. Rejects wrong schema name/version and
/// malformed JSON with an explanatory Status.
StatusOr<RunReport> parse_report(const std::string& json_text);

/// Thresholds for diff_reports(). A tracked quantity "regresses" when the
/// new value exceeds the baseline by more than the relative threshold AND
/// by more than the absolute slack (so near-zero baselines don't trip on
/// noise). Improvements never gate.
struct DiffOptions {
  double metric_rel_threshold = 0.10;  // per-rep counter deltas
  double metric_abs_slack = 4.0;       // absolute per-rep units of slack
  /// Wall-time gating is opt-in (0 disables): CI baselines come from
  /// different hardware, so the default gate is count-based only.
  double wall_rel_threshold = 0.0;
  /// Metric names starting with any of these prefixes are reported but
  /// never gate (e.g. thread-count-dependent scheduler counters).
  std::vector<std::string> ignore_prefixes;
  /// Metric names ending with any of these suffixes carry wall-clock time
  /// (nanosecond counters such as util.threadpool.busy_ns). Like wall
  /// medians they depend on the hardware, so they are reported but never
  /// gate — in either direction: their disappearance from the new report
  /// is not treated as a coverage regression either.
  std::vector<std::string> time_suffixes{"_ns"};
};

enum class DiffVerdict {
  kOk,          // within threshold (or an improvement)
  kRegression,  // worse than baseline beyond threshold
  kInfo,        // not gated: new case/metric, or ignored prefix
};

struct DiffRow {
  std::string case_name;
  std::string quantity;  // "wall.median" or a metric name
  double baseline = 0.0;
  double current = 0.0;
  double rel_change = 0.0;  // (current - baseline) / baseline
  DiffVerdict verdict = DiffVerdict::kOk;
  std::string note;
};

struct DiffReport {
  std::vector<DiffRow> rows;
  int regressions = 0;

  [[nodiscard]] bool clean() const { return regressions == 0; }
};

/// Compares `current` against `baseline` case-by-case. A case or tracked
/// metric present in the baseline but missing from `current` counts as a
/// regression (coverage loss), unless the baseline's delta was zero;
/// quantities only in `current` — e.g. newly added counters that predate
/// the baseline — are kInfo, never a failure. Time-suffixed and
/// prefix-ignored metrics are kInfo on both sides.
DiffReport diff_reports(const RunReport& baseline, const RunReport& current,
                        const DiffOptions& options = {});

}  // namespace gridsec::obs
