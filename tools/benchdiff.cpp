// gridsec-benchdiff — compare two harness-v2 run reports and gate on
// regressions.
//
//   gridsec-benchdiff [options] BASELINE.json NEW.json
//   gridsec-benchdiff --validate REPORT.json
//
// Options:
//   --metric-threshold=F   relative threshold on per-rep counter deltas
//                          (default 0.10 = +10%)
//   --abs-slack=F          absolute per-rep slack a metric must also exceed
//                          before it gates (default 4; shields near-zero
//                          baselines from noise)
//   --wall-threshold=F     also gate on median wall time regressing more
//                          than F (relative). Off by default: baselines
//                          come from different hardware, so CI gates on
//                          counts, not seconds.
//   --ignore=P1,P2,...     metric-name prefixes to report but never gate
//                          (e.g. util.threadpool. when thread counts vary)
//   --time-suffixes=S1,..  metric-name suffixes carrying wall-clock time;
//                          reported but never gated in either direction,
//                          including disappearance (default: _ns)
//   --quiet                print only regressions and the verdict line
//
// Metrics present only in the candidate report (newly added counters) are
// always informational — only the disappearance of a baseline metric that
// moved fails coverage.
//
// Exit codes: 0 = clean (self-diff is always clean), 1 = regression,
// 2 = usage or parse error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gridsec/obs/report.hpp"
#include "gridsec/util/table.hpp"

namespace {

using namespace gridsec;

int usage() {
  std::fprintf(
      stderr,
      "usage: gridsec-benchdiff [--metric-threshold=F] [--abs-slack=F]\n"
      "                         [--wall-threshold=F] [--ignore=P1,P2,...]\n"
      "                         [--time-suffixes=S1,S2,...] [--quiet]\n"
      "                         BASELINE.json NEW.json\n"
      "       gridsec-benchdiff --validate REPORT.json\n");
  return 2;
}

StatusOr<obs::RunReport> load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::not_found("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return obs::parse_report(buf.str());
}

bool parse_double_flag(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || v < 0.0) return false;
  *out = v;
  return true;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// True for metrics whose values are byte totals (obs.alloc.bytes and any
/// other counter whose name ends in "bytes").
bool is_byte_metric(const std::string& quantity) {
  const std::string suffix = "bytes";
  return quantity.size() >= suffix.size() &&
         quantity.compare(quantity.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
}

/// Renders a byte count human-readably: "512 B", "4.0 KiB", "16.2 MiB".
std::string format_bytes(double v) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  if (u == 0) {
    std::snprintf(buf, sizeof buf, "%.0f B", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f %s", v, units[u]);
  }
  return buf;
}

const char* verdict_name(obs::DiffVerdict v) {
  switch (v) {
    case obs::DiffVerdict::kOk: return "ok";
    case obs::DiffVerdict::kRegression: return "REGRESSION";
    case obs::DiffVerdict::kInfo: return "info";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  obs::DiffOptions options;
  bool validate_only = false;
  bool quiet = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&a](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--metric-threshold=")) {
      if (!parse_double_flag(v, &options.metric_rel_threshold)) return usage();
    } else if (const char* v = value("--abs-slack=")) {
      if (!parse_double_flag(v, &options.metric_abs_slack)) return usage();
    } else if (const char* v = value("--wall-threshold=")) {
      if (!parse_double_flag(v, &options.wall_rel_threshold)) return usage();
    } else if (const char* v = value("--ignore=")) {
      options.ignore_prefixes = split_csv(v);
    } else if (const char* v = value("--time-suffixes=")) {
      options.time_suffixes = split_csv(v);
    } else if (a == "--validate") {
      validate_only = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "gridsec-benchdiff: unknown option '%s'\n",
                   a.c_str());
      return usage();
    } else {
      files.push_back(a);
    }
  }

  if (validate_only) {
    if (files.size() != 1) return usage();
    const auto report = load_report(files[0]);
    if (!report.is_ok()) {
      std::fprintf(stderr, "gridsec-benchdiff: %s: %s\n", files[0].c_str(),
                   report.status().to_string().c_str());
      return 2;
    }
    std::printf(
        "%s: valid %s v%d report — tool=%s git=%s cases=%zu seed=%llu\n",
        files[0].c_str(), obs::kReportSchemaName, report->schema_version,
        report->manifest.tool.c_str(), report->manifest.git_sha.c_str(),
        report->cases.size(),
        static_cast<unsigned long long>(report->manifest.seed));
    return 0;
  }

  if (files.size() != 2) return usage();
  const auto baseline = load_report(files[0]);
  if (!baseline.is_ok()) {
    std::fprintf(stderr, "gridsec-benchdiff: %s: %s\n", files[0].c_str(),
                 baseline.status().to_string().c_str());
    return 2;
  }
  const auto current = load_report(files[1]);
  if (!current.is_ok()) {
    std::fprintf(stderr, "gridsec-benchdiff: %s: %s\n", files[1].c_str(),
                 current.status().to_string().c_str());
    return 2;
  }
  if (baseline->manifest.tool != current->manifest.tool) {
    std::fprintf(stderr,
                 "gridsec-benchdiff: warning: comparing reports from "
                 "different tools ('%s' vs '%s')\n",
                 baseline->manifest.tool.c_str(),
                 current->manifest.tool.c_str());
  }

  const obs::DiffReport diff = obs::diff_reports(*baseline, *current, options);

  Table t({"case", "quantity", "baseline", "new", "change%", "verdict"});
  for (const obs::DiffRow& row : diff.rows) {
    if (quiet && row.verdict != obs::DiffVerdict::kRegression) continue;
    const std::string change =
        row.baseline == 0.0 && row.current != 0.0
            ? "new"
            : format_double(100.0 * row.rel_change, 1);
    std::string verdict = verdict_name(row.verdict);
    if (!row.note.empty()) verdict += " (" + row.note + ")";
    const bool bytes = is_byte_metric(row.quantity);
    t.add_row({row.case_name, row.quantity,
               bytes ? format_bytes(row.baseline)
                     : format_double(row.baseline, 4),
               bytes ? format_bytes(row.current)
                     : format_double(row.current, 4),
               change, verdict});
  }
  t.print(std::cout);
  std::printf(
      "\nbaseline: %s @ %s (%s)\nnew:      %s @ %s (%s)\n",
      baseline->manifest.tool.c_str(), baseline->manifest.git_sha.c_str(),
      baseline->manifest.start_time_utc.c_str(),
      current->manifest.tool.c_str(), current->manifest.git_sha.c_str(),
      current->manifest.start_time_utc.c_str());
  if (diff.clean()) {
    std::printf("verdict: OK — no tracked metric regressed (thresholds: "
                "metric +%.0f%%, abs slack %.1f%s)\n",
                100.0 * options.metric_rel_threshold,
                options.metric_abs_slack,
                options.wall_rel_threshold > 0.0 ? ", wall gated" : "");
    return 0;
  }
  std::printf("verdict: REGRESSION — %d tracked quantit%s regressed\n",
              diff.regressions, diff.regressions == 1 ? "y" : "ies");
  return 1;
}
