#include "gridsec/obs/report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <thread>

#include "gridsec/util/stats.hpp"
#include "json.hpp"

// Provenance baked in at configure time (src/obs/CMakeLists.txt). The
// fallbacks keep non-CMake builds (and unity test builds) compiling.
#ifndef GRIDSEC_GIT_SHA
#define GRIDSEC_GIT_SHA "unknown"
#endif
#ifndef GRIDSEC_BUILD_TYPE
#define GRIDSEC_BUILD_TYPE "unknown"
#endif
#ifndef GRIDSEC_CXX_FLAGS
#define GRIDSEC_CXX_FLAGS ""
#endif

namespace gridsec::obs {
namespace {

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string current_hostname() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    return buf;
  }
  const char* env = std::getenv("HOSTNAME");
  return env != nullptr ? env : "unknown";
}

using json::write_number;
using json::write_string;

void write_node(std::ostream& os, const ProfileNode& n) {
  os << "{\"name\":";
  write_string(os, n.name);
  os << ",\"count\":" << n.count << ",\"wall_ns\":" << n.wall_ns
     << ",\"cpu_ns\":" << n.cpu_ns << ",\"excl_wall_ns\":" << n.excl_wall_ns
     << ",\"excl_cpu_ns\":" << n.excl_cpu_ns
     << ",\"alloc_count\":" << n.alloc_count
     << ",\"alloc_bytes\":" << n.alloc_bytes << ",\"children\":[";
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    if (i != 0) os << ',';
    write_node(os, n.children[i]);
  }
  os << "]}";
}

}  // namespace

RunManifest RunManifest::capture(std::string tool, int argc,
                                 const char* const* argv) {
  RunManifest m;
  m.tool = std::move(tool);
  const char* sha_env = std::getenv("GRIDSEC_GIT_SHA");
  m.git_sha = (sha_env != nullptr && sha_env[0] != '\0') ? sha_env
                                                         : GRIDSEC_GIT_SHA;
  m.build_type = GRIDSEC_BUILD_TYPE;
  m.compiler = compiler_id();
  m.cxx_flags = GRIDSEC_CXX_FLAGS;
  m.hostname = current_hostname();
  m.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  m.threads = m.hardware_threads;
  m.start_time_utc = json::utc_now_iso8601();
  for (int i = 1; i < argc; ++i) m.args.emplace_back(argv[i]);
  return m;
}

WallStats WallStats::from_samples(int warmup,
                                  std::span<const double> seconds) {
  WallStats w;
  w.reps = static_cast<int>(seconds.size());
  w.warmup = warmup;
  if (seconds.empty()) return w;
  w.min_seconds = *std::min_element(seconds.begin(), seconds.end());
  w.max_seconds = *std::max_element(seconds.begin(), seconds.end());
  w.mean_seconds = mean(seconds);
  w.median_seconds = percentile(seconds, 50.0);
  w.stddev_seconds = stddev(seconds);
  for (const double s : seconds) w.total_seconds += s;
  return w;
}

CaseResult make_case(std::string name, int warmup,
                     std::span<const double> rep_seconds,
                     const std::map<std::string, std::int64_t>& before,
                     const std::map<std::string, std::int64_t>& after) {
  CaseResult c;
  c.name = std::move(name);
  c.wall = WallStats::from_samples(warmup, rep_seconds);
  const int reps = std::max(1, c.wall.reps);
  for (const auto& [metric, value] : after) {
    const auto it = before.find(metric);
    // Unchanged counters are kept at zero: a baseline has to record that a
    // counter ran dry, or a later run that moves it again has no reference.
    const std::int64_t delta =
        value - (it != before.end() ? it->second : 0);
    c.metrics[metric] =
        MetricDelta{delta, static_cast<double>(delta) / reps};
  }
  return c;
}

void RunReport::write_json(std::ostream& os) const {
  os << "{\"schema\":\"" << kReportSchemaName
     << "\",\"schema_version\":" << schema_version << ",\"manifest\":{";
  os << "\"tool\":";
  write_string(os, manifest.tool);
  os << ",\"git_sha\":";
  write_string(os, manifest.git_sha);
  os << ",\"build_type\":";
  write_string(os, manifest.build_type);
  os << ",\"compiler\":";
  write_string(os, manifest.compiler);
  os << ",\"cxx_flags\":";
  write_string(os, manifest.cxx_flags);
  os << ",\"hostname\":";
  write_string(os, manifest.hostname);
  os << ",\"hardware_threads\":" << manifest.hardware_threads
     << ",\"threads\":" << manifest.threads << ",\"seed\":" << manifest.seed
     << ",\"trials\":" << manifest.trials << ",\"args\":[";
  for (std::size_t i = 0; i < manifest.args.size(); ++i) {
    if (i != 0) os << ',';
    write_string(os, manifest.args[i]);
  }
  os << "],\"start_time_utc\":";
  write_string(os, manifest.start_time_utc);
  os << ",\"wall_time_seconds\":";
  write_number(os, manifest.wall_time_seconds);
  os << "},\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    if (i != 0) os << ',';
    os << "{\"name\":";
    write_string(os, c.name);
    os << ",\"reps\":" << c.wall.reps << ",\"warmup\":" << c.wall.warmup
       << ",\"wall_seconds\":{\"min\":";
    write_number(os, c.wall.min_seconds);
    os << ",\"median\":";
    write_number(os, c.wall.median_seconds);
    os << ",\"mean\":";
    write_number(os, c.wall.mean_seconds);
    os << ",\"stddev\":";
    write_number(os, c.wall.stddev_seconds);
    os << ",\"max\":";
    write_number(os, c.wall.max_seconds);
    os << ",\"total\":";
    write_number(os, c.wall.total_seconds);
    os << "},\"metrics\":{";
    bool first = true;
    for (const auto& [metric, delta] : c.metrics) {
      if (!first) os << ',';
      first = false;
      write_string(os, metric);
      os << ":{\"total\":" << delta.total << ",\"per_rep\":";
      write_number(os, delta.per_rep);
      os << '}';
    }
    os << "}}";
  }
  os << ']';
  if (profile) {
    os << ",\"profile\":{\"threads\":" << profile->threads << ",\"tree\":";
    write_node(os, profile->root);
    os << '}';
  }
  os << "}\n";
}

// ---------------------------------------------------------------------------
// Parsing: the shared minimal JSON reader (json.hpp) does the lexing; this
// file only maps the value tree back onto RunReport.
// ---------------------------------------------------------------------------

using json::JsonParser;
using json::JsonValue;

namespace {

std::int64_t node_i64(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? static_cast<std::int64_t>(v->number_or(0.0)) : 0;
}

Status parse_node(const JsonValue& jn, ProfileNode* out) {
  if (jn.kind != JsonValue::Kind::kObject) {
    return Status::invalid_argument("report: profile node is not an object");
  }
  const JsonValue* name = jn.find("name");
  if (name == nullptr || name->kind != JsonValue::Kind::kString) {
    return Status::invalid_argument("report: profile node without a name");
  }
  out->name = name->string;
  out->count = node_i64(jn, "count");
  out->wall_ns = node_i64(jn, "wall_ns");
  out->cpu_ns = node_i64(jn, "cpu_ns");
  out->excl_wall_ns = node_i64(jn, "excl_wall_ns");
  out->excl_cpu_ns = node_i64(jn, "excl_cpu_ns");
  out->alloc_count = node_i64(jn, "alloc_count");
  out->alloc_bytes = node_i64(jn, "alloc_bytes");
  if (const JsonValue* children = jn.find("children");
      children != nullptr && children->kind == JsonValue::Kind::kArray) {
    out->children.resize(children->array.size());
    for (std::size_t i = 0; i < children->array.size(); ++i) {
      const Status st = parse_node(children->array[i], &out->children[i]);
      if (!st.is_ok()) return st;
    }
  }
  return Status::ok();
}

}  // namespace

StatusOr<RunReport> parse_report(const std::string& json_text) {
  JsonParser parser(json_text);
  StatusOr<JsonValue> root = parser.parse();
  if (!root.is_ok()) return root.status();
  if (root->kind != JsonValue::Kind::kObject) {
    return Status::invalid_argument("report: top-level value is not an object");
  }
  const JsonValue* schema = root->find("schema");
  if (schema == nullptr || schema->string_or("") != kReportSchemaName) {
    return Status::invalid_argument(
        "report: missing or wrong \"schema\" (want gridsec.bench_report)");
  }
  const JsonValue* version = root->find("schema_version");
  if (version == nullptr ||
      static_cast<int>(version->number_or(-1)) != kReportSchemaVersion) {
    return Status::invalid_argument(
        "report: unsupported schema_version (want " +
        std::to_string(kReportSchemaVersion) + ")");
  }

  RunReport report;
  report.schema_version = kReportSchemaVersion;

  const JsonValue* manifest = root->find("manifest");
  if (manifest == nullptr || manifest->kind != JsonValue::Kind::kObject) {
    return Status::invalid_argument("report: missing \"manifest\" object");
  }
  RunManifest& m = report.manifest;
  const auto man_str = [&](const char* key) {
    const JsonValue* v = manifest->find(key);
    return v != nullptr ? v->string_or("") : std::string();
  };
  const auto man_num = [&](const char* key) {
    const JsonValue* v = manifest->find(key);
    return v != nullptr ? v->number_or(0.0) : 0.0;
  };
  m.tool = man_str("tool");
  m.git_sha = man_str("git_sha");
  m.build_type = man_str("build_type");
  m.compiler = man_str("compiler");
  m.cxx_flags = man_str("cxx_flags");
  m.hostname = man_str("hostname");
  m.hardware_threads = static_cast<unsigned>(man_num("hardware_threads"));
  m.threads = static_cast<std::size_t>(man_num("threads"));
  m.seed = static_cast<std::uint64_t>(man_num("seed"));
  m.trials = static_cast<int>(man_num("trials"));
  m.start_time_utc = man_str("start_time_utc");
  m.wall_time_seconds = man_num("wall_time_seconds");
  if (const JsonValue* args = manifest->find("args");
      args != nullptr && args->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& a : args->array) m.args.push_back(a.string_or(""));
  }

  const JsonValue* cases = root->find("cases");
  if (cases == nullptr || cases->kind != JsonValue::Kind::kArray) {
    return Status::invalid_argument("report: missing \"cases\" array");
  }
  for (const JsonValue& jc : cases->array) {
    if (jc.kind != JsonValue::Kind::kObject) {
      return Status::invalid_argument("report: case is not an object");
    }
    CaseResult c;
    const JsonValue* name = jc.find("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString) {
      return Status::invalid_argument("report: case without a name");
    }
    c.name = name->string;
    c.wall.reps = static_cast<int>(
        jc.find("reps") != nullptr ? jc.find("reps")->number_or(0) : 0);
    c.wall.warmup = static_cast<int>(
        jc.find("warmup") != nullptr ? jc.find("warmup")->number_or(0) : 0);
    if (const JsonValue* wall = jc.find("wall_seconds");
        wall != nullptr && wall->kind == JsonValue::Kind::kObject) {
      const auto wall_num = [&](const char* key) {
        const JsonValue* v = wall->find(key);
        return v != nullptr ? v->number_or(0.0) : 0.0;
      };
      c.wall.min_seconds = wall_num("min");
      c.wall.median_seconds = wall_num("median");
      c.wall.mean_seconds = wall_num("mean");
      c.wall.stddev_seconds = wall_num("stddev");
      c.wall.max_seconds = wall_num("max");
      c.wall.total_seconds = wall_num("total");
    }
    if (const JsonValue* metrics = jc.find("metrics");
        metrics != nullptr && metrics->kind == JsonValue::Kind::kObject) {
      for (const auto& [metric, jm] : metrics->object) {
        MetricDelta d;
        if (const JsonValue* total = jm.find("total")) {
          d.total = static_cast<std::int64_t>(total->number_or(0.0));
        }
        if (const JsonValue* per_rep = jm.find("per_rep")) {
          d.per_rep = per_rep->number_or(0.0);
        }
        c.metrics.emplace(metric, d);
      }
    }
    report.cases.push_back(std::move(c));
  }

  if (const JsonValue* prof = root->find("profile")) {
    const JsonValue* tree = prof->find("tree");
    if (tree == nullptr) {
      return Status::invalid_argument("report: \"profile\" without a tree");
    }
    Profile p;
    p.threads = node_i64(*prof, "threads");
    const Status st = parse_node(*tree, &p.root);
    if (!st.is_ok()) return st;
    report.profile = std::move(p);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Diff engine.
// ---------------------------------------------------------------------------

namespace {

bool has_ignored_prefix(const std::string& name,
                        const std::vector<std::string>& prefixes) {
  for (const std::string& p : prefixes) {
    if (!p.empty() && name.compare(0, p.size(), p) == 0) return true;
  }
  return false;
}

bool has_time_suffix(const std::string& name,
                     const std::vector<std::string>& suffixes) {
  for (const std::string& s : suffixes) {
    if (!s.empty() && name.size() >= s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      return true;
    }
  }
  return false;
}

double relative_change(double baseline, double current) {
  if (baseline == 0.0) return current == 0.0 ? 0.0 : 1e308;
  return (current - baseline) / std::abs(baseline);
}

}  // namespace

DiffReport diff_reports(const RunReport& baseline, const RunReport& current,
                        const DiffOptions& options) {
  DiffReport out;
  std::map<std::string, const CaseResult*> current_by_name;
  for (const CaseResult& c : current.cases) current_by_name[c.name] = &c;

  const auto push = [&out](DiffRow row) {
    if (row.verdict == DiffVerdict::kRegression) ++out.regressions;
    out.rows.push_back(std::move(row));
  };

  for (const CaseResult& base_case : baseline.cases) {
    const auto found = current_by_name.find(base_case.name);
    if (found == current_by_name.end()) {
      push({base_case.name, "(case)", 0.0, 0.0, 0.0, DiffVerdict::kRegression,
            "case missing from new report"});
      continue;
    }
    const CaseResult& cur_case = *found->second;

    // Wall time: always reported, gated only when opted in.
    {
      DiffRow row;
      row.case_name = base_case.name;
      row.quantity = "wall.median";
      row.baseline = base_case.wall.median_seconds;
      row.current = cur_case.wall.median_seconds;
      row.rel_change = relative_change(row.baseline, row.current);
      if (options.wall_rel_threshold > 0.0 &&
          row.rel_change > options.wall_rel_threshold) {
        row.verdict = DiffVerdict::kRegression;
        row.note = "median wall time regressed";
      } else if (options.wall_rel_threshold <= 0.0) {
        row.verdict = DiffVerdict::kInfo;
        row.note = "wall time not gated";
      }
      push(std::move(row));
    }

    for (const auto& [metric, base_delta] : base_case.metrics) {
      DiffRow row;
      row.case_name = base_case.name;
      row.quantity = metric;
      row.baseline = base_delta.per_rep;
      const auto cur_metric = cur_case.metrics.find(metric);
      const bool time_metric = has_time_suffix(metric, options.time_suffixes);
      if (time_metric || has_ignored_prefix(metric, options.ignore_prefixes)) {
        row.current = cur_metric != cur_case.metrics.end()
                          ? cur_metric->second.per_rep
                          : 0.0;
        row.rel_change = relative_change(row.baseline, row.current);
        row.verdict = DiffVerdict::kInfo;
        row.note = time_metric ? "time metric (not gated)" : "ignored prefix";
        push(std::move(row));
        continue;
      }
      if (cur_metric == cur_case.metrics.end()) {
        // A baseline that never moved the counter loses no coverage when
        // the counter is gone; any other vanished metric is lost coverage.
        if (base_delta.total == 0) {
          row.verdict = DiffVerdict::kInfo;
          row.note = "zero-baseline metric missing from new report";
        } else {
          row.verdict = DiffVerdict::kRegression;
          row.note = "metric missing from new report";
        }
        push(std::move(row));
        continue;
      }
      row.current = cur_metric->second.per_rep;
      row.rel_change = relative_change(row.baseline, row.current);
      const double abs_change = row.current - row.baseline;
      if (row.rel_change > options.metric_rel_threshold &&
          abs_change > options.metric_abs_slack) {
        row.verdict = DiffVerdict::kRegression;
        row.note = "metric regressed past threshold";
      }
      push(std::move(row));
    }

    // Metrics that appeared only in the new run: informational.
    for (const auto& [metric, cur_delta] : cur_case.metrics) {
      if (base_case.metrics.count(metric) != 0) continue;
      push({base_case.name, metric, 0.0, cur_delta.per_rep, 0.0,
            DiffVerdict::kInfo, "new metric (not in baseline)"});
    }
  }

  // Cases that appeared only in the new run: informational.
  std::map<std::string, const CaseResult*> baseline_by_name;
  for (const CaseResult& c : baseline.cases) baseline_by_name[c.name] = &c;
  for (const CaseResult& c : current.cases) {
    if (baseline_by_name.count(c.name) != 0) continue;
    push({c.name, "(case)", 0.0, 0.0, 0.0, DiffVerdict::kInfo,
          "new case (not in baseline)"});
  }
  return out;
}

}  // namespace gridsec::obs
