// gridsec_perfbench: runs one workload of the gridsec benchmark and prints
// what it measured, with the material of its output check, as one JSON
// line. perfbench/run.py builds it, drives it and judges the check; see
// README.md in this directory.
//
//   gridsec_perfbench --workload defense_game|impact_chain
//                     --seed N --seconds S --trace 0|1
//                     [--spans FILE] [--force-fail]
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "perfbench.hpp"

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

// The span file keeps the first spans only (a 20 s traced impact_chain run
// records ~300k); the per-layer metrics use them all.
constexpr std::size_t kMaxWrittenSpans = 20000;

int usage() {
  std::fprintf(stderr,
               "usage: gridsec_perfbench --workload "
               "defense_game|impact_chain --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--force-fail]\n");
  return 2;
}

bool parse_seed(const char* text, std::uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0';
}

bool parse_seconds(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out) && *out > 0.0;
}

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_result(std::ostream& os, const RunConfig& cfg,
                  const RunResult& r) {
  os << "{\"workload\":";
  write_string(os, cfg.workload);
  os << ",\"seed\":" << cfg.seed << ",\"trace\":" << (cfg.trace ? 1 : 0)
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"certified\":" << r.certified << ",\"check_errors\":[";
  for (std::size_t i = 0; i < r.check_errors.size(); ++i) {
    if (i > 0) os << ',';
    write_string(os, r.check_errors[i]);
  }
  os << "],\"check_values\":{";
  const char* sep = "";
  for (const auto& [name, values] : r.check_values) {
    os << sep;
    sep = ",";
    write_string(os, name);
    os << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ',';
      write_number(os, values[i]);
    }
    os << ']';
  }
  os << "},\"metrics\":{";
  sep = "";
  for (const auto& [name, metric] : r.metrics) {
    os << sep;
    sep = ",";
    write_string(os, name);
    os << ":{\"value\":";
    write_number(os, metric.value);
    os << ",\"unit\":";
    write_string(os, metric.unit);
    os << '}';
  }
  os << "},\"info\":{";
  sep = "";
  for (const auto& [name, value] : r.info) {
    os << sep;
    sep = ",";
    write_string(os, name);
    os << ':';
    write_number(os, value);
  }
  os << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--force-fail") {
      cfg.force_fail = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      if (!parse_seed(value, &cfg.seed)) return usage();
    } else if (flag == "--seconds") {
      if (!parse_seconds(value, &cfg.seconds)) return usage();
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") return usage();
      cfg.trace = v == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }

  RunResult result;
  try {
    if (cfg.workload == "defense_game") {
      result = perfbench::run_defense_game(cfg);
    } else if (cfg.workload == "impact_chain") {
      result = perfbench::run_impact_chain(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gridsec_perfbench: %s\n", e.what());
    return 1;
  }
  if (!spans_path.empty() && !result.spans.empty()) {
    std::ofstream spans(spans_path);
    result.spans.write_json(spans, kMaxWrittenSpans);
    if (!spans) {
      std::fprintf(stderr, "gridsec_perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  write_result(std::cout, cfg, result);
  return std::cout ? 0 : 1;
}
