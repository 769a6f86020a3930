// Shared plumbing for the figure-reproduction and micro benches: flag
// parsing, dual table/CSV emission, and the harness-v2 run report.
//
// Every bench builds a `Harness` and funnels its timed work through
// `run_case()`: the harness runs warmup + N measured repetitions, records
// per-case wall-time stats (min/median/mean/stddev) and registry counter
// deltas (lp.simplex.pivots per solve, lp.bnb.nodes, ...), and — when
// --json[=FILE] is given — writes a schema-versioned BENCH_*.json report
// with full run provenance (git sha, build flags, seed, threads, args).
// `gridsec-benchdiff` compares two such reports; `gridsec-inspect profile`
// ranks the call tree a --profile run adds; see docs/observability.md.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/obs/report.hpp"
#include "gridsec/util/table.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace gridsec::bench {

struct BenchArgs {
  int trials = 20;
  std::uint64_t seed = 2015;
  bool csv_only = false;
  std::size_t threads = 0;  // 0 = hardware concurrency
  // --json[=FILE]: after the bench, write the harness run report (manifest
  // + per-case stats) to FILE (default BENCH_<prog>.json). Empty = off.
  std::string json_file;
  // --profile: enable the self-profiler for the whole run and add its call
  // tree to the run report; implies --json when that is absent.
  bool profile = false;
  // --reps=N / --warmup=N override the per-case defaults passed to
  // Harness::run_case (reps 0 / warmup -1 mean "use the case default").
  int reps = 0;
  int warmup = -1;
};

[[noreturn]] inline void usage_exit(const char* prog, int code) {
  std::fprintf(stderr,
               "usage: %s [--trials=N] [--seed=S] [--threads=T] [--reps=N] "
               "[--warmup=N] [--csv] [--json[=FILE]] [--profile]\n",
               prog);
  std::exit(code);
}

inline std::string default_json_name(const char* argv0) {
  std::string base = argv0;
  const std::size_t slash = base.find_last_of("/\\");
  if (slash != std::string::npos) base = base.substr(slash + 1);
  return "BENCH_" + base + ".json";
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  // Whole-value numeric parsing: reject trailing junk like --trials=5x.
  const auto parse_long = [&](const char* s, long* out) {
    char* end = nullptr;
    *out = std::strtol(s, &end, 10);
    return end != s && *end == '\0';
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&a](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    const auto malformed = [&]() {
      std::fprintf(stderr, "%s: malformed value in '%s'\n", argv[0],
                   a.c_str());
      usage_exit(argv[0], 2);
    };
    long v = 0;
    if (const char* s = value("--trials=")) {
      if (!parse_long(s, &v) || v <= 0) malformed();
      args.trials = static_cast<int>(v);
    } else if (const char* s = value("--seed=")) {
      // strtoull silently wraps negative inputs (--seed=-1 would become
      // 2^64-1); reject a leading '-' like the other numeric flags do.
      char* end = nullptr;
      args.seed = static_cast<std::uint64_t>(std::strtoull(s, &end, 10));
      if (*s == '-' || end == s || *end != '\0') malformed();
    } else if (const char* s = value("--threads=")) {
      if (!parse_long(s, &v) || v < 0) malformed();
      args.threads = static_cast<std::size_t>(v);
    } else if (const char* s = value("--reps=")) {
      if (!parse_long(s, &v) || v <= 0) malformed();
      args.reps = static_cast<int>(v);
    } else if (const char* s = value("--warmup=")) {
      if (!parse_long(s, &v) || v < 0) malformed();
      args.warmup = static_cast<int>(v);
    } else if (const char* s = value("--json=")) {
      args.json_file = s;
      if (args.json_file.empty()) malformed();
    } else if (a == "--json") {
      args.json_file = default_json_name(argv[0]);
    } else if (a == "--profile") {
      args.profile = true;
    } else if (a == "--csv") {
      args.csv_only = true;
    } else if (a == "--help" || a == "-h") {
      usage_exit(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], a.c_str());
      usage_exit(argv[0], 2);
    }
  }
  if (args.profile && args.json_file.empty()) {
    args.json_file = default_json_name(argv[0]);
  }
  return args;
}

inline void emit(const Table& table, const BenchArgs& args,
                 const char* title) {
  if (!args.csv_only) {
    std::cout << "== " << title << " ==\n";
    table.print(std::cout);
    std::cout << "\n# CSV\n";
  }
  table.print_csv(std::cout);
}

/// Benchmark harness v2: builds the run report case by case. Construct one
/// per bench main(), route timed work through run_case(), and call
/// emit_report() last (a no-op unless --json was given).
class Harness {
 public:
  Harness(std::string bench_name, const BenchArgs& args, int argc,
          char** argv)
      : args_(args),
        start_(std::chrono::steady_clock::now()) {
    report_.manifest = obs::RunManifest::capture(std::move(bench_name), argc,
                                                 argv);
    report_.manifest.seed = args.seed;
    report_.manifest.trials = args.trials;
    if (args.threads != 0) report_.manifest.threads = args.threads;
    if (args_.profile) obs::Profiler::start();
  }

  /// Runs `fn` default_warmup (unmeasured) + default_reps (measured) times
  /// — both overridable via --warmup/--reps — and records wall-time stats
  /// plus registry-counter deltas across the measured repetitions. Returns
  /// the last measured invocation's result.
  template <typename Fn>
  auto run_case(const std::string& name, Fn&& fn, int default_reps = 1,
                int default_warmup = 0) {
    const int reps = reps_of(default_reps);
    const int warmup = warmup_of(default_warmup);
    for (int i = 0; i < warmup; ++i) static_cast<void>(fn());
    // Publish heap-traffic totals so the counter deltas below include
    // obs.alloc.count/bytes for the measured reps (see obs/prof.hpp).
    obs::sync_alloc_counters();
    const auto before = obs::default_registry().counter_values();
    std::vector<double> seconds;
    seconds.reserve(static_cast<std::size_t>(reps));
    const auto timed = [&seconds](auto&& body) {
      const auto t0 = std::chrono::steady_clock::now();
      if constexpr (std::is_void_v<decltype(body())>) {
        body();
        seconds.push_back(elapsed_seconds(t0));
      } else {
        auto result = body();
        seconds.push_back(elapsed_seconds(t0));
        return result;
      }
    };
    for (int i = 0; i < reps - 1; ++i) static_cast<void>(timed(fn));
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      timed(fn);
      finish_case(name, warmup, seconds, before);
    } else {
      auto result = timed(fn);
      finish_case(name, warmup, seconds, before);
      return result;
    }
  }

  /// How many times run_case calls `fn` (warmup and measured reps) for
  /// these defaults, so a case can draw one input per call beforehand.
  [[nodiscard]] int calls(int default_reps, int default_warmup) const {
    return reps_of(default_reps) + warmup_of(default_warmup);
  }

  /// Writes the BENCH_*.json report when --json (or --profile) was given,
  /// with the profiler's call tree under --profile. Call once, after every
  /// case ran. A file that cannot be opened exits 1, as in gridsec_cli, so
  /// a failed write never passes for a fresh artifact.
  void emit_report() {
    if (args_.json_file.empty()) return;
    report_.manifest.wall_time_seconds = elapsed_seconds(start_);
    if (args_.profile) {
      obs::Profiler::stop();
      report_.profile = obs::Profiler::snapshot();
    }
    std::ofstream out(args_.json_file);
    if (!out) {
      std::fprintf(stderr, "cannot write report to '%s'\n",
                   args_.json_file.c_str());
      std::exit(1);
    }
    report_.write_json(out);
    std::fprintf(stderr, "report -> %s\n", args_.json_file.c_str());
  }

  [[nodiscard]] const obs::RunReport& report() const { return report_; }

 private:
  [[nodiscard]] int reps_of(int default_reps) const {
    return args_.reps > 0 ? args_.reps : default_reps;
  }
  [[nodiscard]] int warmup_of(int default_warmup) const {
    return args_.warmup >= 0 ? args_.warmup : default_warmup;
  }

  static double elapsed_seconds(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

  void finish_case(const std::string& name, int warmup,
                   const std::vector<double>& seconds,
                   const std::map<std::string, std::int64_t>& before) {
    obs::sync_alloc_counters();
    report_.cases.push_back(obs::make_case(
        name, warmup, seconds, before,
        obs::default_registry().counter_values()));
  }

  BenchArgs args_;
  obs::RunReport report_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gridsec::bench
