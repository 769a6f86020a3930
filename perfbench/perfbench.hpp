// Shared pieces of the gridsec benchmark driver: the run configuration, the
// result every workload returns, the in-memory span recorder of traced
// passes, and the metric helpers the workloads share. README.md in this
// directory describes the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 40.0;
  bool trace = false;
  /// Gives every simplex solve a near-zero deadline, so units fail; the
  /// self-tests use it to show that the output check rejects failed units.
  bool force_fail = false;
};

/// Simplex deadline under RunConfig::force_fail.
inline constexpr double kForcedTimeLimitMs = 1e-9;
/// Set-up runs this many times per run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;

/// A span the benchmark records around one of its own calls into a layer's
/// public function. Spans stay in memory until the run ends.
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         // index of the enclosing span; -1 at top level
  std::int64_t unit = -1;  // the workload unit the span belongs to
};

class SpanRecorder {
 public:
  /// Opens a span inside the innermost open one; returns its index.
  int open(std::string_view name, std::int64_t unit);
  /// Closes span `id`, the innermost open one.
  void close(int id);

  [[nodiscard]] bool empty() const { return spans_.empty(); }
  /// Count, summed and mean duration (microseconds) of spans named `name`.
  [[nodiscard]] std::int64_t count(std::string_view name) const;
  [[nodiscard]] double total_us(std::string_view name) const;
  [[nodiscard]] double mean_us(std::string_view name) const;

  /// Chrome trace-event JSON ("X" events, microseconds) of the first
  /// `max_spans` spans; each event's args carry the span's index, its
  /// parent's index and its unit id.
  void write_json(std::ostream& os, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A scoped span. Without a recorder it does nothing, not even read the
/// clock, so untraced passes run the same code as traced ones.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, std::string_view name, std::int64_t unit)
      : rec_(rec), id_(rec == nullptr ? -1 : rec->open(name, unit)) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Evaluates fn() inside a span and returns its result.
template <typename F>
decltype(auto) in_span(SpanRecorder* rec, std::string_view name,
                       std::int64_t unit, F&& fn) {
  const SpanScope scope(rec, name, unit);
  return fn();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. main() prints it as one JSON line; run.py judges
/// the check material and prints the result line.
struct RunResult {
  std::int64_t attempted = 0;  // units run in the measured passes
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;  // sample counts and the like
  // The output check: errors the audited check pass found, the number of
  // certificates the audit hook issued, and the values run.py compares
  // with stored references.
  std::vector<std::string> check_errors;
  std::int64_t certified = 0;
  std::map<std::string, std::vector<double>> check_values;
  SpanRecorder spans;
};

/// One round of a timed pass: the workload's unit list run once, position
/// by position, on that round's inputs.
struct Round {
  std::vector<double> latency_ms;  // one per timed call (unit or point)
  std::int64_t units = 0;
  std::int64_t failed = 0;
};

/// An untraced, timed pass: rounds, until the run time is used up.
struct TimedPass {
  std::vector<double> latency_ms;       // every unit of every round
  std::vector<double> units_per_s;      // of each round
  std::vector<double> cpu_ms_per_unit;  // of each round
  std::int64_t units = 0;
  std::int64_t failed = 0;
};

/// Sets the end-to-end metrics of a finished timed pass. Call it before
/// the check pass, so that peak_rss_mb covers the workload alone.
/// `tail_pct` is the workload's fixed tail percentile, chosen so that at
/// least ten samples lie beyond it at the configured run length.
void add_end_to_end(const TimedPass& pass, double tail_pct,
                    const std::vector<double>& setup_s, RunResult* out);

/// Every registry counter, allocation counters synced first.
class CounterSnapshot {
 public:
  CounterSnapshot();
  /// How far counter `name` advanced from `before` to this snapshot.
  [[nodiscard]] double since(const CounterSnapshot& before,
                             const std::string& name) const;

 private:
  std::map<std::string, std::int64_t> values_;
};

/// Sets the per-layer metrics derived from counters, over one untraced
/// pass of `units` units, and sets every clock-derived per-layer metric to
/// 0; each workload then overwrites the ones it measures.
void add_per_layer_counts(const CounterSnapshot& before,
                          const CounterSnapshot& after, double units,
                          RunResult* out);

/// Arms the audit hook (obs::arm_audit) for the check pass, so that the
/// independent checker certifies every LP and MILP solve in it.
class AuditedPass {
 public:
  AuditedPass();
  ~AuditedPass();
  AuditedPass(const AuditedPass&) = delete;
  AuditedPass& operator=(const AuditedPass&) = delete;

  /// Records the certificates issued so far and any that failed.
  void finish(RunResult* out) const;

 private:
  std::int64_t certified_before_;
};

double seconds_between(Clock::time_point from, Clock::time_point to);
double ms_since(Clock::time_point from);
/// User plus system CPU time of the whole process so far.
double process_cpu_seconds();
double median(const std::vector<double>& xs);
/// num / den, or 0 when den is 0.
double ratio(double num, double den);

/// Runs run_round(0), run_round(1), ... until `seconds` have passed and at
/// least `min_rounds` rounds have run.
template <typename F>
TimedPass run_rounds(double seconds, int min_rounds, F&& run_round) {
  TimedPass pass;
  const auto t0 = Clock::now();
  for (int r = 0;
       r < min_rounds || seconds_between(t0, Clock::now()) < seconds; ++r) {
    const double cpu0 = process_cpu_seconds();
    const auto round_t0 = Clock::now();
    const Round round = run_round(r);
    const double wall_s = seconds_between(round_t0, Clock::now());
    const double cpu_ms = (process_cpu_seconds() - cpu0) * 1e3;
    const auto units = static_cast<double>(round.units);
    pass.units_per_s.push_back(ratio(units, wall_s));
    pass.cpu_ms_per_unit.push_back(ratio(cpu_ms, units));
    pass.latency_ms.insert(pass.latency_ms.end(), round.latency_ms.begin(),
                           round.latency_ms.end());
    pass.units += round.units;
    pass.failed += round.failed;
  }
  return pass;
}

RunResult run_defense_game(const RunConfig& cfg);
RunResult run_impact_chain(const RunConfig& cfg);

}  // namespace perfbench
