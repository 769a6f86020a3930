#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <string>

#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/util/stats.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t counter_value(const char* name) {
  return gridsec::obs::default_registry().counter(name).value();
}

// Peak resident set of this process image, from VmHWM. getrusage's
// ru_maxrss is not used: Linux carries it across exec, so it would report
// the launching process's size whenever that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return 0.0;
}

struct NamedUnit {
  const char* name;
  const char* unit;
};

// Per-layer metrics derived from clock readings rather than counters.
constexpr NamedUnit kClockMetrics[] = {
    {"sim.pool_idle_frac", "frac"}, {"core.plan_us", "us"},
    {"cps.perturb_us", "us"},       {"cps.self_us", "us"},
    {"flow.outage_us", "us"},       {"flow.view_us", "us"},
    {"flow.self_us", "us"},         {"lp.outage_us", "us"},
    {"lp.view_us", "us"},           {"lp.us_per_pivot", "us"},
    {"obs.trace_overhead_frac", "frac"},
};

}  // namespace

int SpanRecorder::open(std::string_view name, std::int64_t unit) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_ns(), 0, parent, unit});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

std::int64_t SpanRecorder::count(std::string_view name) const {
  std::int64_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

double SpanRecorder::total_us(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e3;
}

double SpanRecorder::mean_us(std::string_view name) const {
  return ratio(total_us(name), static_cast<double>(count(name)));
}

void SpanRecorder::write_json(std::ostream& os, std::size_t max_spans) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << std::fixed << std::setprecision(3) << '[';
  for (std::size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"unit\":" << s.unit << "}}";
  }
  os << "\n]\n";
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double ms_since(Clock::time_point from) {
  return seconds_between(from, Clock::now()) * 1e3;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : gridsec::percentile(xs, 50.0);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Throughput and CPU cost are medians over the run's rounds, so that a
// burst of host noise in a minority of rounds does not move them. (On a
// shared 4-vCPU Xeon VM the speed of identical work also drifted by up to
// 1.6x over minutes, which no statistic within one run removes.)
void add_end_to_end(const TimedPass& pass, double tail_pct,
                    const std::vector<double>& setup_s, RunResult* out) {
  auto& m = out->metrics;
  m["units_per_s"] = {median(pass.units_per_s), "1/s"};
  m["unit_p50_ms"] = {gridsec::percentile(pass.latency_ms, 50.0), "ms"};
  m["unit_tail_ms"] = {gridsec::percentile(pass.latency_ms, tail_pct), "ms"};
  m["cpu_ms_per_unit"] = {median(pass.cpu_ms_per_unit), "ms"};
  m["setup_s"] = {median(setup_s), "s"};
  m["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  out->attempted = pass.units;
  out->failed = pass.failed;
  out->info["rounds"] = static_cast<double>(pass.units_per_s.size());
  out->info["latency_samples"] = static_cast<double>(pass.latency_ms.size());
  out->info["tail_percentile"] = tail_pct;
}

CounterSnapshot::CounterSnapshot() {
  gridsec::obs::sync_alloc_counters();
  values_ = gridsec::obs::default_registry().counter_values();
}

double CounterSnapshot::since(const CounterSnapshot& before,
                              const std::string& name) const {
  const auto value = [&name](const std::map<std::string, std::int64_t>& m) {
    const auto it = m.find(name);
    return it == m.end() ? std::int64_t{0} : it->second;
  };
  return static_cast<double>(value(values_) - value(before.values_));
}

void add_per_layer_counts(const CounterSnapshot& before,
                          const CounterSnapshot& after, double units,
                          RunResult* out) {
  const auto d = [&](const char* name) { return after.since(before, name); };
  const double games = d("core.game.plays");
  const double matrices = d("cps.impact.matrix_computes");
  const double solves = d("lp.simplex.solves");
  const double pivots = d("lp.simplex.pivots");
  const double warm = d("lp.simplex.warm_starts");
  auto& m = out->metrics;
  m["core.matrices_per_game"] = {ratio(matrices, games), "count"};
  m["core.bnb_nodes_per_game"] = {ratio(d("lp.bnb.nodes"), games), "count"};
  m["core.search_nodes_per_plan"] = {
      ratio(d("core.adversary.search_nodes"), d("core.adversary.plans")),
      "count"};
  m["cps.solves_per_matrix"] = {
      ratio(d("flow.social_welfare.solves"), matrices), "count"};
  m["lp.solves_per_unit"] = {ratio(solves, units), "count"};
  m["lp.pivots_per_solve"] = {ratio(pivots, solves), "count"};
  m["lp.refactors_per_solve"] = {
      ratio(d("lp.simplex.refactorizations"), solves), "count"};
  m["lp.eta_updates_per_solve"] = {
      ratio(d("lp.simplex.eta_updates"), solves), "count"};
  m["lp.bound_flips_per_solve"] = {
      ratio(d("lp.simplex.bound_flips"), solves), "count"};
  m["lp.degenerate_frac"] = {
      ratio(d("lp.simplex.degenerate_pivots"), pivots), "frac"};
  m["lp.warm_reject_frac"] = {
      ratio(d("lp.simplex.warm_start_rejects"), warm), "frac"};
  m["lp.repairs_per_warm"] = {ratio(d("lp.simplex.basis_repairs"), warm),
                              "count"};
  m["lp.numerical_errors"] = {d("lp.simplex.numerical_errors"), "count"};
  m["obs.allocs_per_unit"] = {ratio(d("obs.alloc.count"), units), "count"};
  m["obs.alloc_bytes_per_unit"] = {ratio(d("obs.alloc.bytes"), units), "B"};
  for (const NamedUnit& clock : kClockMetrics) {
    m[clock.name] = {0.0, clock.unit};
  }
}

AuditedPass::AuditedPass()
    : certified_before_(counter_value("obs.audit.certified")) {
  gridsec::obs::arm_audit({});
}

AuditedPass::~AuditedPass() { gridsec::obs::disarm_audit(); }

void AuditedPass::finish(RunResult* out) const {
  out->certified = counter_value("obs.audit.certified") - certified_before_;
  const std::uint64_t failures = gridsec::obs::audit_cert_failure_count();
  if (failures > 0) {
    out->check_errors.push_back(std::to_string(failures) +
                                " solves failed certification");
  }
  if (out->certified == 0) {
    out->check_errors.push_back("the audit hook certified no solve");
  }
}

}  // namespace perfbench
