// gridsec-inspect — render and validate gridsec.audit_bundle artifacts and
// rank the self-profile a run report carries.
//
//   gridsec-inspect [options] BUNDLE.json         human-readable solve narrative
//   gridsec-inspect --validate BUNDLE.json        recompute the certificate
//   gridsec-inspect profile [options] REPORT.json rank phases by exclusive cost
//
// Profile mode options:
//   --top=N             rows to show (default 10)
//   --weight=W          ranking weight: wall (default), cpu, allocs, bytes
//
// Rendering explains a solve after the fact: what was solved, what the
// solver answered, which constraints were binding (and their shadow
// prices), the per-actor attribution the pipeline attached (why the SA
// picked its target set, how the defender split its budget), the
// certificate verdict, and the structured-log tail leading up to the solve.
//
// --validate does not trust the stored certificate: the bundle embeds the
// full problem and solution, so the certificate is recomputed from scratch
// and compared against the recorded verdict.
//
// Options:
//   --tail=N    log lines to show (default 10; 0 = none)
//   --quiet     suppress the log tail and non-binding detail
//
// Exit codes mirror gridsec-benchdiff: 0 = bundle is valid (and, under
// --validate, the recomputed certificate passes), 1 = bundle parses but
// the certificate fails, 2 = usage or parse error (profile mode: also a
// report recorded without --profile).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/report.hpp"
#include "gridsec/util/table.hpp"

namespace {

using namespace gridsec;

int usage() {
  std::fprintf(
      stderr,
      "usage: gridsec-inspect [--tail=N] [--quiet] BUNDLE.json\n"
      "       gridsec-inspect --validate BUNDLE.json\n"
      "       gridsec-inspect profile [--top=N] "
      "[--weight=wall|cpu|allocs|bytes] REPORT.json\n");
  return 2;
}

bool parse_size_flag(const char* s, std::size_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || std::strchr(s, '-') != nullptr) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

void print_summary(const obs::AuditBundle& b) {
  const lp::Problem& p = b.problem;
  const lp::Solution& s = b.solution;
  std::printf("audit bundle v%d — context %s, trigger %s, created %s\n",
              b.version, b.context.c_str(), b.trigger.c_str(),
              b.created_utc.c_str());
  std::printf(
      "problem: %s %d vars (%s), %d constraints\n",
      p.objective() == lp::Objective::kMaximize ? "maximize" : "minimize",
      p.num_variables(),
      p.has_integer_variables() ? "mixed-integer" : "continuous",
      p.num_constraints());
  std::printf("solve:   status %s, objective %.9g, %ld pivots\n",
              std::string(lp::to_string(s.status)).c_str(), s.objective,
              s.iterations);
  if (s.bnb.nodes_explored > 0 || s.bnb.lp_solves > 0) {
    std::printf(
        "         branch-and-bound: %ld nodes, %ld LP solves, %ld "
        "incumbent updates\n",
        s.bnb.nodes_explored, s.bnb.lp_solves, s.bnb.incumbent_updates);
  }
  if (!s.recovery_trail.empty()) {
    std::printf("recovery ladder (%zu rungs attempted):\n",
                s.recovery_trail.size());
    for (std::size_t i = 0; i < s.recovery_trail.size(); ++i) {
      const lp::RecoveryStepInfo& step = s.recovery_trail[i];
      std::printf("  %zu. %-14s %-16s %s\n", i + 1, step.rung.c_str(),
                  std::string(lp::to_string(step.status)).c_str(),
                  step.certified ? "certified — answer adopted" : "");
    }
  }
}

void print_certificate(const obs::Certificate& c, const char* label) {
  std::printf("%s: %s%s\n", label,
              std::string(obs::to_string(c.verdict)).c_str(),
              c.milp ? " (milp)" : "");
  Table t({"check", "residual"});
  t.add_row({"primal feasibility", format_double(c.primal_residual, 3)});
  t.add_row({"variable bounds", format_double(c.bound_residual, 3)});
  if (!c.milp) {
    t.add_row({"dual signs", format_double(c.dual_residual, 3)});
    t.add_row({"reduced costs", format_double(c.reduced_cost_residual, 3)});
    t.add_row(
        {"complementary slackness", format_double(c.complementary_slackness, 3)});
    t.add_row({"duality gap", format_double(c.duality_gap, 3)});
  } else {
    t.add_row({"integrality", format_double(c.integrality_residual, 3)});
  }
  t.add_row({"objective consistency", format_double(c.objective_residual, 3)});
  t.print(std::cout);
  for (const std::string& v : c.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
}

void print_binding(const obs::AuditBundle& b) {
  if (b.binding.empty()) {
    std::printf("\nbinding constraints: none\n");
    return;
  }
  std::printf("\nbinding constraints (%zu):\n", b.binding.size());
  Table t({"row", "name", "sense", "rhs", "shadow price"});
  constexpr std::size_t kMaxRows = 24;
  for (std::size_t i = 0; i < b.binding.size() && i < kMaxRows; ++i) {
    const obs::BindingConstraint& bc = b.binding[i];
    t.add_row({std::to_string(bc.row), bc.name, bc.sense,
               format_double(bc.rhs, 4), format_double(bc.dual, 6)});
  }
  t.print(std::cout);
  if (b.binding.size() > kMaxRows) {
    std::printf("  ... %zu more binding rows elided\n",
                b.binding.size() - kMaxRows);
  }
}

void print_attribution(const obs::AuditBundle& b) {
  if (b.attribution.empty()) return;
  std::printf("\nattribution:\n");
  for (const obs::AttributionRow& row : b.attribution) {
    std::printf("  %-28s %s\n", row.key.c_str(), row.note.c_str());
  }
}

void print_log_tail(const obs::AuditBundle& b, std::size_t tail) {
  if (tail == 0 || b.log_tail.empty()) return;
  const std::size_t n = std::min(tail, b.log_tail.size());
  std::printf("\nlog tail (last %zu of %zu records):\n", n,
              b.log_tail.size());
  for (std::size_t i = b.log_tail.size() - n; i < b.log_tail.size(); ++i) {
    std::printf("  %s\n", b.log_tail[i].c_str());
  }
}

bool parse_weight(const std::string& s, obs::ProfileWeight* out) {
  if (s == "wall") *out = obs::ProfileWeight::kWallMicros;
  else if (s == "cpu") *out = obs::ProfileWeight::kCpuMicros;
  else if (s == "allocs") *out = obs::ProfileWeight::kAllocCount;
  else if (s == "bytes") *out = obs::ProfileWeight::kAllocBytes;
  else return false;
  return true;
}

const char* weight_column(obs::ProfileWeight w) {
  switch (w) {
    case obs::ProfileWeight::kWallMicros: return "excl wall (us)";
    case obs::ProfileWeight::kCpuMicros: return "excl cpu (us)";
    case obs::ProfileWeight::kAllocCount: return "allocs";
    case obs::ProfileWeight::kAllocBytes: return "alloc bytes";
  }
  return "?";
}

int cmd_profile(int argc, char** argv) {
  std::size_t top = 10;
  obs::ProfileWeight weight = obs::ProfileWeight::kWallMicros;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.compare(0, 6, "--top=") == 0) {
      if (!parse_size_flag(a.c_str() + 6, &top)) return usage();
    } else if (a.compare(0, 9, "--weight=") == 0) {
      if (!parse_weight(a.substr(9), &weight)) return usage();
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "gridsec-inspect: unknown option '%s'\n",
                   a.c_str());
      return usage();
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 1) return usage();

  std::ifstream in(files[0]);
  if (!in) {
    std::fprintf(stderr, "gridsec-inspect: cannot open '%s'\n",
                 files[0].c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const StatusOr<obs::RunReport> loaded = obs::parse_report(buf.str());
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "gridsec-inspect: %s: %s\n", files[0].c_str(),
                 loaded.status().to_string().c_str());
    return 2;
  }
  if (!loaded->profile) {
    std::fprintf(stderr,
                 "gridsec-inspect: %s: report has no profile (record the "
                 "run with --profile)\n",
                 files[0].c_str());
    return 2;
  }
  const obs::Profile& p = *loaded->profile;

  std::printf("profile of %s — %lld recording thread%s\n",
              loaded->manifest.tool.c_str(),
              static_cast<long long>(p.threads), p.threads == 1 ? "" : "s");

  std::vector<obs::ProfileRow> rows = obs::flatten_profile(p);
  std::stable_sort(rows.begin(), rows.end(),
                   [weight](const obs::ProfileRow& a,
                            const obs::ProfileRow& b) {
                     return obs::profile_weight_value(*a.node, weight) >
                            obs::profile_weight_value(*b.node, weight);
                   });
  std::printf("\ntop phases by %s:\n", weight_column(weight));
  Table t({"phase", "count", "excl wall (us)", "incl wall (us)",
           "excl cpu (us)", "allocs", "alloc bytes"});
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    const obs::ProfileNode& n = *rows[i].node;
    t.add_row({rows[i].path, std::to_string(n.count),
               std::to_string(n.excl_wall_ns / 1000),
               std::to_string(n.wall_ns / 1000),
               std::to_string(n.excl_cpu_ns / 1000),
               std::to_string(n.alloc_count),
               std::to_string(n.alloc_bytes)});
  }
  t.print(std::cout);
  if (rows.size() > top) {
    std::printf("  ... %zu more phases elided (--top=N)\n",
                rows.size() - top);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "profile") == 0) {
    return cmd_profile(argc, argv);
  }
  bool validate_only = false;
  bool quiet = false;
  std::size_t tail = 10;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.compare(0, 7, "--tail=") == 0) {
      if (!parse_size_flag(a.c_str() + 7, &tail)) return usage();
    } else if (a == "--validate") {
      validate_only = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "gridsec-inspect: unknown option '%s'\n",
                   a.c_str());
      return usage();
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 1) return usage();

  const StatusOr<obs::AuditBundle> loaded =
      obs::read_audit_bundle_file(files[0]);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "gridsec-inspect: %s: %s\n", files[0].c_str(),
                 loaded.status().to_string().c_str());
    return 2;
  }
  const obs::AuditBundle& bundle = loaded.value();

  if (validate_only) {
    // Recompute from the embedded problem + solution; never trust the
    // stored verdict. The context decides whether integer variables were
    // relaxed at this solve site (the same rule the writer applied).
    obs::CertifyOptions opts;
    opts.relaxation = obs::context_is_relaxation(bundle.context);
    const obs::Certificate fresh =
        obs::certify(bundle.problem, bundle.solution, opts);
    std::printf("%s: parsed gridsec.audit_bundle v%d (context %s)\n",
                files[0].c_str(), bundle.version, bundle.context.c_str());
    print_certificate(fresh, "recomputed certificate");
    if (fresh.verdict != bundle.certificate.verdict) {
      std::printf(
          "note: stored verdict was '%s' — recomputation disagrees\n",
          std::string(obs::to_string(bundle.certificate.verdict)).c_str());
    }
    if (!fresh.ok()) {
      std::printf("verdict: CERTIFICATE FAILED\n");
      return 1;
    }
    std::printf("verdict: OK\n");
    return 0;
  }

  print_summary(bundle);
  std::printf("\n");
  print_certificate(bundle.certificate, "certificate");
  if (!quiet) {
    print_binding(bundle);
    print_attribution(bundle);
    print_log_tail(bundle, tail);
  }
  return bundle.certificate.ok() ? 0 : 1;
}
