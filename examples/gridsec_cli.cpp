// gridsec_cli — drive the pipeline from a network file.
//
//   gridsec_cli dump        <file>             solve + print dispatch/LMPs
//   gridsec_cli impact      <file>             impact matrix IM[a,t]
//   gridsec_cli attack      <file> [options]   strategic-adversary plan
//   gridsec_cli defend      <file> [options]   attack + defense game
//   gridsec_cli rents       <file>             capacity rents (paper probe)
//   gridsec_cli stackelberg <file> [options]   leader-follower defense
//
// Common options:
//   --actors=N     random 1/N ownership (default 4; ignored when the file
//                  carries `owner` lines)
//   --seed=S       RNG seed (default 1)
//   --targets=K    adversary cardinality cap (default 6)
//   --collab       collaborative defense (defend)
//   --cost=C       per-asset defense cost (defend; default 2000)
//   --budget=B     system defense budget in assets (defend; default 12)
//   --report=FILE  write a gridsec.bench_report run report (provenance
//                  manifest + wall time + metric deltas) to FILE
//   --profile      run under the self-profiler and add its call tree to
//                  the --report file (requires --report; rank it with
//                  gridsec-inspect profile FILE; see docs/observability.md)
//   --time-limit-ms=N  wall-clock budget per solve (LP pivoting, B&B nodes,
//                  adversary search); expiry degrades to the best incumbent
//   --fail-fast    treat any non-optimal solver verdict as a hard error
//                  instead of degrading to budget-limited incumbents
//   --warm-start=off  disable simplex warm starts process-wide (every
//                  solve runs cold); `on` is the default. The A/B switch
//                  for docs/solvers.md's warm-start machinery.
//   --audit=FILE   write a gridsec.audit_bundle for the run to FILE: the
//                  first failing solve if any solve failed, otherwise the
//                  last solve observed, with per-actor attribution rows
//                  attached (inspect with gridsec-inspect)
//
// Network file format: see include/gridsec/flow/io.hpp.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "gridsec/core/game.hpp"
#include "gridsec/core/stackelberg.hpp"
#include "gridsec/flow/io.hpp"
#include "gridsec/flow/marginal_cost.hpp"
#include "gridsec/flow/social_welfare.hpp"
#include "gridsec/lp/basis.hpp"
#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/obs/report.hpp"
#include "gridsec/robust/recovery.hpp"
#include "gridsec/util/table.hpp"

namespace {

using namespace gridsec;

struct CliArgs {
  std::string command;
  std::string file;
  int actors = 4;
  std::uint64_t seed = 1;
  int targets = 6;
  bool collab = false;
  double cost = 2000.0;
  double budget_assets = 12.0;
  bool profile = false;      // add the profiler's tree to the report
  std::string report_file;   // empty = no run report
  std::string audit_file;    // empty = no audit bundle
  double time_limit_ms = 0.0;  // 0 = unlimited
  bool fail_fast = false;
  bool recovery = true;  // --recovery=off leaves the ladder uninstalled
};

/// Impact options with the CLI's wall-clock budget threaded down to every
/// simplex invocation (impact targets, allocation probes, defense MILPs).
cps::ImpactOptions impact_options(const CliArgs& args) {
  cps::ImpactOptions impact;
  impact.allocation.welfare.simplex.time_limit_ms = args.time_limit_ms;
  return impact;
}

int usage() {
  std::fprintf(stderr,
               "usage: gridsec_cli "
               "{dump|impact|attack|defend|rents|stackelberg} <file> "
               "[--actors=N] [--seed=S] [--targets=K] [--collab] "
               "[--cost=C] [--budget=B] [--report=FILE [--profile]] "
               "[--audit=FILE] [--time-limit-ms=N] "
               "[--fail-fast] [--warm-start=on|off] "
               "[--recovery=ladder|off]\n");
  return 2;
}

// Strict numeric parsers: the whole value must parse, or we reject the flag.
bool parse_int(const char* s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  // Reject a leading '-' explicitly: strtoull accepts "-1" and silently
  // wraps it to 2^64-1.
  if (*s == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

cps::Ownership load_ownership(const flow::ParsedNetwork& parsed,
                              const CliArgs& args) {
  if (!parsed.owners.empty()) {
    int max_actor = 0;
    std::vector<int> owners = parsed.owners;
    for (int& o : owners) {
      if (o < 0) o = 0;  // unowned assets default to actor 0
      max_actor = std::max(max_actor, o);
    }
    return cps::Ownership(std::move(owners), max_actor + 1);
  }
  Rng rng(args.seed);
  return cps::Ownership::random(parsed.network.num_edges(), args.actors, rng);
}

int cmd_dump(const flow::ParsedNetwork& parsed, const CliArgs& args) {
  flow::SocialWelfareOptions options;
  options.simplex.time_limit_ms = args.time_limit_ms;
  auto sol = flow::solve_social_welfare(parsed.network, options);
  if (!sol.optimal()) {
    std::fprintf(stderr, "model failed to solve: %s\n",
                 std::string(lp::to_string(sol.status)).c_str());
    return 1;
  }
  Table t({"edge", "capacity", "cost", "loss", "flow"});
  for (int e = 0; e < parsed.network.num_edges(); ++e) {
    const auto& edge = parsed.network.edge(e);
    t.add_row({edge.name, format_double(edge.capacity, 2),
               format_double(edge.cost, 2), format_double(edge.loss, 3),
               format_double(sol.flow[static_cast<std::size_t>(e)], 2)});
  }
  t.print(std::cout);
  std::printf("\nwelfare: %.2f\n", sol.welfare);
  return 0;
}

int cmd_impact(const flow::ParsedNetwork& parsed, const CliArgs& args) {
  auto own = load_ownership(parsed, args);
  auto im = cps::compute_impact_matrix(parsed.network, own,
                                       impact_options(args));
  if (!im.is_ok()) {
    std::fprintf(stderr, "impact failed: %s\n",
                 im.status().to_string().c_str());
    return 1;
  }
  std::vector<std::string> headers{"target", "owner", "system"};
  for (int a = 0; a < own.num_actors(); ++a) {
    headers.push_back("actor" + std::to_string(a));
  }
  Table t(std::move(headers));
  for (int e = 0; e < parsed.network.num_edges(); ++e) {
    std::vector<std::string> row{parsed.network.edge(e).name,
                                 std::to_string(own.owner(e)),
                                 format_double(im->matrix.system_impact(e), 1)};
    for (int a = 0; a < own.num_actors(); ++a) {
      row.push_back(format_double(im->matrix.at(a, e), 1));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  return 0;
}

int cmd_attack(const flow::ParsedNetwork& parsed, const CliArgs& args) {
  auto own = load_ownership(parsed, args);
  auto im = cps::compute_impact_matrix(parsed.network, own,
                                       impact_options(args));
  if (!im.is_ok()) {
    std::fprintf(stderr, "impact failed: %s\n",
                 im.status().to_string().c_str());
    return 1;
  }
  core::AdversaryConfig cfg;
  cfg.max_targets = args.targets;
  cfg.time_limit_ms = args.time_limit_ms;
  core::StrategicAdversary sa(cfg);
  auto plan = sa.plan(im->matrix);
  char note[160];
  std::snprintf(note, sizeof(note),
                "anticipated return %.2f across %zu targets (cap %d)",
                plan.anticipated_return, plan.targets.size(), args.targets);
  obs::add_audit_attribution("attacker", note);
  for (int t : plan.targets) {
    std::snprintf(note, sizeof(note),
                  "selected by SA: system impact %.2f, owner actor %d",
                  im->matrix.system_impact(t), own.owner(t));
    obs::add_audit_attribution(
        "attacker:" + parsed.network.edge(t).name, note);
  }
  if (args.fail_fast && !plan.optimal()) {
    std::fprintf(stderr, "attack plan not optimal (--fail-fast): %s\n",
                 std::string(lp::to_string(plan.status)).c_str());
    return 1;
  }
  std::printf("status: %s\n", std::string(lp::to_string(plan.status)).c_str());
  std::printf("anticipated return: %.2f\n", plan.anticipated_return);
  std::printf("targets:");
  for (int t : plan.targets) {
    std::printf(" %s", parsed.network.edge(t).name.c_str());
  }
  std::printf("\nactor positions:");
  for (int a : plan.actors) std::printf(" %d", a);
  std::printf("\n");
  return 0;
}

int cmd_defend(const flow::ParsedNetwork& parsed, const CliArgs& args) {
  auto own = load_ownership(parsed, args);
  core::GameConfig game;
  game.adversary.max_targets = args.targets;
  game.adversary.time_limit_ms = args.time_limit_ms;
  game.impact = impact_options(args);
  game.collaborative = args.collab;
  game.defender.defense_cost.assign(
      static_cast<std::size_t>(parsed.network.num_edges()), args.cost);
  game.defender.budget.assign(
      static_cast<std::size_t>(own.num_actors()),
      args.budget_assets * args.cost / own.num_actors());
  Rng rng(args.seed);
  auto outcome = core::play_defense_game(parsed.network, own, game, rng);
  if (!outcome.is_ok()) {
    std::fprintf(stderr, "game failed: %s\n",
                 outcome.status().to_string().c_str());
    return 1;
  }
  char note[160];
  std::snprintf(note, sizeof(note),
                "%s defense, adversary gain %.2f -> %.2f (effect %.2f)",
                args.collab ? "collaborative" : "individual",
                outcome->adversary_gain_undefended,
                outcome->adversary_gain_defended,
                outcome->defense_effectiveness);
  obs::add_audit_attribution("defender", note);
  for (int t : outcome->attack.targets) {
    obs::add_audit_attribution("attacker:" + parsed.network.edge(t).name,
                               "in the adversary's target set");
  }
  for (int t = 0; t < parsed.network.num_edges(); ++t) {
    if (!outcome->defense.defended[static_cast<std::size_t>(t)]) continue;
    std::snprintf(note, sizeof(note),
                  "hardened by actor %d at cost %.0f", own.owner(t),
                  args.cost);
    obs::add_audit_attribution("defender:" + parsed.network.edge(t).name,
                               note);
  }
  // The game degrades to budget-limited incumbents by default; --fail-fast
  // promotes any unproven plan to a hard error.
  if (args.fail_fast &&
      (!outcome->defense.optimal() || !outcome->attack.optimal())) {
    std::fprintf(stderr,
                 "non-optimal plan (--fail-fast): defense=%s attack=%s\n",
                 std::string(lp::to_string(outcome->defense.status)).c_str(),
                 std::string(lp::to_string(outcome->attack.status)).c_str());
    return 1;
  }
  if (!outcome->defense.optimal() || !outcome->attack.optimal()) {
    std::printf("status: defense=%s attack=%s\n",
                std::string(lp::to_string(outcome->defense.status)).c_str(),
                std::string(lp::to_string(outcome->attack.status)).c_str());
  }
  std::printf("attack:");
  for (int t : outcome->attack.targets) {
    std::printf(" %s", parsed.network.edge(t).name.c_str());
  }
  std::printf("\ndefended:");
  for (int t = 0; t < parsed.network.num_edges(); ++t) {
    if (outcome->defense.defended[static_cast<std::size_t>(t)]) {
      std::printf(" %s", parsed.network.edge(t).name.c_str());
    }
  }
  std::printf("\nadversary gain undefended: %.2f\n",
              outcome->adversary_gain_undefended);
  std::printf("adversary gain defended:   %.2f\n",
              outcome->adversary_gain_defended);
  std::printf("defense effectiveness:     %.2f\n",
              outcome->defense_effectiveness);
  return 0;
}

int cmd_rents(const flow::ParsedNetwork& parsed) {
  auto base = flow::solve_social_welfare(parsed.network);
  if (!base.optimal()) {
    std::fprintf(stderr, "model failed to solve\n");
    return 1;
  }
  auto rents = flow::probe_capacity_rents(parsed.network, base);
  if (!rents.is_ok()) {
    std::fprintf(stderr, "probe failed: %s\n",
                 rents.status().to_string().c_str());
    return 1;
  }
  Table t({"edge", "flow", "saturated", "marginal_value_per_unit"});
  for (int e = 0; e < parsed.network.num_edges(); ++e) {
    const auto es = static_cast<std::size_t>(e);
    t.add_row({parsed.network.edge(e).name,
               format_double(base.flow[es], 2),
               (*rents)[es].saturated ? "yes" : "no",
               format_double((*rents)[es].marginal_value, 3)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_stackelberg(const flow::ParsedNetwork& parsed, const CliArgs& args) {
  auto own = load_ownership(parsed, args);
  auto im = cps::compute_impact_matrix(parsed.network, own,
                                       impact_options(args));
  if (!im.is_ok()) {
    std::fprintf(stderr, "impact failed: %s\n",
                 im.status().to_string().c_str());
    return 1;
  }
  core::StackelbergConfig cfg;
  cfg.adversary.max_targets = args.targets;
  cfg.adversary.time_limit_ms = args.time_limit_ms;
  cfg.defense_cost = 1.0;
  cfg.budget = args.budget_assets;
  auto plan = core::stackelberg_defense(im->matrix, cfg);
  char note[160];
  std::snprintf(note, sizeof(note),
                "leader spend %.1f over %d rounds: follower value %.2f -> "
                "%.2f",
                plan.spending, plan.rounds, plan.undefended_return,
                plan.follower_return);
  obs::add_audit_attribution("defender", note);
  for (int t : plan.follower_response.targets) {
    obs::add_audit_attribution("attacker:" + parsed.network.edge(t).name,
                               "follower best response target");
  }
  std::printf("undefended follower value: %.2f\n", plan.undefended_return);
  std::printf("defended:");
  for (int t = 0; t < parsed.network.num_edges(); ++t) {
    if (plan.defended[static_cast<std::size_t>(t)]) {
      std::printf(" %s", parsed.network.edge(t).name.c_str());
    }
  }
  std::printf("\nfollower best response:");
  for (int t : plan.follower_response.targets) {
    std::printf(" %s", parsed.network.edge(t).name.c_str());
  }
  std::printf("\nremaining follower value:  %.2f (%d defenses, spend %.1f)\n",
              plan.follower_return, plan.rounds, plan.spending);
  return 0;
}

int run_command(const flow::ParsedNetwork& parsed, const CliArgs& args) {
  if (args.command == "dump") return cmd_dump(parsed, args);
  if (args.command == "impact") return cmd_impact(parsed, args);
  if (args.command == "attack") return cmd_attack(parsed, args);
  if (args.command == "defend") return cmd_defend(parsed, args);
  if (args.command == "rents") return cmd_rents(parsed);
  if (args.command == "stackelberg") return cmd_stackelberg(parsed, args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  CliArgs args;
  args.command = argv[1];
  args.file = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&a](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    bool ok = true;
    if (const char* v = value("--actors=")) {
      ok = parse_int(v, &args.actors);
    } else if (const char* v = value("--seed=")) {
      ok = parse_u64(v, &args.seed);
    } else if (const char* v = value("--targets=")) {
      ok = parse_int(v, &args.targets);
    } else if (const char* v = value("--cost=")) {
      ok = parse_double(v, &args.cost);
    } else if (const char* v = value("--budget=")) {
      ok = parse_double(v, &args.budget_assets);
    } else if (const char* v = value("--report=")) {
      args.report_file = v;
      ok = !args.report_file.empty();
    } else if (const char* v = value("--audit=")) {
      args.audit_file = v;
      ok = !args.audit_file.empty();
    } else if (const char* v = value("--time-limit-ms=")) {
      ok = parse_double(v, &args.time_limit_ms) && args.time_limit_ms >= 0.0;
    } else if (const char* v = value("--warm-start=")) {
      const std::string mode = v;
      ok = mode == "on" || mode == "off";
      if (ok) gridsec::lp::set_warm_start_enabled(mode == "on");
    } else if (const char* v = value("--recovery=")) {
      const std::string mode = v;
      ok = mode == "ladder" || mode == "off";
      args.recovery = mode == "ladder";
    } else if (a == "--collab") {
      args.collab = true;
    } else if (a == "--fail-fast") {
      args.fail_fast = true;
    } else if (a == "--profile") {
      args.profile = true;
    } else {
      std::fprintf(stderr, "gridsec_cli: unknown option '%s'\n", a.c_str());
      return usage();
    }
    if (!ok) {
      std::fprintf(stderr, "gridsec_cli: malformed value in '%s'\n",
                   a.c_str());
      return usage();
    }
  }
  if (args.profile && args.report_file.empty()) {
    std::fprintf(stderr, "gridsec_cli: --profile needs --report=FILE\n");
    return usage();
  }

  // Every LP solve below runs under the numerical-recovery ladder:
  // a solve that hits kNumericalError escalates rung by rung instead of
  // failing the command (--recovery=off reverts to plain failures).
  if (args.recovery) gridsec::robust::install_recovery();

  auto parsed = gridsec::flow::read_network_file(args.file);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "cannot read '%s': %s\n", args.file.c_str(),
                 parsed.status().to_string().c_str());
    return 1;
  }

  gridsec::obs::RunManifest manifest;
  std::map<std::string, std::int64_t> counters_before;
  if (!args.report_file.empty()) {
    manifest = gridsec::obs::RunManifest::capture("gridsec_cli", argc, argv);
    manifest.seed = args.seed;
    gridsec::obs::sync_alloc_counters();
    counters_before = gridsec::obs::default_registry().counter_values();
  }
  const auto run_start = std::chrono::steady_clock::now();
  if (args.profile) gridsec::obs::Profiler::start();

  if (!args.audit_file.empty()) {
    gridsec::obs::clear_audit_attribution();
    gridsec::obs::AuditConfig audit_cfg;
    audit_cfg.capture_all = true;  // always have a bundle to write at exit
    gridsec::obs::arm_audit(std::move(audit_cfg));
  }
  const int rc = run_command(*parsed, args);
  if (args.profile) gridsec::obs::Profiler::stop();
  if (!args.audit_file.empty()) {
    // Prefer the first failing solve (that is the one worth explaining);
    // fall back to the last solve observed. Attribution rows were pushed
    // by the command after the plans were known, so re-attach them here.
    gridsec::obs::AuditBundle bundle;
    const bool have = gridsec::obs::first_audit_failure(&bundle) ||
                      gridsec::obs::last_audit_capture(&bundle);
    gridsec::obs::disarm_audit();
    if (!have) {
      std::fprintf(stderr, "no solve observed; no audit bundle written\n");
    } else {
      bundle.attribution = gridsec::obs::audit_attribution();
      const auto written =
          gridsec::obs::write_audit_bundle_file(args.audit_file, bundle);
      if (!written.is_ok()) {
        std::fprintf(stderr, "cannot write audit bundle: %s\n",
                     written.to_string().c_str());
        return 1;
      }
      std::fprintf(stderr, "audit: %s\n", args.audit_file.c_str());
    }
  }
  if (!args.report_file.empty()) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
    gridsec::obs::RunReport report;
    manifest.wall_time_seconds = elapsed;
    report.manifest = std::move(manifest);
    const double rep_seconds[] = {elapsed};
    gridsec::obs::sync_alloc_counters();
    report.cases.push_back(gridsec::obs::make_case(
        args.command, /*warmup=*/0, rep_seconds, counters_before,
        gridsec::obs::default_registry().counter_values()));
    if (args.profile) report.profile = gridsec::obs::Profiler::snapshot();
    std::ofstream out(args.report_file);
    if (!out) {
      std::fprintf(stderr, "cannot write report to '%s'\n",
                   args.report_file.c_str());
      return 1;
    }
    report.write_json(out);
    std::fprintf(stderr, "report: %s\n", args.report_file.c_str());
  }
  return rc;
}
