// Tests for gridsec::obs solve certificates and audit bundles: the
// independent checker on known LPs/MILPs (including deliberately corrupted
// solutions), bundle JSON round-trips, and the armed hook auto-dumping
// bundles from failed solves — standalone and from inside a fault-injected
// Monte-Carlo sweep.
#include "gridsec/obs/audit.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/lp/milp.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/robust/faultinject.hpp"
#include "gridsec/sim/montecarlo.hpp"

namespace obs = gridsec::obs;
namespace lp = gridsec::lp;
namespace fs = std::filesystem;

namespace {

// max 3x + 2y  s.t.  x + y <= 4,  x <= 2,  y <= 3,  x,y >= 0.
// Optimum x=2, y=2, objective 10; rows 0 and 1 bind, row 2 is slack.
lp::Problem small_lp() {
  lp::Problem p(lp::Objective::kMaximize);
  const int x = p.add_variable("x", 0.0, lp::kInfinity, 3.0);
  const int y = p.add_variable("y", 0.0, lp::kInfinity, 2.0);
  p.add_constraint("cap", lp::LinearExpr().add(x, 1.0).add(y, 1.0),
                   lp::Sense::kLessEqual, 4.0);
  p.add_constraint("x_cap", lp::LinearExpr().add(x, 1.0),
                   lp::Sense::kLessEqual, 2.0);
  p.add_constraint("y_cap", lp::LinearExpr().add(y, 1.0),
                   lp::Sense::kLessEqual, 3.0);
  return p;
}

// Knapsack: max 5a + 4b + 3c  s.t.  2a + 3b + c <= 3, binaries.
// Optimum a=1, c=1, objective 8.
lp::Problem small_milp() {
  lp::Problem p(lp::Objective::kMaximize);
  const int a = p.add_binary("a", 5.0);
  const int b = p.add_binary("b", 4.0);
  const int c = p.add_binary("c", 3.0);
  p.add_constraint(
      "w", lp::LinearExpr().add(a, 2.0).add(b, 3.0).add(c, 1.0),
      lp::Sense::kLessEqual, 3.0);
  return p;
}

// An LP validate_problem rejects: NaN objective coefficient.
lp::Problem poisoned_lp() {
  lp::Problem p(lp::Objective::kMinimize);
  p.add_variable("x", 0.0, 1.0, std::nan(""));
  return p;
}

// Re-arm the suite-wide configuration installed by certify_all.cpp after a
// test replaced it (re-arming resets the failure/dump counters, which is
// exactly what the tests below rely on).
void rearm_suite_audit() {
  obs::AuditConfig cfg;
  if (const char* dir = std::getenv("GRIDSEC_AUDIT_DIR")) cfg.dump_dir = dir;
  obs::arm_audit(std::move(cfg));
}

TEST(Certify, VerifiesCorrectLpSolve) {
  const lp::Problem p = small_lp();
  const lp::Solution sol = lp::solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);

  const obs::Certificate cert = obs::certify(p, sol);
  EXPECT_EQ(cert.verdict, obs::CertVerdict::kVerified);
  EXPECT_FALSE(cert.milp);
  EXPECT_TRUE(cert.ok());
  EXPECT_TRUE(cert.violations.empty());
  EXPECT_LE(cert.primal_residual, 1e-6);
  EXPECT_LE(cert.dual_residual, 1e-6);
  EXPECT_LE(cert.duality_gap, 1e-6);
  EXPECT_LE(cert.objective_residual, 1e-6);
}

TEST(Certify, VerifiesCorrectMilpSolve) {
  const lp::Problem p = small_milp();
  const lp::Solution sol = lp::solve_milp(p);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 8.0, 1e-9);

  const obs::Certificate cert = obs::certify(p, sol);
  EXPECT_EQ(cert.verdict, obs::CertVerdict::kVerified);
  EXPECT_TRUE(cert.milp);
  EXPECT_LE(cert.integrality_residual, 1e-5);
  EXPECT_TRUE(cert.ok());
}

TEST(Certify, RelaxationOptionAcceptsFractionalIntegers) {
  // solve_lp on a MILP model answers the LP relaxation (B&B node solves
  // report through the "lp.simplex" hook context the same way): declared
  // integers may legitimately come back fractional and the dual checks
  // apply instead.
  lp::Problem p(lp::Objective::kMaximize);
  const int a = p.add_binary("a", 1.0);
  p.add_constraint("half", lp::LinearExpr().add(a, 2.0),
                   lp::Sense::kLessEqual, 1.0);  // relaxation optimum a=0.5
  const lp::Solution sol = lp::solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  ASSERT_NEAR(sol.x[0], 0.5, 1e-9);

  obs::CertifyOptions opts;
  EXPECT_EQ(obs::certify(p, sol, opts).verdict, obs::CertVerdict::kFailed);
  opts.relaxation = true;
  const obs::Certificate cert = obs::certify(p, sol, opts);
  EXPECT_EQ(cert.verdict, obs::CertVerdict::kVerified);
  EXPECT_FALSE(cert.milp);

  EXPECT_TRUE(obs::context_is_relaxation("lp.simplex"));
  EXPECT_TRUE(obs::context_is_relaxation("lp.bnb.node"));
  EXPECT_FALSE(obs::context_is_relaxation("lp.bnb"));
}

TEST(Certify, CatchesTamperedPrimal) {
  const lp::Problem p = small_lp();
  lp::Solution sol = lp::solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  sol.x[0] += 1.0;  // x=3 violates both x<=2 and x+y<=4

  const obs::Certificate cert = obs::certify(p, sol);
  EXPECT_EQ(cert.verdict, obs::CertVerdict::kFailed);
  EXPECT_FALSE(cert.ok());
  EXPECT_GT(cert.primal_residual, 1e-6);
  EXPECT_FALSE(cert.violations.empty());
}

TEST(Certify, CatchesTamperedObjective) {
  const lp::Problem p = small_lp();
  lp::Solution sol = lp::solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  sol.objective += 0.5;

  const obs::Certificate cert = obs::certify(p, sol);
  EXPECT_EQ(cert.verdict, obs::CertVerdict::kFailed);
  EXPECT_GT(cert.objective_residual, 1e-6);
}

TEST(Certify, CatchesTamperedDuals) {
  const lp::Problem p = small_lp();
  lp::Solution sol = lp::solve_lp(p);
  ASSERT_TRUE(sol.optimal());
  ASSERT_FALSE(sol.duals.empty());
  // Inflate every shadow price: breaks the duality gap (and with it the
  // dual-side checks the certificate recomputes from scratch).
  for (double& d : sol.duals) d = d * 3.0 + 1.0;

  const obs::Certificate cert = obs::certify(p, sol);
  EXPECT_EQ(cert.verdict, obs::CertVerdict::kFailed);
}

TEST(Certify, CatchesTamperedMilpIntegrality) {
  const lp::Problem p = small_milp();
  lp::Solution sol = lp::solve_milp(p);
  ASSERT_TRUE(sol.optimal());
  sol.x[1] = 0.5;  // fractional binary

  const obs::Certificate cert = obs::certify(p, sol);
  EXPECT_EQ(cert.verdict, obs::CertVerdict::kFailed);
  EXPECT_GT(cert.integrality_residual, 1e-5);
}

TEST(Certify, InfeasibleVerdictIsNotApplicable) {
  lp::Problem p(lp::Objective::kMinimize);
  const int x = p.add_variable("x", 0.0, lp::kInfinity, 1.0);
  p.add_constraint("lo", lp::LinearExpr().add(x, 1.0),
                   lp::Sense::kGreaterEqual, 2.0);
  p.add_constraint("hi", lp::LinearExpr().add(x, 1.0),
                   lp::Sense::kLessEqual, 1.0);
  const lp::Solution sol = lp::solve_lp(p);
  ASSERT_EQ(sol.status, lp::SolveStatus::kInfeasible);

  const obs::Certificate cert = obs::certify(p, sol);
  EXPECT_EQ(cert.verdict, obs::CertVerdict::kNotApplicable);
  EXPECT_TRUE(cert.ok());
}

TEST(BindingConstraints, ReportsActiveRowsWithShadowPrices) {
  const lp::Problem p = small_lp();
  const lp::Solution sol = lp::solve_lp(p);
  ASSERT_TRUE(sol.optimal());

  const std::vector<obs::BindingConstraint> binding =
      obs::binding_constraints(p, sol);
  ASSERT_EQ(binding.size(), 2u);  // cap and x_cap bind; y_cap has slack
  EXPECT_EQ(binding[0].name, "cap");
  EXPECT_EQ(binding[0].sense, "<=");
  EXPECT_NEAR(binding[0].activity, 4.0, 1e-9);
  EXPECT_NEAR(binding[0].rhs, 4.0, 1e-9);
  EXPECT_NEAR(binding[0].dual, 2.0, 1e-6);  // marginal value of capacity
  EXPECT_EQ(binding[1].name, "x_cap");
  EXPECT_NEAR(binding[1].dual, 1.0, 1e-6);
}

TEST(AuditBundle, JsonRoundTripPreservesEverything) {
  const lp::Problem p = small_lp();
  const lp::Solution sol = lp::solve_lp(p);
  ASSERT_TRUE(sol.optimal());

  obs::clear_audit_attribution();
  obs::add_audit_attribution("attacker", "picked 2 targets");
  obs::add_audit_attribution("defender:edge_3", "hardened, cost 1.5");
  obs::AuditBundle bundle =
      obs::make_audit_bundle(p, sol, "lp.simplex", "manual");
  obs::clear_audit_attribution();

  std::ostringstream os;
  obs::write_audit_bundle(os, bundle);
  const auto parsed = obs::parse_audit_bundle(os.str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  const obs::AuditBundle& back = parsed.value();

  EXPECT_EQ(back.version, 1);
  EXPECT_EQ(back.context, "lp.simplex");
  EXPECT_EQ(back.trigger, "manual");
  EXPECT_EQ(back.created_utc, bundle.created_utc);
  ASSERT_EQ(back.problem.num_variables(), p.num_variables());
  ASSERT_EQ(back.problem.num_constraints(), p.num_constraints());
  EXPECT_EQ(back.problem.objective(), lp::Objective::kMaximize);
  EXPECT_EQ(back.problem.variable(0).name, "x");
  EXPECT_EQ(back.problem.constraint(1).name, "x_cap");
  EXPECT_DOUBLE_EQ(back.problem.constraint(0).rhs, 4.0);
  EXPECT_EQ(back.solution.status, lp::SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(back.solution.objective, sol.objective);
  ASSERT_EQ(back.solution.x.size(), sol.x.size());
  EXPECT_DOUBLE_EQ(back.solution.x[0], sol.x[0]);
  ASSERT_EQ(back.solution.duals.size(), sol.duals.size());
  EXPECT_EQ(back.certificate.verdict, obs::CertVerdict::kVerified);
  EXPECT_EQ(back.binding.size(), bundle.binding.size());
  ASSERT_EQ(back.attribution.size(), 2u);
  EXPECT_EQ(back.attribution[0].key, "attacker");
  EXPECT_EQ(back.attribution[1].note, "hardened, cost 1.5");
  EXPECT_EQ(back.log_tail.size(), bundle.log_tail.size());
}

TEST(AuditBundle, RecertifyingAParsedBundleMatches) {
  const lp::Problem p = small_milp();
  const lp::Solution sol = lp::solve_milp(p);
  ASSERT_TRUE(sol.optimal());
  const obs::AuditBundle bundle =
      obs::make_audit_bundle(p, sol, "lp.bnb", "manual");

  std::ostringstream os;
  obs::write_audit_bundle(os, bundle);
  const auto parsed = obs::parse_audit_bundle(os.str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();

  // The embedded problem + solution must recertify to the same verdict —
  // this is what `gridsec-inspect --validate` does.
  const obs::Certificate fresh =
      obs::certify(parsed.value().problem, parsed.value().solution);
  EXPECT_EQ(fresh.verdict, bundle.certificate.verdict);
  EXPECT_TRUE(fresh.ok());
}

TEST(AuditBundle, ParserRejectsForeignJson) {
  EXPECT_FALSE(obs::parse_audit_bundle("{}").is_ok());
  EXPECT_FALSE(obs::parse_audit_bundle("not json").is_ok());
  EXPECT_FALSE(
      obs::parse_audit_bundle("{\"schema\":\"something.else\",\"version\":1}")
          .is_ok());
}

TEST(AuditBundle, FileRoundTrip) {
  const lp::Problem p = small_lp();
  const lp::Solution sol = lp::solve_lp(p);
  const obs::AuditBundle bundle =
      obs::make_audit_bundle(p, sol, "lp.simplex", "manual");
  const std::string path = ::testing::TempDir() + "audit_roundtrip.json";

  ASSERT_TRUE(obs::write_audit_bundle_file(path, bundle).is_ok());
  const auto back = obs::read_audit_bundle_file(path);
  ASSERT_TRUE(back.is_ok()) << back.status().message();
  EXPECT_EQ(back.value().context, "lp.simplex");
  fs::remove(path);
}

TEST(ArmedAudit, DumpsBundleOnNumericalError) {
  const fs::path dir = fs::path(::testing::TempDir()) / "audit_dump_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  obs::AuditConfig cfg;
  cfg.dump_dir = dir.string();
  obs::arm_audit(cfg);
  ASSERT_TRUE(obs::audit_armed());

  const lp::Solution sol = lp::solve_lp(poisoned_lp());
  EXPECT_EQ(sol.status, lp::SolveStatus::kNumericalError);
  EXPECT_GE(obs::audit_dump_count(), 1u);

  obs::AuditBundle first;
  ASSERT_TRUE(obs::first_audit_failure(&first));
  EXPECT_EQ(first.trigger, "failure");
  EXPECT_EQ(first.context, "lp.simplex");
  EXPECT_EQ(first.solution.status, lp::SolveStatus::kNumericalError);

  std::size_t parseable = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto parsed = obs::read_audit_bundle_file(entry.path().string());
    EXPECT_TRUE(parsed.is_ok())
        << entry.path() << ": " << parsed.status().message();
    if (parsed.is_ok()) ++parseable;
  }
  EXPECT_GE(parseable, 1u);

  fs::remove_all(dir);
  rearm_suite_audit();
}

TEST(ArmedAudit, MaxDumpsBoundsFilesWritten) {
  const fs::path dir = fs::path(::testing::TempDir()) / "audit_maxdump_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  obs::AuditConfig cfg;
  cfg.dump_dir = dir.string();
  cfg.max_dumps = 2;
  obs::arm_audit(cfg);
  for (int i = 0; i < 5; ++i) (void)lp::solve_lp(poisoned_lp());
  EXPECT_EQ(obs::audit_dump_count(), 2u);

  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);

  fs::remove_all(dir);
  rearm_suite_audit();
}

TEST(ArmedAudit, FaultInjectedMonteCarloAutoDumpsBundle) {
  const fs::path dir = fs::path(::testing::TempDir()) / "audit_mc_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  obs::AuditConfig cfg;
  cfg.dump_dir = dir.string();
  obs::arm_audit(cfg);

  // 6 seeded trials; even trials get a NaN cost injected, so their solves
  // end in kNumericalError and the armed hook dumps a bundle.
  constexpr std::uint64_t kSweepSeed = 0xC0FFEE;
  const auto results = gridsec::sim::run_trials<double>(
      /*pool=*/nullptr, /*n=*/6, kSweepSeed,
      [](std::size_t trial, gridsec::Rng& rng) -> gridsec::StatusOr<double> {
        lp::Problem p = small_lp();
        if (trial % 2 == 0) {
          gridsec::robust::FaultInjector injector(rng.next());
          injector.inject(p, gridsec::robust::FaultKind::kNanCost);
        }
        const lp::Solution sol = lp::solve_lp(p);
        if (!sol.optimal()) return lp::to_status(sol.status, "audit_mc_test");
        return sol.objective;
      });

  EXPECT_EQ(results.failures.size(), 3u);
  for (std::size_t i = 0; i < results.results.size(); ++i) {
    EXPECT_EQ(results.results[i].has_value(), i % 2 == 1) << i;
  }
  EXPECT_GE(obs::audit_dump_count(), 1u);

  std::size_t parseable = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto parsed = obs::read_audit_bundle_file(entry.path().string());
    ASSERT_TRUE(parsed.is_ok())
        << entry.path() << ": " << parsed.status().message();
    EXPECT_EQ(parsed.value().solution.status,
              lp::SolveStatus::kNumericalError);
    ++parseable;
  }
  EXPECT_GE(parseable, 1u);

  fs::remove_all(dir);
  rearm_suite_audit();
}

TEST(Attribution, GlobalRowsRoundTrip) {
  obs::clear_audit_attribution();
  EXPECT_TRUE(obs::audit_attribution().empty());
  obs::add_audit_attribution("a", "first");
  obs::set_audit_attribution({{"b", "second"}, {"c", "third"}});
  const auto rows = obs::audit_attribution();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "b");
  EXPECT_EQ(rows[1].note, "third");
  obs::clear_audit_attribution();
}

}  // namespace
