// Solve certificates and audit bundles: after-the-fact proof that a solver
// answer is right, and a self-contained artifact explaining it when it is
// not.
//
// Three pieces:
//   1. certify() — an independent checker. Given the lp::Problem and the
//      lp::Solution a solver returned, it recomputes primal/dual residuals,
//      complementary slackness and the duality gap from scratch (for MILP:
//      integrality, objective consistency, and BranchAndBoundStats
//      invariants) and renders a verdict. It shares no code with the
//      simplex/B&B pivoting paths, so it doubles as a differential oracle:
//      the test suite certifies every solve it produces.
//   2. AuditBundle — a versioned `gridsec.audit_bundle` JSON artifact that
//      embeds the full problem, the solution, the certificate, the binding
//      constraints with their shadow prices, optional per-actor
//      attribution rows, and the structured-log ring tail. Because the
//      problem itself rides along, `gridsec-inspect --validate` can
//      recompute the certificate independently of the process that wrote
//      the bundle.
//   3. arm_audit() — installs an lp::SolveHook so every solve in the
//      process is certified; solves that end in kNumericalError or
//      kTimeLimit are auto-dumped as bundle files (bounded count), and the
//      first failure plus the most recent solve are retained in memory for
//      `gridsec_cli --audit=FILE`.
//
// Everything here lives in namespace gridsec::obs but is built as the
// separate static library `gridsec_audit`: it must link gridsec_lp, which
// itself links gridsec_obs, so the dependency arrow is audit -> lp -> obs.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "gridsec/lp/problem.hpp"
#include "gridsec/util/error.hpp"

namespace gridsec::obs {

/// Tolerances for the independent checker. All residuals are relative
/// (scaled by 1 + the magnitudes entering the comparison), so the defaults
/// survive the 1e9-range instances the differential fuzzer generates.
struct CertifyOptions {
  double feasibility_tol = 1e-6;  // primal rows + variable bounds
  double dual_tol = 1e-6;         // dual signs, reduced costs, compl. slack
  double duality_gap_tol = 1e-6;  // |primal - dual| / (1 + |p| + |d|)
  /// Ten times the branch and bound's kIntegralityTol (1e-6,
  /// src/lp/milp.cpp): every point the search calls integral passes, and
  /// it snaps incumbents to exact integers anyway.
  double integrality_tol = 1e-5;
  /// The solution is an LP-relaxation answer for a problem that declares
  /// integer variables (a branch-and-bound node LP, or solve_lp called on
  /// a MILP model). Integer variables are checked as continuous: the
  /// integrality and BnB-stats checks are skipped and the LP dual checks
  /// apply. See context_is_relaxation().
  bool relaxation = false;
};

/// True for solve-site contexts whose solutions are LP relaxations
/// ("lp.simplex", "lp.bnb.node") rather than integer-feasible answers
/// ("lp.bnb"). The audit hook, make_audit_bundle, and
/// `gridsec-inspect --validate` all derive CertifyOptions::relaxation
/// through this single rule so a bundle re-verifies consistently.
[[nodiscard]] bool context_is_relaxation(std::string_view context);

enum class CertVerdict {
  kVerified,       // optimal solve; every applicable check passed
  kFeasibleOnly,   // feasibility proven, optimality not claimed/checkable
  kFailed,         // at least one check violated — see violations
  kNotApplicable,  // no point to check (infeasible/unbounded/error verdicts)
};

std::string_view to_string(CertVerdict v);

/// The checker's output. Residuals are the worst relative violation seen
/// for each check family; `violations` carries one human-readable line per
/// failed check (empty iff verdict != kFailed).
struct Certificate {
  CertVerdict verdict = CertVerdict::kNotApplicable;
  bool milp = false;
  double primal_residual = 0.0;        // constraint rows
  double bound_residual = 0.0;         // variable bounds
  double dual_residual = 0.0;          // dual sign conditions
  double reduced_cost_residual = 0.0;  // recomputed vs reported d_j
  double complementary_slackness = 0.0;
  double duality_gap = 0.0;
  double integrality_residual = 0.0;   // MILP only
  double objective_residual = 0.0;     // reported obj vs c'x
  std::vector<std::string> violations;

  /// True when nothing contradicts the solver's answer (kFailed is the
  /// only failing verdict; kNotApplicable is vacuously fine).
  [[nodiscard]] bool ok() const { return verdict != CertVerdict::kFailed; }
};

/// Independently verifies `solution` against `problem`. Never solves
/// anything; O(nnz) arithmetic only. Safe to call concurrently.
[[nodiscard]] Certificate certify(const lp::Problem& problem,
                                  const lp::Solution& solution,
                                  const CertifyOptions& options = {});

/// A constraint active at the solution point, with its shadow price.
struct BindingConstraint {
  int row = -1;
  std::string name;
  std::string sense;    // "<=", ">=", "="
  double activity = 0.0;
  double rhs = 0.0;
  double dual = 0.0;    // 0 when the solution carries no duals
};

/// Rows whose activity meets the rhs within a relative `tol`. Equality
/// rows of a feasible point are always binding.
[[nodiscard]] std::vector<BindingConstraint> binding_constraints(
    const lp::Problem& problem, const lp::Solution& solution,
    double tol = 1e-6);

/// One narrative row attached to a bundle ("actor" -> explanation), e.g.
/// "attacker:substation_4" -> "impact 12.7, within budget 2, selected".
struct AttributionRow {
  std::string key;
  std::string note;
};

/// The versioned audit artifact. schema "gridsec.audit_bundle", version 1.
struct AuditBundle {
  int version = 1;
  std::string context;      // solve site, e.g. "lp.simplex", "lp.bnb"
  std::string trigger;      // "failure", "capture", "manual"
  std::string created_utc;  // ISO8601, filled by make_audit_bundle
  lp::Problem problem;
  lp::Solution solution;
  Certificate certificate;
  std::vector<BindingConstraint> binding;
  std::vector<AttributionRow> attribution;
  std::vector<std::string> log_tail;  // JSONL lines from the logger ring
};

/// Assembles a bundle: runs certify(), extracts binding constraints,
/// snapshots the current attribution rows and the logger ring tail.
[[nodiscard]] AuditBundle make_audit_bundle(
    const lp::Problem& problem, const lp::Solution& solution,
    std::string context, std::string trigger,
    const CertifyOptions& options = {});

void write_audit_bundle(std::ostream& os, const AuditBundle& bundle);
[[nodiscard]] Status write_audit_bundle_file(const std::string& path,
                                             const AuditBundle& bundle);
[[nodiscard]] StatusOr<AuditBundle> parse_audit_bundle(
    const std::string& text);
[[nodiscard]] StatusOr<AuditBundle> read_audit_bundle_file(
    const std::string& path);

/// Process-global attribution rows attached to every subsequently created
/// bundle. The core/CLI layers push narrative context here (which targets
/// the SA picked and why, defender budget splits) before solving.
void set_audit_attribution(std::vector<AttributionRow> rows);
void add_audit_attribution(std::string key, std::string note);
void clear_audit_attribution();
[[nodiscard]] std::vector<AttributionRow> audit_attribution();

/// arm_audit() behaviour knobs.
struct AuditConfig {
  /// Directory for auto-dumped failure bundles (created files are named
  /// audit_fail_<seq>.json). Empty = keep failures in memory only.
  std::string dump_dir;
  /// Upper bound on files written per process; fuzz runs produce
  /// thousands of intentional failures and the first few carry the signal.
  int max_dumps = 16;
  /// Also retain the most recent solve of any status (for --audit=FILE).
  bool capture_all = false;
  CertifyOptions certify;
};

/// Installs the lp::SolveHook: every subsequent LP/MILP solve is
/// certified (counters obs.audit.certified / obs.audit.cert_failures),
/// and solves ending in kNumericalError or kTimeLimit are dumped/retained
/// per `config`. Re-arming replaces the previous configuration.
void arm_audit(AuditConfig config);
/// Uninstalls the hook. Captured bundles remain readable until re-arm.
void disarm_audit();
[[nodiscard]] bool audit_armed();

/// Bundles auto-dumped to files since the last arm_audit().
[[nodiscard]] std::uint64_t audit_dump_count();
/// Certification failures observed by the hook since the last arm_audit().
[[nodiscard]] std::uint64_t audit_cert_failure_count();

/// First failure-triggered bundle since arm (frozen); false when none.
[[nodiscard]] bool first_audit_failure(AuditBundle* out);
/// Most recent solve observed (requires capture_all); false when none.
[[nodiscard]] bool last_audit_capture(AuditBundle* out);

}  // namespace gridsec::obs
