// Ruiz row/column equilibration of an LP: the recovery ladder's
// `equilibrated` rung solves the scaled problem, and the scale-invariant
// certificate (robust::certified_optimum) checks answers against it.
#pragma once

#include <vector>

#include "gridsec/lp/problem.hpp"

namespace gridsec::lp {

/// Ruiz row/column equilibration of a Problem: iteratively scales each
/// constraint row by 1/sqrt(max|coef|) and each column likewise until
/// every row and column maximum sits near 1. All factors are rounded to
/// powers of two, so scaling and unscaling are bit-exact in binary
/// floating point — certify() residuals computed on the unscaled solution
/// are residuals of the *original* problem, not a rescaled proxy.
///
/// Contract (r_i = row factor, c_j = column factor, both > 0):
///   scaled coefficient  a'_ij = r_i · a_ij · c_j
///   scaled rhs          b'_i  = r_i · b_i        (senses unchanged)
///   scaled bounds       l_j/c_j ≤ x'_j ≤ u_j/c_j (+inf stays +inf)
///   scaled objective    obj'_j = obj_j · c_j
/// so x'_j = x_j / c_j and the objective value is identical on both
/// problems. unscale() maps x_j = c_j·x'_j, duals y_i = r_i·y'_i, reduced
/// costs d_j = d'_j / c_j; basis statuses transfer unchanged (scaling by
/// positive factors preserves which bound a variable rests at).
///
/// Integrality markers are copied but NOT respected: a scaled integer
/// column's lattice is no longer Z, so equilibrate only serves continuous
/// (re)solves — the recovery ladder's equilibrated rung and LP
/// relaxations. The scaled problem must not be fed to the MILP solver.
class Equilibrated {
 public:
  /// The scaled problem; solve it, then map back with unscale().
  [[nodiscard]] const Problem& scaled() const { return scaled_; }
  /// False when every factor rounded to 1 — the problem was already
  /// well-scaled and scaled() is a plain copy.
  [[nodiscard]] bool scaled_any() const { return scaled_any_; }
  [[nodiscard]] const std::vector<double>& row_scale() const {
    return row_scale_;
  }
  [[nodiscard]] const std::vector<double>& col_scale() const {
    return col_scale_;
  }

  /// Maps a solution of scaled() back to the original problem's space
  /// (primal, duals, reduced costs; status/iterations/basis/objective
  /// pass through — the objective is bit-identical by the power-of-two
  /// construction).
  [[nodiscard]] Solution unscale(const Solution& scaled_solution) const;

  /// The exact inverse of unscale(): maps an original-space solution into
  /// scaled() space (unscale(rescale(s)) == s bit-for-bit, powers of two).
  /// This is how scale-invariant certification works: a constraint row
  /// scaled down to ~1e-12 hides its violations below certify()'s
  /// relative tolerances, but on the equilibrated problem every row is
  /// O(1), so certifying rescale(s) against scaled() sees them.
  [[nodiscard]] Solution rescale(const Solution& original_solution) const;

 private:
  friend Equilibrated equilibrate(const Problem& problem);

  Problem scaled_;
  std::vector<double> row_scale_;
  std::vector<double> col_scale_;
  bool scaled_any_ = false;
};

/// Computes the Ruiz equilibration of `problem` (see Equilibrated): at
/// most ten sweeps, each over rows then columns.
Equilibrated equilibrate(const Problem& problem);

}  // namespace gridsec::lp
