// Simplex basis state and incremental basis factorization.
//
// Two pieces that together make the solver warm-startable:
//
//   1. Basis — the combinatorial part of a simplex solution: one
//      kBasic/kAtLower/kAtUpper status per structural variable and per
//      constraint row (a row is kBasic when its slack — or, degenerately,
//      its artificial — is basic). It is tiny, copyable, and serializable
//      (`to_string`/`parse_basis`), so it can ride on lp::Solution, be
//      passed back in via SimplexOptions::warm_start, and be recorded in
//      audit bundles. A stale or incompatible basis is never an error:
//      the solver crash-selects an independent basis from it and finishes
//      with dual simplex pivots, or solves cold (see docs/solvers.md).
//
//   2. BasisFactorization — an LU factorization of the m x m basis matrix
//      B (partial pivoting), kept current across pivots by product-form
//      eta updates instead of refactorizing from scratch. A pivot that
//      replaces the basic column in row p with an entering column whose
//      ftran image is w appends the eta (p, w); ftran/btran then apply
//      the base LU solve plus the eta chain. The factorization is rebuilt
//      ("refactorized") from B's sparse columns when the eta chain grows
//      past a threshold or an update pivot is too small to be trusted.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gridsec/util/error.hpp"

namespace gridsec::lp {

/// Status of one variable (or constraint row) in a simplex basis.
enum class VarStatus : unsigned char { kBasic, kAtLower, kAtUpper };

/// The combinatorial state of a simplex solution: per-structural-variable
/// and per-row statuses. Empty vectors mean "no basis available".
struct Basis {
  std::vector<VarStatus> variables;
  std::vector<VarStatus> rows;

  [[nodiscard]] bool empty() const {
    return variables.empty() && rows.empty();
  }

  bool operator==(const Basis& rhs) const = default;
};

/// Compact text form, e.g. "v:BLU|r:LB" (B=basic, L=at-lower, U=at-upper).
/// An empty basis serializes to "v:|r:".
[[nodiscard]] std::string to_string(const Basis& basis);

/// Parses the `to_string` form. Unknown status letters or a malformed
/// frame yield kInvalidArgument.
[[nodiscard]] StatusOr<Basis> parse_basis(std::string_view text);

/// Process-global warm-start kill switch (default: enabled). When
/// disabled, every solver ignores SimplexOptions::warm_start and solves
/// cold — the `gridsec_cli --warm-start=off` escape hatch for A/B
/// debugging. Thread-safe (relaxed atomic).
void set_warm_start_enabled(bool enabled);
[[nodiscard]] bool warm_start_enabled();

/// One stored nonzero of a sparse column: its row and value.
struct ColumnEntry {
  int row;
  double val;
};

/// LU factorization of a basis matrix with product-form (eta) updates.
///
/// Conventions: refactorize() computes P*B = L*U with partial pivoting.
/// update(p, w) records that the basic column in position p was replaced
/// by a column a_q with w = B^{-1} a_q (w computed via ftran *before* the
/// update) — i.e. B_new = B_old * E where E is the identity with column p
/// replaced by w. ftran/btran then solve against B_new without touching
/// the LU factors.
///
/// Sparsity: refactorize() reads B's nonzeros column by column and
/// eliminates over them. Its pivot rule is the dense loop's: in column k,
/// the first row, in current row order, with a strictly larger |value|.
/// Each elimination step visits only the rows with a nonzero in column k
/// and the pivot row's nonzero columns, so pivots, fill and every value
/// are those of plain dense Gaussian elimination, bit for bit, and no step
/// scans all m² entries. It records the nonzeros of L and U by row and by
/// column, and those of B by column for the refinement residuals;
/// update() stores only the nonzeros of each eta. ftran/btran, the eta
/// chain and the residuals visit nonzeros only, in the index order of the
/// equivalent dense loops — every sum adds the same nonzero terms in the
/// same order, so results match a dense solve up to the sign of an exact
/// zero.
///
/// Storage is workspace-grade: the factors and the eta chain live in
/// member vectors that are cleared-not-freed at refactorize, and every
/// solve's intermediates live in member scratch vectors that keep their
/// capacity, so a factorization reused across solves of the same shape
/// performs no heap allocation after its first cycle. The scratch makes
/// even const solves non-reentrant: an instance belongs to one thread /
/// one solver workspace and must not be shared. The m x m elimination
/// scratch is a separate Scratch, which factorizations of one workspace
/// share (refactorize's four-argument form).
class BasisFactorization {
 public:
  class Scratch;

  /// Factorizes the m x m basis matrix B, m = columns.size(), whose
  /// column i is column columns[i] of the column-sparse matrix
  /// (start, entries): column j's nonzeros are entries[start[j] ..
  /// start[j+1]), rows ascending and below m. Discards any eta chain.
  /// Returns false when B is singular (pivot below kPivotTol); the object
  /// is then cleanly invalid — not half-factorized — until the next
  /// successful refactorize. The elimination runs in `scratch`, which
  /// every refactorize leaves as it found it, so several factorizations
  /// used by one thread may share one; the three-argument form uses this
  /// object's own.
  bool refactorize(std::span<const int> start,
                   std::span<const ColumnEntry> entries,
                   std::span<const int> columns, Scratch& scratch);
  bool refactorize(std::span<const int> start,
                   std::span<const ColumnEntry> entries,
                   std::span<const int> columns);

  /// x := B^{-1} x. Requires valid().
  void ftran(std::span<double> x) const;

  /// y := B^{-T} y. Requires valid().
  void btran(std::span<double> y) const;

  /// x := B_new^{-1} x with iterative refinement: after the base solve the
  /// true residual r = rhs − B_new·x is formed against the stored copy of
  /// the basis matrix plus the eta chain, and correction steps
  /// x += B_new^{-1} r are applied while they improve (at most
  /// kMaxRefineSteps). Returns the number of correction steps taken; when
  /// `residual_out` is non-null it receives the final relative residual
  /// ‖r‖_∞ / (1 + ‖rhs‖_∞). Requires valid().
  int ftran_refined(std::span<double> x,
                    double* residual_out = nullptr) const;

  /// y := B_new^{-T} y with iterative refinement (see ftran_refined).
  int btran_refined(std::span<double> y,
                    double* residual_out = nullptr) const;

  /// Drops the eta chain and puts pivot_growth() back to the growth the
  /// last refactorize measured: afterwards every solve gives the bits it
  /// gave right after that refactorize. Requires valid().
  void rewind();

  /// Appends the eta for a pivot in position `p` with direction `w`
  /// (= B^{-1} a_entering), copying its nonzeros into the eta chain. Returns
  /// false — and leaves the factorization unchanged — when |w[p]| is too
  /// small to pivot on; the caller should refactorize from the updated
  /// basis matrix instead.
  bool update(int p, std::span<const double> w);

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] std::size_t size() const { return perm_.size(); }
  /// The row permutation of the last refactorize: (P*B)[i] = B[perm()[i]].
  /// Empty after a singular one.
  [[nodiscard]] std::span<const int> perm() const { return perm_; }
  [[nodiscard]] std::size_t eta_count() const { return eta_pivots_.size(); }

  /// Worst-case growth indicator for the current factorization: the max of
  /// the LU element growth observed at the last refactorize
  /// (max|U| / max|B|) and the largest accepted eta ratio max|w| / |w_p|
  /// since. Values past ~1e6 mean the eta chain is amplifying rounding by
  /// that factor per application; the simplex driver refactorizes early
  /// when it sees one (counted in lp.basis.residual_refactorizations).
  [[nodiscard]] double pivot_growth() const { return pivot_growth_; }

  /// Eta chain length past which the caller should refactorize: the
  /// chain costs O(m) per solve per eta and accumulates rounding.
  static constexpr std::size_t kRefactorInterval = 64;
  /// Smallest acceptable pivot magnitude, for both LU and eta updates.
  static constexpr double kPivotTol = 1e-11;
  /// Smallest eta pivot relative to max|w|: applying an eta divides by
  /// w[p], so a pivot this much smaller than the direction's largest
  /// entry would amplify rounding by >1e7 per application. update()
  /// refuses such pivots and the caller refactorizes.
  static constexpr double kEtaStabilityTol = 1e-7;
  /// Cap on iterative-refinement correction steps per refined solve; one
  /// step recovers nearly all attainable accuracy in double precision, the
  /// second catches pathological conditioning.
  static constexpr int kMaxRefineSteps = 2;
  /// Relative residual below which a refined solve stops correcting.
  static constexpr double kRefineTol = 1e-12;
  /// pivot_growth() past this means the factorization is amplifying
  /// rounding enough to distrust incremental values; callers refactorize.
  static constexpr double kGrowthRefactorLimit = 1e6;

 private:
  struct Entry {
    int idx;
    double val;
  };

 public:
  /// refactorize()'s working storage, capacity-reused. elim holds the
  /// m x m values by original row (row r at [r*m, r*m + m)) and in_pattern
  /// flags the entries the elimination has touched; both are all zero
  /// between calls. Row r's touched columns are row_cols[r*m ..],
  /// row_len[r] of them, and column c's touched rows col_rows[c*m ..],
  /// col_len[c] of them.
  class Scratch {
   private:
    friend class BasisFactorization;
    std::vector<double> elim;
    std::vector<unsigned char> in_pattern;
    std::vector<int> row_cols, col_rows;
    std::vector<std::size_t> row_len, col_len;
    std::vector<std::size_t> pos;  // inverse of perm_: row → position
    std::vector<Entry> pivot_row;  // the pivot row's nonzeros past column k
    std::vector<int> transpose_fill;  // transpose() cursor per output group
  };

 private:
  /// Nonzeros in groups (the rows or columns of a matrix, or the etas of
  /// the chain): group g is entries[start[g] .. start[g+1]), ascending idx.
  /// clear() keeps capacity.
  struct SparseGroups {
    std::vector<int> start;  // empty until the first clear()
    std::vector<Entry> entries;

    /// Empties the groups, reserving room for up to `groups` groups of
    /// `max_entries` entries in all, so refills never reallocate.
    void clear(std::size_t groups, std::size_t max_entries) {
      start.reserve(groups + 1);
      entries.reserve(max_entries);
      start.assign(1, 0);
      entries.clear();
    }
    void push(int i, double v) { entries.push_back({i, v}); }
    void close_group() { start.push_back(static_cast<int>(entries.size())); }
    [[nodiscard]] std::span<const Entry> group(std::size_t g) const {
      return {entries.data() + start[g], entries.data() + start[g + 1]};
    }
  };

  /// out := `in` regrouped by index (rows ↔ columns of a square matrix);
  /// each output group lists its entries in ascending group order of `in`.
  static void transpose(const SparseGroups& in, SparseGroups& out,
                        std::vector<int>& fill);

  /// r := rhs − B_new·x (B_new = B · eta chain); returns ‖r‖_∞.
  double residual_ftran(std::span<const double> x,
                        std::span<const double> rhs,
                        std::vector<double>& r) const;
  /// r := rhs − B_new^T·y; returns ‖r‖_∞.
  double residual_btran(std::span<const double> y,
                        std::span<const double> rhs,
                        std::vector<double>& r) const;

  std::vector<int> perm_;  // row permutation: (P*B)[i] = B[perm_[i]]
  SparseGroups l_rows_, l_cols_;  // L below the diagonal
  /// U on and above the diagonal: the diagonal is the first entry of each
  /// row group and the last of each column group.
  SparseGroups u_rows_, u_cols_;
  SparseGroups b_cols_;  // B at the last refactorize (residuals)
  /// Eta chain: eta k replaces basis position eta_pivots_[k].idx, whose
  /// w_p is eta_pivots_[k].val; its direction w, w_p included, is group
  /// k of etas_.
  SparseGroups etas_;
  std::vector<Entry> eta_pivots_;
  bool valid_ = false;
  double pivot_growth_ = 1.0;
  double lu_growth_ = 1.0;  // the growth the last refactorize measured
  // Per-solve scratch, capacity-reused across calls. Mutable because
  // ftran/btran are logically const; this is what makes const calls
  // non-reentrant (see class comment).
  mutable std::vector<double> z_;        // permuted / triangular-solve image
  mutable std::vector<double> resid_v_;  // residual_* intermediate product
  mutable std::vector<double> refine_rhs_, refine_r_, refine_d_,
      refine_cand_, refine_r2_;
  Scratch scratch_;  // the three-argument refactorize's
};

}  // namespace gridsec::lp
