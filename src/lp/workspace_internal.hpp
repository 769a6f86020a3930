// Internal solver-facing view of lp::SolverWorkspace (see workspace.hpp
// for the ownership rules). The tableau and the per-solve scratch are
// capacity-reused vectors that bind() resizes to the problem's shape — no
// heap traffic once each has grown to the largest shape the workspace has
// seen. A solve on the rows the workspace last built skips the bind, and
// a warm solve whose crash it already holds skips that too
// (WarmCheckpoint).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gridsec/lp/basis.hpp"
#include "gridsec/lp/workspace.hpp"

namespace gridsec::lp::detail {

enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

/// Column-sparse (CSC) storage: the tableau's A matrix.
/// Column j's nonzeros are entries[start[j] .. start[j+1]), rows
/// ascending. Slack and artificial columns hold exactly one signed entry;
/// an artificial's coefficient is 0 until its row installs it.
struct SparseColumns {
  std::vector<int> start;            // n_total + 1
  std::vector<ColumnEntry> entries;  // nnz

  [[nodiscard]] std::span<const ColumnEntry> column(int j) const {
    const auto js = static_cast<std::size_t>(j);
    return std::span<const ColumnEntry>(entries).subspan(
        static_cast<std::size_t>(start[js]),
        static_cast<std::size_t>(start[js + 1] - start[js]));
  }
  /// The coefficient of a single-entry (slack or artificial) column.
  [[nodiscard]] double& single(int j) {
    const int first = start[static_cast<std::size_t>(j)];
    return entries[static_cast<std::size_t>(first)].val;
  }
  [[nodiscard]] double single(int j) const {
    return entries[static_cast<std::size_t>(start[static_cast<std::size_t>(j)])]
        .val;
  }
};

/// The working standard-form tableau: A x = b with per-column bounds,
/// columns ordered [structural | slack | artificial]. A Tableau owns its
/// storage, so a copy outlives the workspace it was taken from.
struct Tableau {
  SparseColumns a;                // m x n_total
  std::vector<double> b;          // m
  std::vector<double> lower;      // n_total
  std::vector<double> upper;      // n_total
  std::vector<double> cost;       // n_total, phase-dependent
  std::vector<double> x;          // n_total, current point
  std::vector<int> basis;         // m, column basic in each row
  std::vector<VarState> state;    // n_total
  int n_struct = 0;
  int n_total = 0;
  int m = 0;
};

/// The start of the last warm solve that crashed, kept for the next warm
/// solve whose start is the same. The crash reads only A, the warm Basis
/// and, for each warm at-upper column, whether its upper bound is finite;
/// those are the key, with A the workspace's resident A. The value is what
/// the crash leaves, the LU of its basis and the dual-feasible start's
/// reduced costs, which also depend on the phase-2 costs they sit beside.
/// Only warm solves use it, so WorkspaceImpl::size_warm sizes it rather
/// than every bind; bind() clears `valid`, since a new A is a new key.
///
/// The crash is factorized straight into `lu`, and a solve that starts
/// here pivots on it, appending etas, until its first refactorization,
/// which goes into the workspace's working factor. The next solve with
/// the same key rewinds `lu` (empty eta chain, the growth its
/// refactorize measured) and starts from the same bits.
struct WarmCheckpoint {
  bool valid = false;
  Basis warm;
  std::vector<unsigned char> stale_upper;  // n_struct: the crash demotes it
  std::vector<VarState> state;             // n_total, after the crash
  std::vector<int> basis;                  // m
  std::vector<unsigned char> artificial_used;  // m
  std::vector<double> artificial_coef;         // m: installed or demoted
  long repairs = 0;                  // the crash's demotions and fills
  BasisFactorization lu;             // of the crash basis
  bool priced = false;               // d holds the prices of `cost`
  std::vector<double> cost;          // n_total: phase-2 costs
  std::vector<double> d;             // n_total: reduced costs, 0 on basics
};

/// The whole per-solve state block. bind() sizes the tableau and the
/// scratch vectors below; the simplex fills and then mutates them in
/// place. Every vector here, and in `factor` and `warm`, keeps its
/// capacity across binds.
///
/// A solve binds only when its Problem's rows_id differs from `rows_id`,
/// the id A was last built from; otherwise t.a (apart from the artificial
/// coefficients, which every solve sets), t.b and slack_of_row are still
/// that problem's.
struct WorkspaceImpl {
  BasisFactorization factor;  // the working LU
  /// The elimination scratch `factor` and warm.lu share.
  BasisFactorization::Scratch lu_scratch;
  /// Whether the running solve reads warm.lu rather than `factor`: from
  /// a warm start until the solve's first refactorization.
  bool on_warm_lu = false;
  std::vector<double> crash_work;  // warm-start crash elimination, m×k

  Tableau t;

  std::vector<int> col_fill;  // n_struct: A-builder cursor per column
  std::vector<double> y;   // simplex multipliers (pricing)
  std::vector<double> w;   // entering-column ftran image (ratio test)
  std::vector<double> xb;  // recomputed basic values; cold-start residuals
  std::vector<int> slack_of_row;    // m; -1 = equality row
  std::vector<int> row_basic_col;   // warm start: basic column chosen per row
  std::vector<int> candidates;      // warm start: crash candidate columns
  std::vector<unsigned char> artificial_used;  // m flags
  std::vector<unsigned char> used_row;         // warm start: crash row flags
  /// n_total: the phase-2 costs (objective, negated to minimize; 0 off the
  /// structurals), loaded with the bounds once per solve.
  std::vector<double> phase2_cost;

  std::vector<double> alpha;  // n_total: the dual simplex's ρᵀA_j
  std::vector<int> priced;    // n_total: the columns its ratio test priced
  WarmCheckpoint warm;

  std::uint64_t rows_id = 0;  // Problem::rows_id A was built from; 0 = none
  bool in_use = false;     // leased by a running solve
  std::size_t binds = 0;

  /// Sizes the tableau and the scratch above for an m-row problem with
  /// n_struct structural and n_total total columns and room for `nnz`
  /// entries of A. Forgets the resident A and the checkpoint.
  void bind(int m, int n_struct, int n_total, std::size_t nnz);
  /// Sizes `alpha`, `priced` and the checkpoint's vectors to the bound
  /// shape. They keep their capacity, so this allocates only when a
  /// workspace first solves warm at a larger shape; cold-only workloads
  /// never pay for them.
  void size_warm();

  /// The LU of t's basis that the running solve reads.
  [[nodiscard]] BasisFactorization& lu() {
    return on_warm_lu ? warm.lu : factor;
  }
  /// Refactorizes t's basis into `factor`, which lu() then returns.
  /// Returns false when the basis is singular.
  bool refactorize();
};

/// Marks the workspace a solve uses busy for the solve's duration: the
/// one in SimplexOptions if given, else the thread default. No solve can
/// start while another holds the lease (solve_impl releases it before
/// the recovery and solve hooks run), so a second lease on a busy
/// workspace is a contract violation and asserts.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(SolverWorkspace* requested);
  ~WorkspaceLease();

  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] WorkspaceImpl& impl() { return *impl_; }

 private:
  WorkspaceImpl* impl_ = nullptr;
};

}  // namespace gridsec::lp::detail
