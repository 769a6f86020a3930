// Internal solver-facing view of lp::SolverWorkspace (see workspace.hpp
// for the ownership rules). Everything here is carved from the workspace
// arena at bind() time: the simplex works on spans into one contiguous
// buffer, and a re-bind is an arena rewind plus pointer carving — no heap
// traffic once the arena has grown to the problem's high-water mark.
#pragma once

#include <cstddef>
#include <span>

#include "gridsec/lp/basis.hpp"
#include "gridsec/lp/workspace.hpp"
#include "gridsec/util/arena.hpp"
#include "gridsec/util/matrix.hpp"

namespace gridsec::lp::detail {

enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

/// One stored coefficient of A.
struct ColumnEntry {
  int row;
  double val;
};

/// Column-sparse (CSC) view over arena memory: the tableau's A matrix.
/// Column j's nonzeros are entries[start[j] .. start[j+1]), rows
/// ascending. Slack and artificial columns hold exactly one signed entry;
/// an artificial's coefficient is 0 until its row installs it.
struct SparseColumns {
  std::span<int> start;            // n_total + 1
  std::span<ColumnEntry> entries;  // nnz

  [[nodiscard]] std::span<const ColumnEntry> column(int j) const {
    const auto js = static_cast<std::size_t>(j);
    return entries.subspan(
        static_cast<std::size_t>(start[js]),
        static_cast<std::size_t>(start[js + 1] - start[js]));
  }
  /// The coefficient of a single-entry (slack or artificial) column.
  [[nodiscard]] double& single(int j) {
    const int first = start[static_cast<std::size_t>(j)];
    return entries[static_cast<std::size_t>(first)].val;
  }
};

/// The working standard-form tableau: A x = b with per-column bounds,
/// columns ordered [structural | slack | artificial]. All storage is
/// arena-backed; copying a Tableau copies the *view*, not the data.
struct Tableau {
  SparseColumns a;              // m x n_total
  std::span<double> b;          // m
  std::span<double> lower;      // n_total
  std::span<double> upper;      // n_total
  std::span<double> cost;       // n_total, phase-dependent
  std::span<double> x;          // n_total, current point
  std::span<int> basis;         // m, column basic in each row
  std::span<VarState> state;    // n_total
  int n_struct = 0;
  int n_total = 0;
  int m = 0;
};

/// The whole per-solve state block. bind() carves every span below from
/// the arena; the simplex fills and then mutates them in place. `factor`,
/// `bmat`, and `crash_work` sit outside the arena but reuse their own
/// heap capacity across binds.
struct WorkspaceImpl {
  util::Arena arena;
  BasisFactorization factor;
  Matrix bmat;        // refactorization scratch: B extracted from the tableau
  Matrix crash_work;  // warm-start crash-selection elimination scratch

  Tableau t;

  std::span<int> col_fill;  // n_struct: A-builder cursor per column
  std::span<double> y;   // simplex multipliers (pricing)
  std::span<double> w;   // entering-column ftran image (ratio test)
  std::span<double> xb;  // recomputed basic values; cold-start residuals
  std::span<int> slack_of_row;    // m; -1 = equality row
  std::span<int> row_basic_col;   // warm start: basic column chosen per row
  std::span<int> candidates;      // warm start: crash candidate columns
  std::span<unsigned char> artificial_used;  // m flags
  std::span<unsigned char> used_row;         // warm start: crash row flags

  bool in_use = false;     // leased by a running solve
  std::size_t binds = 0;

  /// Rewinds the arena and carves all of the above for an m-row problem
  /// with n_struct structural and n_total total columns and room for
  /// `nnz` entries of A.
  void bind(int m, int n_struct, int n_total, std::size_t nnz);
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
