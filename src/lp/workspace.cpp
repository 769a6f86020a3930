#include "gridsec/lp/workspace.hpp"

#include "gridsec/util/error.hpp"
#include "workspace_internal.hpp"

namespace gridsec::lp {

namespace detail {

void WorkspaceImpl::bind(int m, int n_struct, int n_total,
                         std::size_t nnz) {
  ++binds;
  const auto ms = static_cast<std::size_t>(m);
  const auto ns = static_cast<std::size_t>(n_total);
  t.a.entries.resize(nnz);
  t.a.start.resize(ns + 1);
  t.b.resize(ms);
  t.lower.resize(ns);
  t.upper.resize(ns);
  t.cost.resize(ns);
  t.x.resize(ns);
  t.basis.resize(ms);
  t.state.resize(ns);
  col_fill.resize(static_cast<std::size_t>(n_struct));
  y.resize(ms);
  w.resize(ms);
  xb.resize(ms);
  slack_of_row.resize(ms);
  row_basic_col.resize(ms);
  candidates.resize(ns + ms);
  artificial_used.resize(ms);
  used_row.resize(ms);
  phase2_cost.resize(ns);
  warm.valid = false;
  rows_id = 0;
  t.m = m;
  t.n_struct = n_struct;
  t.n_total = n_total;
}

void WorkspaceImpl::size_warm() {
  const auto ms = static_cast<std::size_t>(t.m);
  const auto ns = static_cast<std::size_t>(t.n_total);
  alpha.resize(ns);
  priced.resize(ns);
  warm.stale_upper.resize(static_cast<std::size_t>(t.n_struct));
  warm.state.resize(ns);
  warm.basis.resize(ms);
  warm.artificial_used.resize(ms);
  warm.artificial_coef.resize(ms);
  warm.cost.resize(ns);
  warm.d.resize(ns);
}

WorkspaceLease::WorkspaceLease(SolverWorkspace* requested) {
  SolverWorkspace& ws =
      requested != nullptr ? *requested : thread_solver_workspace();
  impl_ = &ws.impl();
  GRIDSEC_ASSERT_MSG(!impl_->in_use, "solver workspace leased twice");
  impl_->in_use = true;
}

WorkspaceLease::~WorkspaceLease() { impl_->in_use = false; }

}  // namespace detail

SolverWorkspace::SolverWorkspace()
    : impl_(std::make_unique<detail::WorkspaceImpl>()) {}

SolverWorkspace::~SolverWorkspace() = default;

SolverWorkspace::Stats SolverWorkspace::stats() const {
  return Stats{impl_->binds};
}

SolverWorkspace& thread_solver_workspace() {
  thread_local SolverWorkspace ws;
  return ws;
}

}  // namespace gridsec::lp
