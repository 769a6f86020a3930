#include "gridsec/lp/workspace.hpp"

#include "gridsec/util/error.hpp"
#include "gridsec/util/thread_pool.hpp"
#include "workspace_internal.hpp"

namespace gridsec::lp {

namespace detail {

void WorkspaceImpl::bind(int m, int n_struct, int n_total,
                         std::size_t nnz) {
  arena.reset();
  ++binds;
  const auto ms = static_cast<std::size_t>(m);
  const auto ns = static_cast<std::size_t>(n_total);

  // Carved widest alignment first, so no padding separates the spans.
  t.a.entries = arena.allocate_span<ColumnEntry>(nnz);
  t.b = arena.allocate_span<double>(ms);
  t.lower = arena.allocate_span<double>(ns);
  t.upper = arena.allocate_span<double>(ns);
  t.cost = arena.allocate_span<double>(ns);
  t.x = arena.allocate_span<double>(ns);
  y = arena.allocate_span<double>(ms);
  w = arena.allocate_span<double>(ms);
  xb = arena.allocate_span<double>(ms);
  t.a.start = arena.allocate_span<int>(ns + 1);
  t.basis = arena.allocate_span<int>(ms);
  col_fill = arena.allocate_span<int>(static_cast<std::size_t>(n_struct));
  slack_of_row = arena.allocate_span<int>(ms);
  row_basic_col = arena.allocate_span<int>(ms);
  candidates = arena.allocate_span<int>(ns + ms);
  t.state = arena.allocate_span<VarState>(ns);
  artificial_used = arena.allocate_span<unsigned char>(ms);
  used_row = arena.allocate_span<unsigned char>(ms);
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

void SolverWorkspace::reset() {
  GRIDSEC_ASSERT_MSG(!impl_->in_use, "reset during an active solve");
  const std::size_t binds = impl_->binds;
  impl_ = std::make_unique<detail::WorkspaceImpl>();
  impl_->binds = binds;
}

SolverWorkspace::Stats SolverWorkspace::stats() const {
  const util::Arena::Stats a = impl_->arena.stats();
  return Stats{a.capacity, a.high_water, impl_->binds};
}

util::Arena& SolverWorkspace::arena() { return impl_->arena; }

SolverWorkspace& thread_solver_workspace() {
  // On a pool worker the workspace must die with the worker (its arena may
  // be large), so it lives in the worker's scratch slot. Off-pool threads
  // get an ordinary thread_local.
  if (WorkerScratch* scratch = ThreadPool::current_scratch()) {
    return scratch->slot<SolverWorkspace>();
  }
  thread_local SolverWorkspace ws;
  return ws;
}

}  // namespace gridsec::lp
