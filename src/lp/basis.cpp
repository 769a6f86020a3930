#include "gridsec/lp/basis.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "gridsec/obs/trace.hpp"

namespace gridsec::lp {
namespace {

std::atomic<bool> g_warm_start_enabled{true};

char status_letter(VarStatus s) {
  switch (s) {
    case VarStatus::kBasic:
      return 'B';
    case VarStatus::kAtLower:
      return 'L';
    case VarStatus::kAtUpper:
      return 'U';
  }
  return '?';
}

StatusOr<std::vector<VarStatus>> parse_statuses(std::string_view text) {
  std::vector<VarStatus> out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case 'B':
        out.push_back(VarStatus::kBasic);
        break;
      case 'L':
        out.push_back(VarStatus::kAtLower);
        break;
      case 'U':
        out.push_back(VarStatus::kAtUpper);
        break;
      default:
        return Status::invalid_argument("parse_basis: unknown status letter");
    }
  }
  return out;
}

}  // namespace

void set_warm_start_enabled(bool enabled) {
  g_warm_start_enabled.store(enabled, std::memory_order_relaxed);
}

bool warm_start_enabled() {
  return g_warm_start_enabled.load(std::memory_order_relaxed);
}

std::string to_string(const Basis& basis) {
  std::string out;
  out.reserve(basis.variables.size() + basis.rows.size() + 4);
  out += "v:";
  for (const VarStatus s : basis.variables) out += status_letter(s);
  out += "|r:";
  for (const VarStatus s : basis.rows) out += status_letter(s);
  return out;
}

StatusOr<Basis> parse_basis(std::string_view text) {
  if (text.substr(0, 2) != "v:") {
    return Status::invalid_argument("parse_basis: missing 'v:' prefix");
  }
  const std::size_t sep = text.find("|r:");
  if (sep == std::string_view::npos) {
    return Status::invalid_argument("parse_basis: missing '|r:' separator");
  }
  auto vars = parse_statuses(text.substr(2, sep - 2));
  if (!vars.is_ok()) return vars.status();
  auto rows = parse_statuses(text.substr(sep + 3));
  if (!rows.is_ok()) return rows.status();
  Basis basis;
  basis.variables = std::move(vars).value();
  basis.rows = std::move(rows).value();
  return basis;
}

void BasisFactorization::transpose(const SparseGroups& in,
                                   SparseGroups& out,
                                   std::vector<int>& fill) {
  const std::size_t m = in.start.size() - 1;
  out.start.assign(m + 1, 0);
  out.entries.reserve(in.entries.capacity());
  out.entries.resize(in.entries.size());
  for (const Entry& e : in.entries) {
    ++out.start[static_cast<std::size_t>(e.idx) + 1];
  }
  for (std::size_t c = 0; c < m; ++c) out.start[c + 1] += out.start[c];
  fill.assign(out.start.begin(), out.start.end() - 1);
  // Groups are scattered in order, so each output group ascends.
  for (std::size_t g = 0; g < m; ++g) {
    for (const Entry& e : in.group(g)) {
      int& at = fill[static_cast<std::size_t>(e.idx)];
      out.entries[static_cast<std::size_t>(at++)] = {static_cast<int>(g),
                                                     e.val};
    }
  }
}

bool BasisFactorization::refactorize(std::span<const int> start,
                                     std::span<const ColumnEntry> entries,
                                     std::span<const int> columns) {
  return refactorize(start, entries, columns, scratch_);
}

bool BasisFactorization::refactorize(std::span<const int> start,
                                     std::span<const ColumnEntry> entries,
                                     std::span<const int> columns,
                                     Scratch& scratch) {
  GRIDSEC_TRACE_SPAN("lp.simplex.refactorize");
  const std::size_t m = columns.size();
  std::vector<std::size_t>& pos = scratch.pos;
  perm_.resize(m);
  pos.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    perm_[i] = static_cast<int>(i);
    pos[i] = i;
  }
  etas_.clear(kRefactorInterval, kRefactorInterval * m);  // capacity kept
  eta_pivots_.clear();
  eta_pivots_.reserve(kRefactorInterval);
  valid_ = false;
  pivot_growth_ = 1.0;

  // The scratch is all zero, whatever m it last served, so growing it
  // with zeros keeps it so.
  std::vector<double>& elim = scratch.elim;
  std::vector<unsigned char>& in_pattern = scratch.in_pattern;
  std::vector<int>& row_cols = scratch.row_cols;
  std::vector<int>& col_rows = scratch.col_rows;
  std::vector<std::size_t>& row_len = scratch.row_len;
  std::vector<std::size_t>& col_len = scratch.col_len;
  std::vector<Entry>& pivot_row = scratch.pivot_row;
  elim.resize(m * m);
  in_pattern.resize(m * m);
  row_cols.resize(m * m);
  col_rows.resize(m * m);
  row_len.assign(m, 0);
  col_len.assign(m, 0);
  pivot_row.reserve(m);
  const auto value = [&](std::size_t r, std::size_t c) -> double& {
    return elim[r * m + c];
  };
  const auto touch = [&](std::size_t r, std::size_t c) {
    in_pattern[r * m + c] = 1;
    row_cols[r * m + row_len[r]++] = static_cast<int>(c);
    col_rows[c * m + col_len[c]++] = static_cast<int>(r);
  };

  // B's nonzeros by column (for the residuals), max|B|, and the scratch.
  double max_b = 0.0;
  b_cols_.clear(m, m * m);
  for (std::size_t j = 0; j < m; ++j) {
    const auto col = static_cast<std::size_t>(columns[j]);
    for (int q = start[col]; q < start[col + 1]; ++q) {
      const ColumnEntry& e = entries[static_cast<std::size_t>(q)];
      if (e.val == 0.0) continue;
      b_cols_.push(e.row, e.val);
      max_b = std::max(max_b, std::fabs(e.val));
      value(static_cast<std::size_t>(e.row), j) = e.val;
      touch(static_cast<std::size_t>(e.row), j);
    }
    b_cols_.close_group();
  }

  bool singular = false;
  for (std::size_t k = 0; k < m; ++k) {
    // Partial pivoting: of the rows at or below position k, the first in
    // position order with the largest |value| in column k — the row a
    // dense scan from position k would keep.
    const std::span<const int> rows(&col_rows[k * m], col_len[k]);
    std::size_t pivot = k;
    double best = std::fabs(value(static_cast<std::size_t>(perm_[k]), k));
    for (const int ri : rows) {
      const std::size_t at = pos[static_cast<std::size_t>(ri)];
      const double mag = std::fabs(value(static_cast<std::size_t>(ri), k));
      if (at > k && (mag > best || (mag == best && at < pivot))) {
        best = mag;
        pivot = at;
      }
    }
    if (best < kPivotTol) {
      singular = true;
      break;
    }
    if (pivot != k) {
      std::swap(perm_[pivot], perm_[k]);
      pos[static_cast<std::size_t>(perm_[pivot])] = pivot;
      pos[static_cast<std::size_t>(perm_[k])] = k;
    }
    const auto p = static_cast<std::size_t>(perm_[k]);
    const double diag = value(p, k);
    pivot_row.clear();
    for (std::size_t q = 0; q < row_len[p]; ++q) {
      const auto c = static_cast<std::size_t>(row_cols[p * m + q]);
      if (c > k && value(p, c) != 0.0) {
        pivot_row.push_back({static_cast<int>(c), value(p, c)});
      }
    }
    for (const int ri : rows) {
      const auto r = static_cast<std::size_t>(ri);
      // A zero L entry (never filled, or cancelled) has nothing to
      // eliminate.
      if (pos[r] <= k || value(r, k) == 0.0) continue;
      const double factor = value(r, k) / diag;
      value(r, k) = factor;  // L entry
      if (factor == 0.0) continue;
      for (const Entry& u : pivot_row) {
        const auto c = static_cast<std::size_t>(u.idx);
        if (in_pattern[r * m + c] == 0) touch(r, c);
        value(r, c) -= factor * u.val;
      }
    }
  }

  // L and U by row, read out of the scratch in position order, and the
  // element-growth factor max|U| / max|B| — the classic LU stability
  // indicator; it seeds pivot_growth(), which eta updates then only
  // raise. Reading zeroes the scratch for the next call.
  double max_u = 0.0;
  l_rows_.clear(m, m * (m - 1) / 2);
  u_rows_.clear(m, m * (m + 1) / 2);
  for (std::size_t i = 0; i < m; ++i) {
    const auto r = static_cast<std::size_t>(perm_[i]);
    const std::span<int> cols(&row_cols[r * m], row_len[r]);
    std::sort(cols.begin(), cols.end());
    for (const int ci : cols) {
      const auto c = static_cast<std::size_t>(ci);
      const double v = std::exchange(value(r, c), 0.0);
      in_pattern[r * m + c] = 0;
      if (v == 0.0) continue;
      if (c < i) {
        l_rows_.push(ci, v);
      } else {
        u_rows_.push(ci, v);
        max_u = std::max(max_u, std::fabs(v));
      }
    }
    l_rows_.close_group();
    u_rows_.close_group();
  }
  if (singular) {
    perm_.clear();
    return false;
  }
  if (max_b > 0.0) {
    pivot_growth_ = std::max(1.0, max_u / max_b);
  }
  lu_growth_ = pivot_growth_;
  transpose(l_rows_, l_cols_, scratch.transpose_fill);
  transpose(u_rows_, u_cols_, scratch.transpose_fill);
  valid_ = true;
  return true;
}

void BasisFactorization::rewind() {
  GRIDSEC_ASSERT(valid_);
  etas_.clear(kRefactorInterval, kRefactorInterval * perm_.size());
  eta_pivots_.clear();
  pivot_growth_ = lu_growth_;
}

// The solves below visit stored nonzeros in ascending index order — the
// order of the dense loops they replace — so each sum adds the same
// nonzero terms in the same sequence.

void BasisFactorization::ftran(std::span<double> x) const {
  GRIDSEC_ASSERT(valid_ && x.size() == perm_.size());
  const std::size_t m = perm_.size();
  // P*B = L*U, so B z = x  =>  L U z = P x.
  std::vector<double>& z = z_;
  z.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    z[i] = x[static_cast<std::size_t>(perm_[i])];
  }
  // Forward: L (unit lower) — z := L^{-1} z, row by row.
  for (std::size_t i = 1; i < m; ++i) {
    double acc = z[i];
    for (const Entry& e : l_rows_.group(i)) {
      acc -= e.val * z[static_cast<std::size_t>(e.idx)];
    }
    z[i] = acc;
  }
  // Backward: U — z := U^{-1} z, row by row.
  for (std::size_t i = m; i-- > 0;) {
    const std::span<const Entry> row = u_rows_.group(i);  // diagonal first
    double acc = z[i];
    for (const Entry& e : row.subspan(1)) {
      acc -= e.val * z[static_cast<std::size_t>(e.idx)];
    }
    z[i] = acc / row.front().val;
  }
  // Eta chain in application order: B_new = B * E_1 * ... * E_k, so
  // B_new^{-1} v = E_k^{-1} ... E_1^{-1} (B^{-1} v).
  for (std::size_t k = 0; k < eta_pivots_.size(); ++k) {
    const auto p = static_cast<std::size_t>(eta_pivots_[k].idx);
    const double t = z[p] / eta_pivots_[k].val;
    for (const Entry& e : etas_.group(k)) {
      z[static_cast<std::size_t>(e.idx)] -= e.val * t;
    }
    z[p] = t;
  }
  for (std::size_t i = 0; i < m; ++i) x[i] = z[i];
}

void BasisFactorization::btran(std::span<double> y) const {
  GRIDSEC_ASSERT(valid_ && y.size() == perm_.size());
  const std::size_t m = perm_.size();
  // B_new^{-T} v = B^{-T} E_1^{-T} ... E_k^{-T} v: etas in reverse order
  // first, then the LU transpose solve.
  for (std::size_t k = eta_pivots_.size(); k-- > 0;) {
    // Solve E^T u = v in place: row p of E^T is w^T, other rows identity.
    const int p = eta_pivots_[k].idx;
    double dot_rest = 0.0;
    for (const Entry& e : etas_.group(k)) {
      if (e.idx != p) dot_rest += e.val * y[static_cast<std::size_t>(e.idx)];
    }
    const auto ps = static_cast<std::size_t>(p);
    y[ps] = (y[ps] - dot_rest) / eta_pivots_[k].val;
  }
  // B^T q = v with B = P^T L U: U^T L^T P q = v.
  // Forward: U^T (lower triangular with U's diagonal), U column by column.
  std::vector<double>& z = z_;
  z.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::span<const Entry> col = u_cols_.group(i);  // diagonal last
    double acc = y[i];
    for (const Entry& e : col.first(col.size() - 1)) {
      acc -= e.val * z[static_cast<std::size_t>(e.idx)];
    }
    z[i] = acc / col.back().val;
  }
  // Backward: L^T (unit upper triangular), L column by column.
  for (std::size_t i = m; i-- > 0;) {
    double acc = z[i];
    for (const Entry& e : l_cols_.group(i)) {
      acc -= e.val * z[static_cast<std::size_t>(e.idx)];
    }
    z[i] = acc;
  }
  // q = P y_out: y_out[perm[i]] = z[i].
  for (std::size_t i = 0; i < m; ++i) {
    y[static_cast<std::size_t>(perm_[i])] = z[i];
  }
}

bool BasisFactorization::update(int p, std::span<const double> w) {
  GRIDSEC_ASSERT(valid_ && p >= 0 &&
                 static_cast<std::size_t>(p) < perm_.size() &&
                 w.size() == perm_.size());
  // Stability gate: a pivot that is small in absolute terms or relative
  // to the rest of the direction vector would amplify error through every
  // later ftran/btran (each application divides by w[p]); refuse it and
  // let the caller refactorize instead.
  const double wp = w[static_cast<std::size_t>(p)];
  const double pivot = std::fabs(wp);
  if (pivot < kPivotTol) return false;
  double wmax = 0.0;
  for (const double v : w) wmax = std::max(wmax, std::fabs(v));
  if (pivot < kEtaStabilityTol * wmax) return false;
  // Accepted — but remember how much this eta can amplify rounding
  // (each ftran/btran application divides by w[p]).
  if (wmax > 0.0) pivot_growth_ = std::max(pivot_growth_, wmax / pivot);
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] != 0.0) etas_.push(static_cast<int>(i), w[i]);
  }
  etas_.close_group();
  eta_pivots_.push_back({p, wp});
  return true;
}

double BasisFactorization::residual_ftran(std::span<const double> x,
                                          std::span<const double> rhs,
                                          std::vector<double>& r) const {
  const std::size_t m = perm_.size();
  // B_new = B · E_1 · … · E_k, so B_new·x = B·(E_1·(…·(E_k·x))).
  // Apply etas innermost-first (reverse append order). Multiplying by
  // E = I + (w − e_p)e_pᵀ: v_i += w_i·v_p for i ≠ p, v_p = w_p·v_p.
  std::vector<double>& v = resid_v_;
  v.assign(x.begin(), x.end());
  for (std::size_t k = eta_pivots_.size(); k-- > 0;) {
    const int p = eta_pivots_[k].idx;
    const double vp = v[static_cast<std::size_t>(p)];
    if (vp != 0.0) {
      for (const Entry& e : etas_.group(k)) {
        if (e.idx != p) v[static_cast<std::size_t>(e.idx)] += e.val * vp;
      }
      v[static_cast<std::size_t>(p)] = eta_pivots_[k].val * vp;
    }
  }
  // Column by column: each r_i still subtracts its terms B_ij·v_j in
  // ascending j, the order of a row-wise sum.
  r.assign(rhs.begin(), rhs.end());
  for (std::size_t j = 0; j < m; ++j) {
    const double vj = v[j];
    for (const Entry& e : b_cols_.group(j)) {
      r[static_cast<std::size_t>(e.idx)] -= e.val * vj;
    }
  }
  double norm = 0.0;
  for (const double ri : r) norm = std::max(norm, std::fabs(ri));
  return norm;
}

double BasisFactorization::residual_btran(std::span<const double> y,
                                          std::span<const double> rhs,
                                          std::vector<double>& r) const {
  const std::size_t m = perm_.size();
  // B_newᵀ = E_kᵀ·…·E_1ᵀ·Bᵀ, so B_newᵀ·y = E_kᵀ(…(E_1ᵀ(Bᵀ·y))):
  // Bᵀ first, then etas in append order. (Eᵀv)_p = Σ_j w_j v_j, others
  // unchanged.
  std::vector<double>& v = resid_v_;
  v.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    double acc = 0.0;
    for (const Entry& e : b_cols_.group(j)) {
      acc += e.val * y[static_cast<std::size_t>(e.idx)];
    }
    v[j] = acc;
  }
  for (std::size_t k = 0; k < eta_pivots_.size(); ++k) {
    double dot = 0.0;
    for (const Entry& e : etas_.group(k)) {
      dot += e.val * v[static_cast<std::size_t>(e.idx)];
    }
    v[static_cast<std::size_t>(eta_pivots_[k].idx)] = dot;
  }
  r.resize(m);
  double norm = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double acc = rhs[i] - v[i];
    r[i] = acc;
    norm = std::max(norm, std::fabs(acc));
  }
  return norm;
}

int BasisFactorization::ftran_refined(std::span<double> x,
                                      double* residual_out) const {
  GRIDSEC_ASSERT(valid_ && x.size() == perm_.size());
  std::vector<double>& rhs = refine_rhs_;
  rhs.assign(x.begin(), x.end());
  ftran(x);
  double rhs_norm = 0.0;
  for (const double v : rhs) rhs_norm = std::max(rhs_norm, std::fabs(v));
  const double scale = 1.0 + rhs_norm;
  std::vector<double>& r = refine_r_;
  double rel = residual_ftran(x, rhs, r) / scale;
  int steps = 0;
  while (rel > kRefineTol && steps < kMaxRefineSteps) {
    std::vector<double>& d = refine_d_;
    d.assign(r.begin(), r.end());
    ftran(d);
    std::vector<double>& candidate = refine_cand_;
    candidate.assign(x.begin(), x.end());
    for (std::size_t i = 0; i < candidate.size(); ++i) candidate[i] += d[i];
    std::vector<double>& r2 = refine_r2_;
    const double rel2 = residual_ftran(candidate, rhs, r2) / scale;
    if (rel2 >= rel) break;  // correction no longer improves; stop
    std::copy(candidate.begin(), candidate.end(), x.begin());
    r.swap(r2);
    rel = rel2;
    ++steps;
  }
  if (residual_out != nullptr) *residual_out = rel;
  return steps;
}

int BasisFactorization::btran_refined(std::span<double> y,
                                      double* residual_out) const {
  GRIDSEC_ASSERT(valid_ && y.size() == perm_.size());
  std::vector<double>& rhs = refine_rhs_;
  rhs.assign(y.begin(), y.end());
  btran(y);
  double rhs_norm = 0.0;
  for (const double v : rhs) rhs_norm = std::max(rhs_norm, std::fabs(v));
  const double scale = 1.0 + rhs_norm;
  std::vector<double>& r = refine_r_;
  double rel = residual_btran(y, rhs, r) / scale;
  int steps = 0;
  while (rel > kRefineTol && steps < kMaxRefineSteps) {
    std::vector<double>& d = refine_d_;
    d.assign(r.begin(), r.end());
    btran(d);
    std::vector<double>& candidate = refine_cand_;
    candidate.assign(y.begin(), y.end());
    for (std::size_t i = 0; i < candidate.size(); ++i) candidate[i] += d[i];
    std::vector<double>& r2 = refine_r2_;
    const double rel2 = residual_btran(candidate, rhs, r2) / scale;
    if (rel2 >= rel) break;
    std::copy(candidate.begin(), candidate.end(), y.begin());
    r.swap(r2);
    rel = rel2;
    ++steps;
  }
  if (residual_out != nullptr) *residual_out = rel;
  return steps;
}

}  // namespace gridsec::lp
