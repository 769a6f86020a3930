// Tests for the basis LU: refactorize() fed sparse columns must reproduce a
// textbook dense partial-pivoting elimination bit for bit — the same row
// permutation, the same growth, and the same ftran/btran bits.
#include "gridsec/lp/basis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "gridsec/cps/perturbation.hpp"
#include "gridsec/flow/multiperiod.hpp"
#include "gridsec/flow/social_welfare.hpp"
#include "gridsec/lp/simplex.hpp"
#include "gridsec/sim/western_us.hpp"
#include "gridsec/util/rng.hpp"

namespace gridsec::lp {
namespace {

using Dense = std::vector<std::vector<double>>;

/// A column-sparse matrix in refactorize's input form.
struct Columns {
  std::vector<int> start{0};
  std::vector<ColumnEntry> entries;

  /// Appends a column given as row → value (zeros dropped); returns its
  /// index.
  int add(const std::map<int, double>& column) {
    for (const auto& [row, val] : column) {
      if (val != 0.0) entries.push_back({row, val});
    }
    start.push_back(static_cast<int>(entries.size()));
    return static_cast<int>(start.size()) - 2;
  }
};

/// The dense elimination refactorize replaced: P*B = L*U with L strictly
/// below the diagonal (unit) and U on and above it, both in `lu`.
struct DenseLu {
  bool ok = false;
  std::vector<int> perm;
  Dense lu;
  double growth = 1.0;
};

DenseLu dense_lu(Dense b) {
  const std::size_t m = b.size();
  DenseLu out;
  out.perm.resize(m);
  for (std::size_t i = 0; i < m; ++i) out.perm[i] = static_cast<int>(i);
  double max_b = 0.0;
  for (const auto& row : b) {
    for (const double v : row) max_b = std::max(max_b, std::fabs(v));
  }
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t pivot = k;
    double best = std::fabs(b[k][k]);
    for (std::size_t r = k + 1; r < m; ++r) {
      if (std::fabs(b[r][k]) > best) {
        best = std::fabs(b[r][k]);
        pivot = r;
      }
    }
    if (best < BasisFactorization::kPivotTol) return out;
    std::swap(b[pivot], b[k]);
    std::swap(out.perm[pivot], out.perm[k]);
    for (std::size_t r = k + 1; r < m; ++r) {
      if (b[r][k] == 0.0) continue;
      const double factor = b[r][k] / b[k][k];
      b[r][k] = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < m; ++c) b[r][c] -= factor * b[k][c];
    }
  }
  double max_u = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      max_u = std::max(max_u, std::fabs(b[i][j]));
    }
  }
  if (max_b > 0.0) out.growth = std::max(1.0, max_u / max_b);
  out.ok = true;
  out.lu = std::move(b);
  return out;
}

// Triangular solves over the oracle's nonzeros in ascending index order,
// the order BasisFactorization's ftran/btran use.
std::vector<double> dense_ftran(const DenseLu& f, std::vector<double> x) {
  const std::size_t m = x.size();
  std::vector<double> z(m);
  for (std::size_t i = 0; i < m; ++i) {
    z[i] = x[static_cast<std::size_t>(f.perm[i])];
  }
  for (std::size_t i = 1; i < m; ++i) {
    double acc = z[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (f.lu[i][j] != 0.0) acc -= f.lu[i][j] * z[j];
    }
    z[i] = acc;
  }
  for (std::size_t i = m; i-- > 0;) {
    double acc = z[i];
    for (std::size_t j = i + 1; j < m; ++j) {
      if (f.lu[i][j] != 0.0) acc -= f.lu[i][j] * z[j];
    }
    z[i] = acc / f.lu[i][i];
  }
  return z;
}

std::vector<double> dense_btran(const DenseLu& f, std::vector<double> y) {
  const std::size_t m = y.size();
  std::vector<double> z(m);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = y[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (f.lu[j][i] != 0.0) acc -= f.lu[j][i] * z[j];
    }
    z[i] = acc / f.lu[i][i];
  }
  for (std::size_t i = m; i-- > 0;) {
    double acc = z[i];
    for (std::size_t j = i + 1; j < m; ++j) {
      if (f.lu[j][i] != 0.0) acc -= f.lu[j][i] * z[j];
    }
    z[i] = acc;
  }
  for (std::size_t i = 0; i < m; ++i) {
    y[static_cast<std::size_t>(f.perm[i])] = z[i];
  }
  return y;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Factorizes the basis `basis` of `a` with `f` and with the dense oracle
/// and compares them bit for bit. Returns whether the basis was regular.
bool expect_matches_oracle(BasisFactorization& f, const Columns& a,
                           const std::vector<int>& basis) {
  const std::size_t m = basis.size();
  Dense b(m, std::vector<double>(m, 0.0));
  for (std::size_t j = 0; j < m; ++j) {
    const auto col = static_cast<std::size_t>(basis[j]);
    for (int q = a.start[col]; q < a.start[col + 1]; ++q) {
      const ColumnEntry& e = a.entries[static_cast<std::size_t>(q)];
      b[static_cast<std::size_t>(e.row)][j] = e.val;
    }
  }
  const DenseLu oracle = dense_lu(b);
  const bool ok = f.refactorize(a.start, a.entries, basis);
  EXPECT_EQ(ok, oracle.ok);
  EXPECT_EQ(f.valid(), ok);
  if (!ok || !oracle.ok) {
    EXPECT_EQ(f.size(), 0u);
    return false;
  }
  EXPECT_EQ(std::vector<int>(f.perm().begin(), f.perm().end()), oracle.perm);
  EXPECT_TRUE(same_bits(f.pivot_growth(), oracle.growth));
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> unit(m, 0.0);
    unit[i] = 1.0;
    std::vector<double> x = unit;
    f.ftran(x);
    const std::vector<double> want_x = dense_ftran(oracle, unit);
    std::vector<double> y = unit;
    f.btran(y);
    const std::vector<double> want_y = dense_btran(oracle, unit);
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_TRUE(same_bits(x[k], want_x[k]))
          << "ftran e" << i << " [" << k << "]: " << x[k] << " vs "
          << want_x[k];
      EXPECT_TRUE(same_bits(y[k], want_y[k]))
          << "btran e" << i << " [" << k << "]: " << y[k] << " vs "
          << want_y[k];
    }
  }
  return true;
}

/// Appends the standard-form columns of `problem` to `a` — structurals,
/// then one signed unit column per row (slack, surplus or artificial) —
/// and returns the columns of its optimal basis.
std::vector<int> optimal_basis(const Problem& problem, Columns& a) {
  const Solution solved = solve_lp(problem);
  EXPECT_EQ(solved.status, SolveStatus::kOptimal);
  std::vector<std::map<int, double>> cols(
      static_cast<std::size_t>(problem.num_variables()));
  for (int i = 0; i < problem.num_constraints(); ++i) {
    for (const Term& term : problem.constraint(i).terms) {
      cols[static_cast<std::size_t>(term.var)][i] += term.coef;
    }
  }
  std::vector<int> basis;
  for (std::size_t j = 0; j < cols.size(); ++j) {
    const int col = a.add(cols[j]);
    if (solved.basis.variables[j] == VarStatus::kBasic) basis.push_back(col);
  }
  for (int i = 0; i < problem.num_constraints(); ++i) {
    const double sign =
        problem.constraint(i).sense == Sense::kGreaterEqual ? -1.0 : 1.0;
    const int col = a.add({{i, sign}});
    if (solved.basis.rows[static_cast<std::size_t>(i)] == VarStatus::kBasic) {
      basis.push_back(col);
    }
  }
  EXPECT_EQ(basis.size(), static_cast<std::size_t>(problem.num_constraints()));
  return basis;
}

TEST(BasisLu, WesternUsBasesMatchDenseOracle) {
  // The optimal bases of the base welfare LP and of every single-asset
  // outage: the bases an impact-matrix sweep factorizes.
  const flow::Network net = sim::build_western_us().network;
  BasisFactorization f;
  int regular = 0;
  for (int t = -1; t < net.num_edges(); ++t) {
    flow::Network view = net;
    if (t >= 0) cps::apply_attack(view, {t, cps::AttackType::kOutage, 1.0});
    const Problem problem = flow::build_social_welfare_lp(view);
    ASSERT_EQ(problem.num_constraints(), 12);
    Columns a;
    const std::vector<int> basis = optimal_basis(problem, a);
    if (expect_matches_oracle(f, a, basis)) ++regular;
  }
  EXPECT_EQ(regular, net.num_edges() + 1);
}

TEST(BasisLu, RandomSparseBasesWithTiesMatchDenseOracle) {
  // ±1 entries make every pivot search a tie and many eliminations cancel
  // to exact zeros; a few ±2 and ±0.5 entries break some ties. One
  // factorization object serves every size, so its scratch must come back
  // clean after each call, singular ones included.
  Rng rng(20151);
  BasisFactorization f;
  int regular = 0;
  int singular = 0;
  for (int instance = 0; instance < 400; ++instance) {
    const int m = 2 + static_cast<int>(rng.uniform_index(19));
    Columns a;
    std::vector<int> basis;
    for (int j = 0; j < m; ++j) {
      std::map<int, double> col;
      const int nnz = 1 + static_cast<int>(rng.uniform_index(3));
      for (int q = 0; q < nnz; ++q) {
        const int row = static_cast<int>(rng.uniform_index(
            static_cast<std::uint64_t>(m)));
        const double mag = rng.bernoulli(0.15)
                               ? (rng.bernoulli(0.5) ? 2.0 : 0.5)
                               : 1.0;
        col[row] = rng.bernoulli(0.5) ? mag : -mag;
      }
      basis.push_back(a.add(col));
    }
    if (expect_matches_oracle(f, a, basis)) {
      ++regular;
    } else {
      ++singular;
    }
  }
  EXPECT_GT(regular, 50);
  EXPECT_GT(singular, 50);
}

TEST(BasisLu, SingularBasisIsRejectedLikeTheOracle) {
  // Column 2 = column 0 + column 1: singular at the last pivot, after two
  // successful elimination steps.
  Columns a;
  a.add({{0, 1.0}, {1, 2.0}});
  a.add({{1, 1.0}, {2, -1.0}});
  a.add({{0, 1.0}, {1, 3.0}, {2, -1.0}});
  BasisFactorization f;
  EXPECT_FALSE(expect_matches_oracle(f, a, {0, 1, 2}));
  EXPECT_FALSE(f.valid());
  // Reusable afterwards.
  Columns b;
  b.add({{0, 4.0}, {1, 1.0}});
  b.add({{0, 1.0}, {1, 4.0}});
  EXPECT_TRUE(expect_matches_oracle(f, b, {0, 1}));
}

TEST(BasisLu, HorizonBasisMatchesDenseOracle) {
  // The 174-row daily-horizon LP of the western US (four periods with
  // ramp limits).
  const flow::Network net = sim::build_western_us().network;
  flow::RampSpec ramp;
  ramp.limit_fraction = 0.5;
  const Problem problem =
      flow::build_multi_period_lp(net, flow::daily_periods(), ramp);
  ASSERT_EQ(problem.num_constraints(), 174);
  Columns a;
  const std::vector<int> basis = optimal_basis(problem, a);
  BasisFactorization f;
  EXPECT_TRUE(expect_matches_oracle(f, a, basis));
  // And again on an object that last factorized a smaller basis.
  Columns small;
  small.add({{0, 1.0}, {1, 1.0}});
  small.add({{0, 1.0}, {1, -1.0}});
  EXPECT_TRUE(expect_matches_oracle(f, small, {0, 1}));
  EXPECT_TRUE(expect_matches_oracle(f, a, basis));
}

/// ftran and btran of every unit vector, their bits in one vector.
std::vector<std::uint64_t> solve_bits(const BasisFactorization& f) {
  const std::size_t m = f.size();
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> x(m, 0.0);
    x[i] = 1.0;
    std::vector<double> y = x;
    f.ftran(x);
    f.btran(y);
    for (const double v : x) out.push_back(std::bit_cast<std::uint64_t>(v));
    for (const double v : y) out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

TEST(BasisLu, SharedScratchMatchesOwnScratch) {
  // Two factorizations that share one elimination scratch, refactorized in
  // turn at other sizes (singular bases included), must give the bits
  // factorizations with scratch of their own give.
  Rng rng(2016);
  BasisFactorization::Scratch shared;
  BasisFactorization first, second, own;
  for (int instance = 0; instance < 200; ++instance) {
    const int m = 1 + static_cast<int>(rng.uniform_index(14));
    Columns a;
    std::vector<int> basis;
    for (int j = 0; j < m; ++j) {
      std::map<int, double> col;
      col[j] = rng.uniform(0.5, 2.0);
      for (int q = 0; q < 2; ++q) {
        const int row = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(m)));
        col[row] = rng.bernoulli(0.2) ? 0.0 : rng.uniform(-1.0, 1.0);
      }
      basis.push_back(a.add(col));
    }
    BasisFactorization& on_shared = instance % 2 == 0 ? first : second;
    const bool ok = on_shared.refactorize(a.start, a.entries, basis, shared);
    ASSERT_EQ(own.refactorize(a.start, a.entries, basis), ok);
    if (!ok) continue;
    const std::span<const int> perm = on_shared.perm();
    EXPECT_EQ(std::vector<int>(perm.begin(), perm.end()),
              std::vector<int>(own.perm().begin(), own.perm().end()));
    EXPECT_TRUE(same_bits(on_shared.pivot_growth(), own.pivot_growth()));
    EXPECT_EQ(solve_bits(on_shared), solve_bits(own))
        << "instance " << instance;
  }
}

TEST(BasisLu, RewindRestoresTheFactorizationItsRefactorizeMade) {
  // A warm checkpoint's LU takes a solve's etas and then is rewound for
  // the next: an empty chain, the growth its refactorize measured, and
  // the solve bits it gave right after that refactorize.
  Columns a;
  a.add({{0, 2.0}, {1, 1.0}});
  a.add({{1, 3.0}, {2, 1.0}});
  a.add({{0, 1.0}, {2, 4.0}});
  const std::vector<int> basis = {0, 1, 2};
  BasisFactorization f;
  ASSERT_TRUE(f.refactorize(a.start, a.entries, basis));
  const double growth = f.pivot_growth();
  const std::vector<std::uint64_t> bits = solve_bits(f);

  // Two accepted etas, the second with a pivot 2e6 times smaller than its
  // direction's largest entry: the chain amplifies rounding by that much.
  ASSERT_TRUE(f.update(1, std::vector<double>{0.5, 1.5, -0.25}));
  ASSERT_TRUE(f.update(0, std::vector<double>{1e-6, 1.0, 2.0}));
  EXPECT_EQ(f.eta_count(), 2u);
  EXPECT_GT(f.pivot_growth(), BasisFactorization::kGrowthRefactorLimit);
  EXPECT_NE(solve_bits(f), bits);

  f.rewind();
  EXPECT_EQ(f.eta_count(), 0u);
  EXPECT_TRUE(same_bits(f.pivot_growth(), growth));
  EXPECT_EQ(solve_bits(f), bits);
}

}  // namespace
}  // namespace gridsec::lp
