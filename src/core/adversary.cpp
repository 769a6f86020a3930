#include "gridsec/core/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "gridsec/obs/log.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"
#include "gridsec/util/deadline.hpp"

namespace gridsec::core {
namespace {

constexpr double kActiveTol = 1e-9;

double cost_of(const AdversaryConfig& cfg, int target) {
  if (cfg.attack_cost.empty()) return 0.0;
  return cfg.attack_cost[static_cast<std::size_t>(target)];
}

double ps_of(const AdversaryConfig& cfg, int target) {
  if (cfg.success_prob.empty()) return 1.0;
  return cfg.success_prob[static_cast<std::size_t>(target)];
}

void validate_config(const AdversaryConfig& cfg, int n_targets) {
  GRIDSEC_ASSERT(cfg.attack_cost.empty() ||
                 cfg.attack_cost.size() == static_cast<std::size_t>(n_targets));
  GRIDSEC_ASSERT(cfg.success_prob.empty() ||
                 cfg.success_prob.size() ==
                     static_cast<std::size_t>(n_targets));
}

/// A target plan() may add, with its standalone worth w_i (see header).
struct Candidate {
  int target;
  double worth;  // w_i
  double cost;
  const double* v;  // its weighted row v_·i, one entry per actor
};

/// plan()'s buffers, kept per thread like the solver workspace and the
/// target-sweep memo: a plan allocates only the AttackPlan it returns.
struct PlanScratch {
  std::vector<double> rows;  // target t's weighted row at [t·na, t·na + na)
  std::vector<Candidate> cands;
  std::vector<double> swing;
  std::vector<int> current;
};

PlanScratch& thread_plan_scratch() {
  thread_local PlanScratch scratch;
  return scratch;
}

}  // namespace

bool AttackPlan::attacks(int target) const {
  return std::find(targets.begin(), targets.end(), target) != targets.end();
}

double StrategicAdversary::evaluate_target_set(
    const cps::ImpactMatrix& im, const std::vector<int>& targets,
    std::vector<int>* best_actors) const {
  double value = 0.0;
  for (int t : targets) value -= cost_of(config_, t);
  if (best_actors != nullptr) best_actors->clear();
  for (int a = 0; a < im.num_actors(); ++a) {
    double swing = 0.0;
    for (int t : targets) swing += im.at(a, t) * ps_of(config_, t);
    if (swing > kActiveTol) {
      value += swing;
      if (best_actors != nullptr) best_actors->push_back(a);
    }
  }
  return value;
}

AttackPlan StrategicAdversary::plan(const cps::ImpactMatrix& im) const {
  GRIDSEC_TRACE_SPAN("core.adversary.plan");
  auto& reg = obs::default_registry();
  static obs::Counter& c_plans = reg.counter("core.adversary.plans");
  static obs::Counter& c_nodes = reg.counter("core.adversary.search_nodes");
  c_plans.add();
  validate_config(config_, im.num_targets());
  const int nt = im.num_targets();
  const int na = im.num_actors();
  const auto nas = static_cast<std::size_t>(na);

  // Each target's weighted column v_ji = IM[j,i]·Ps(i), written once into
  // one contiguous row: the worths below and every search node read it
  // there instead of re-multiplying a column IM stores at a stride of nt.
  // The products and the order of every sum are unchanged, so the search
  // visits the same nodes and keeps the same incumbents.
  PlanScratch& scratch = thread_plan_scratch();
  std::vector<double>& rows = scratch.rows;
  rows.resize(static_cast<std::size_t>(nt) * nas);
  for (int i = 0; i < nt; ++i) {
    const double ps = ps_of(config_, i);
    double* v = rows.data() + static_cast<std::size_t>(i) * nas;
    for (int j = 0; j < na; ++j) v[j] = im.at(j, i) * ps;
  }

  // Candidate targets ordered by standalone worth w_i (see header); targets
  // with w_i <= 0 can never improve any plan and are dropped.
  std::vector<Candidate>& cands = scratch.cands;
  cands.clear();
  for (int i = 0; i < nt; ++i) {
    const double* v = rows.data() + static_cast<std::size_t>(i) * nas;
    double pos = 0.0;
    for (std::size_t j = 0; j < nas; ++j) {
      if (v[j] > 0.0) pos += v[j];
    }
    const double w = pos - cost_of(config_, i);
    if (w > kActiveTol && cost_of(config_, i) <= config_.budget) {
      cands.push_back({i, w, cost_of(config_, i), v});
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.worth > b.worth;
            });
  // Suffix table: bound_add[k][m] = sum of the m largest worths among
  // cands[k..]; since cands are sorted by worth, that is just the next m.
  const int max_pick =
      config_.max_targets >= 0
          ? std::min<int>(config_.max_targets, static_cast<int>(cands.size()))
          : static_cast<int>(cands.size());

  AttackPlan best;
  best.status = lp::SolveStatus::kOptimal;
  best.anticipated_return = 0.0;  // the empty attack is always available

  std::vector<double>& swing = scratch.swing;
  swing.assign(nas, 0.0);
  std::vector<int>& current = scratch.current;
  current.clear();
  long nodes = 0;
  bool exhausted = false;
  bool timed_out = false;
  // Checked every 1024 nodes: a steady_clock read per node would dominate
  // the (very cheap) bound arithmetic on big searches.
  const Deadline deadline = Deadline::in_ms(config_.time_limit_ms);

  const auto value_of_swings = [&](double spent) {
    double v = -spent;
    for (double s : swing) v += std::max(0.0, s);
    return v;
  };

  const auto dfs = [&](auto&& self, std::size_t idx, double spent) -> void {
    if (exhausted) return;
    if (++nodes > config_.max_nodes) {
      exhausted = true;
      return;
    }
    if ((nodes & 1023) == 0 && deadline.expired()) {
      exhausted = true;
      timed_out = true;
      return;
    }
    const double value = value_of_swings(spent);
    if (value > best.anticipated_return + kActiveTol) {
      best.targets = current;
      best.anticipated_return = value;
    }
    if (static_cast<int>(current.size()) >= max_pick) return;
    // Subadditivity bound: the best any completion can add is the sum of
    // the top remaining worths that still fit the cardinality cap.
    const int slots = max_pick - static_cast<int>(current.size());
    double bound = value;
    int taken = 0;
    for (std::size_t k = idx; k < cands.size() && taken < slots; ++k) {
      bound += cands[k].worth;
      ++taken;
    }
    if (bound <= best.anticipated_return + kActiveTol) return;
    for (std::size_t k = idx; k < cands.size(); ++k) {
      const Candidate& c = cands[k];
      if (spent + c.cost > config_.budget + kActiveTol) continue;
      current.push_back(c.target);
      for (std::size_t j = 0; j < nas; ++j) swing[j] += c.v[j];
      self(self, k + 1, spent + c.cost);
      for (std::size_t j = 0; j < nas; ++j) swing[j] -= c.v[j];
      current.pop_back();
      if (exhausted) return;
      // After declining the best remaining candidate, re-check the bound
      // for the weaker tail.
      const int slots_left = max_pick - static_cast<int>(current.size());
      double tail_bound = value;
      int t2 = 0;
      for (std::size_t k2 = k + 1; k2 < cands.size() && t2 < slots_left;
           ++k2) {
        tail_bound += cands[k2].worth;
        ++t2;
      }
      if (tail_bound <= best.anticipated_return + kActiveTol) break;
    }
  };
  dfs(dfs, 0, 0.0);
  c_nodes.add(nodes);

  if (exhausted) {
    // Keep whichever is better: the incumbent or the greedy plan.
    AttackPlan greedy = plan_greedy(im);
    if (greedy.anticipated_return > best.anticipated_return) {
      best = std::move(greedy);
    }
    best.status = timed_out ? lp::SolveStatus::kTimeLimit
                            : lp::SolveStatus::kIterationLimit;
    best.anticipated_return =
        evaluate_target_set(im, best.targets, &best.actors);
    GRIDSEC_LOG(kWarn, "core.adversary")
        .field("status", lp::to_string(best.status))
        .field("nodes", nodes)
        .field("targets", best.targets.size())
        .field("return", best.anticipated_return)
        .message("target search budget exhausted; best incumbent kept");
    return best;
  }
  best.anticipated_return =
      evaluate_target_set(im, best.targets, &best.actors);
  GRIDSEC_LOG(kDebug, "core.adversary")
      .field("nodes", nodes)
      .field("targets", best.targets.size())
      .field("return", best.anticipated_return);
  return best;
}

AttackPlan StrategicAdversary::plan_milp(const cps::ImpactMatrix& im) const {
  GRIDSEC_TRACE_SPAN("core.adversary.plan_milp");
  validate_config(config_, im.num_targets());
  const int nt = im.num_targets();
  const int na = im.num_actors();

  lp::Problem p(lp::Objective::kMaximize);
  // T(i): attack target i (Eq 9). Objective carries -Catk(i).
  std::vector<int> tvar(static_cast<std::size_t>(nt));
  for (int i = 0; i < nt; ++i) {
    tvar[static_cast<std::size_t>(i)] = p.add_binary(
        std::string("T").append(std::to_string(i)), -cost_of(config_, i));
  }
  // A(j) as a continuous gate in [0,1] (integrality is implied; see header)
  // and u_j = the SA's take from actor j's swing.
  std::vector<int> avar(static_cast<std::size_t>(na));
  std::vector<int> uvar(static_cast<std::size_t>(na));
  for (int j = 0; j < na; ++j) {
    double b_pos = 0.0;  // B_j: best possible positive swing
    double b_neg = 0.0;  // M_j: worst possible negative swing (magnitude)
    for (int i = 0; i < nt; ++i) {
      const double c = im.at(j, i) * ps_of(config_, i);
      if (c > 0.0) b_pos += c;
      if (c < 0.0) b_neg += -c;
    }
    avar[static_cast<std::size_t>(j)] =
        p.add_binary(std::string("A").append(std::to_string(j)), 0.0);
    uvar[static_cast<std::size_t>(j)] =
        p.add_variable(std::string("u").append(std::to_string(j)), 0.0,
                       std::max(b_pos, 0.0), 1.0);
    // u_j <= B_j * A_j.
    p.add_constraint("gate" + std::to_string(j),
                     lp::LinearExpr()
                         .add(uvar[static_cast<std::size_t>(j)], 1.0)
                         .add(avar[static_cast<std::size_t>(j)], -b_pos),
                     lp::Sense::kLessEqual, 0.0);
    // u_j <= sum_i c_ij T_i + M_j (1 - A_j).
    lp::LinearExpr swing;
    swing.add(uvar[static_cast<std::size_t>(j)], 1.0);
    for (int i = 0; i < nt; ++i) {
      const double c = im.at(j, i) * ps_of(config_, i);
      if (c != 0.0) swing.add(tvar[static_cast<std::size_t>(i)], -c);
    }
    swing.add(avar[static_cast<std::size_t>(j)], b_neg);
    p.add_constraint("take" + std::to_string(j), std::move(swing),
                     lp::Sense::kLessEqual, b_neg);
  }
  // Budget (Eq 11).
  if (std::isfinite(config_.budget) && !config_.attack_cost.empty()) {
    lp::LinearExpr budget;
    for (int i = 0; i < nt; ++i) {
      budget.add(tvar[static_cast<std::size_t>(i)], cost_of(config_, i));
    }
    p.add_constraint("budget", std::move(budget), lp::Sense::kLessEqual,
                     config_.budget);
  }
  // Optional cardinality cap (the experiments' "maximum of six targets").
  if (config_.max_targets >= 0) {
    lp::LinearExpr card;
    for (int i = 0; i < nt; ++i) {
      card.add(tvar[static_cast<std::size_t>(i)], 1.0);
    }
    p.add_constraint("cardinality", std::move(card), lp::Sense::kLessEqual,
                     static_cast<double>(config_.max_targets));
  }

  lp::BranchAndBoundOptions bnb;
  bnb.time_limit_ms = config_.time_limit_ms;
  lp::Solution sol = lp::BranchAndBoundSolver(bnb).solve(p);
  AttackPlan out;
  out.status = sol.status;
  // A budget-limited solve still carries a feasible incumbent target set;
  // extract it (status stays non-optimal so callers know it is unproven).
  if (!sol.optimal() &&
      !(lp::is_budget_limited(sol.status) && !sol.x.empty())) {
    return out;
  }

  for (int i = 0; i < nt; ++i) {
    if (sol.x[static_cast<std::size_t>(tvar[static_cast<std::size_t>(i)])] >
        0.5) {
      out.targets.push_back(i);
    }
  }
  // Recover A and the exact objective from the chosen target set (cleans up
  // any LP-level ambiguity in the gates).
  out.anticipated_return = evaluate_target_set(im, out.targets, &out.actors);
  return out;
}

AttackPlan StrategicAdversary::plan_enumerate(
    const cps::ImpactMatrix& im) const {
  validate_config(config_, im.num_targets());
  const int nt = im.num_targets();
  // Prune targets that help no actor: they can only cost money.
  std::vector<int> candidates;
  for (int i = 0; i < nt; ++i) {
    for (int a = 0; a < im.num_actors(); ++a) {
      if (im.at(a, i) > kActiveTol) {
        candidates.push_back(i);
        break;
      }
    }
  }

  AttackPlan best;
  best.status = lp::SolveStatus::kOptimal;
  best.anticipated_return = 0.0;  // the empty attack is always available

  std::vector<int> current;
  const auto recurse = [&](auto&& self, std::size_t index,
                           double spent) -> void {
    if (config_.max_targets >= 0 &&
        static_cast<int>(current.size()) > config_.max_targets) {
      return;
    }
    std::vector<int> actors;
    const double value = evaluate_target_set(im, current, &actors);
    if (value > best.anticipated_return + kActiveTol) {
      best.targets = current;
      best.actors = std::move(actors);
      best.anticipated_return = value;
    }
    if (index >= candidates.size()) return;
    if (config_.max_targets >= 0 &&
        static_cast<int>(current.size()) == config_.max_targets) {
      return;
    }
    for (std::size_t k = index; k < candidates.size(); ++k) {
      const int t = candidates[k];
      const double c = cost_of(config_, t);
      if (spent + c > config_.budget + kActiveTol) continue;
      current.push_back(t);
      self(self, k + 1, spent + c);
      current.pop_back();
    }
  };
  recurse(recurse, 0, 0.0);
  return best;
}

AttackPlan StrategicAdversary::plan_greedy(const cps::ImpactMatrix& im) const {
  validate_config(config_, im.num_targets());
  const int nt = im.num_targets();
  AttackPlan out;
  out.status = lp::SolveStatus::kOptimal;
  std::vector<bool> chosen(static_cast<std::size_t>(nt), false);
  std::vector<int> current;
  double spent = 0.0;
  double value = 0.0;
  for (;;) {
    if (config_.max_targets >= 0 &&
        static_cast<int>(current.size()) >= config_.max_targets) {
      break;
    }
    int best_t = -1;
    double best_value = value + kActiveTol;
    for (int t = 0; t < nt; ++t) {
      if (chosen[static_cast<std::size_t>(t)]) continue;
      if (spent + cost_of(config_, t) > config_.budget + kActiveTol) continue;
      current.push_back(t);
      const double v = evaluate_target_set(im, current, nullptr);
      current.pop_back();
      if (v > best_value) {
        best_value = v;
        best_t = t;
      }
    }
    if (best_t < 0) break;
    chosen[static_cast<std::size_t>(best_t)] = true;
    current.push_back(best_t);
    spent += cost_of(config_, best_t);
    value = best_value;
  }
  out.targets = std::move(current);
  out.anticipated_return = evaluate_target_set(im, out.targets, &out.actors);
  return out;
}

AttackPlan random_attack_plan(const cps::ImpactMatrix& im,
                              const AdversaryConfig& config, Rng& rng) {
  const int nt = im.num_targets();
  const int k = config.max_targets >= 0 ? std::min(config.max_targets, nt)
                                        : nt;
  std::vector<int> order(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) order[static_cast<std::size_t>(t)] = t;
  rng.shuffle(order);

  AttackPlan out;
  out.status = lp::SolveStatus::kOptimal;
  double spent = 0.0;
  for (int t : order) {
    if (static_cast<int>(out.targets.size()) >= k) break;
    const double c = config.attack_cost.empty()
                         ? 0.0
                         : config.attack_cost[static_cast<std::size_t>(t)];
    if (spent + c > config.budget + kActiveTol) continue;
    out.targets.push_back(t);
    spent += c;
  }
  std::sort(out.targets.begin(), out.targets.end());
  // Positions are still chosen rationally for the random target set.
  out.anticipated_return = -spent;
  for (int a = 0; a < im.num_actors(); ++a) {
    double swing = 0.0;
    for (int t : out.targets) {
      const double ps = config.success_prob.empty()
                            ? 1.0
                            : config.success_prob[static_cast<std::size_t>(t)];
      swing += im.at(a, t) * ps;
    }
    if (swing > kActiveTol) {
      out.anticipated_return += swing;
      out.actors.push_back(a);
    }
  }
  return out;
}

double realized_return(const cps::ImpactMatrix& truth, const AttackPlan& plan,
                       const AdversaryConfig& config) {
  double value = 0.0;
  for (int t : plan.targets) {
    value -= config.attack_cost.empty()
                 ? 0.0
                 : config.attack_cost[static_cast<std::size_t>(t)];
    const double ps = config.success_prob.empty()
                          ? 1.0
                          : config.success_prob[static_cast<std::size_t>(t)];
    for (int a : plan.actors) {
      value += truth.at(a, t) * ps;
    }
  }
  return value;
}

StatusOr<double> realized_return_joint(const flow::Network& truth_net,
                                       const cps::Ownership& ownership,
                                       const AttackPlan& plan,
                                       const AdversaryConfig& config,
                                       const cps::ImpactOptions& options) {
  flow::AllocationOptions alloc = options.allocation;
  alloc.warm_start = options.warm_start;
  // Base and attacked models share one topology (attacks only change edge
  // data), so both welfare solves share one model: built at the base
  // solve, refreshed in place for the attacked re-solve.
  flow::SocialWelfareModel welfare_model;
  if (alloc.model == nullptr) alloc.model = &welfare_model;
  flow::AllocationResult base = flow::allocate_profits(
      truth_net, ownership.owners(), ownership.num_actors(), alloc);
  if (!base.optimal()) {
    return Status::infeasible("realized_return_joint: base not solvable");
  }
  // The attacked model differs from the base only in the struck edges.
  alloc.warm_start = lp::Basis{};
  alloc.welfare.simplex.warm_start = std::move(base.basis);
  flow::Network hit = truth_net;
  double cost = 0.0;
  for (int t : plan.targets) {
    cps::apply_attack(hit, {t, options.attack_type, options.attack_magnitude});
    cost += config.attack_cost.empty()
                ? 0.0
                : config.attack_cost[static_cast<std::size_t>(t)];
  }
  flow::AllocationResult after = flow::allocate_profits(
      hit, ownership.owners(), ownership.num_actors(), alloc);
  if (!after.optimal()) {
    return Status::infeasible("realized_return_joint: attacked not solvable");
  }
  double value = -cost;
  for (int a : plan.actors) {
    value += after.actor_profit[static_cast<std::size_t>(a)] -
             base.actor_profit[static_cast<std::size_t>(a)];
  }
  return value;
}

}  // namespace gridsec::core
