#include "gridsec/cps/impact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <ostream>
#include <utility>

#include "gridsec/lp/basis.hpp"
#include "gridsec/lp/problem.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"

namespace gridsec::cps {

namespace {

// The target-sweep memo (docs/solvers.md, "The target-sweep memo").
//
// A target's attacked re-solve reads the network's edge data, the base
// basis it warm-starts from and the solver and allocator options. It does
// not read the ownership, which only decides which edge profits add up
// into which actor's row. So each thread keeps up to two clean sweeps,
// each recorded the second time its key is seen, and a later sweep under
// the same key rebuilds each held target's actor row from the stored edge
// profits with flow::actor_profits, the sum allocate_profits makes.

/// Everything a target sweep reads, as a stream of 64-bit words. Doubles
/// enter by their bit patterns, so keys match bit for bit, not by ==
/// (±0, NaN payloads).
class SweepKey {
 public:
  SweepKey(const flow::Network& net, const ImpactOptions& options,
           const flow::AllocationOptions& alloc)
      : net_(net), options_(options), alloc_(alloc) {
    // A 64-bit multiply-xorshift fingerprint: it admits keys to the memo
    // and filters lookups; a hit still compares every word.
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for_each_word([&](std::uint64_t w) {
      h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
      ++words_;
    });
    fingerprint_ = h;
  }

  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] std::size_t words() const { return words_; }

  template <typename Fn>
  void for_each_word(Fn&& fn) const {
    fn(net_.topology_id());
    for (const flow::Edge& e : net_.edges()) {
      fn(std::bit_cast<std::uint64_t>(e.capacity));
      fn(std::bit_cast<std::uint64_t>(e.cost));
      fn(std::bit_cast<std::uint64_t>(e.loss));
    }
    const lp::SimplexOptions& simplex = alloc_.welfare.simplex;
    // The base basis every target solve warm-starts from.
    pack_statuses(simplex.warm_start.variables, fn);
    pack_statuses(simplex.warm_start.rows, fn);
    fn(static_cast<std::uint64_t>(options_.attack_type));
    fn(std::bit_cast<std::uint64_t>(options_.attack_magnitude));
    fn(static_cast<std::uint64_t>(options_.skip_unused_targets));
    fn(static_cast<std::uint64_t>(alloc_.kind));
    fn(std::bit_cast<std::uint64_t>(alloc_.probe_fraction));
    fn(static_cast<std::uint64_t>(simplex.bland));
    fn(static_cast<std::uint64_t>(simplex.cycle_streak_limit));
  }

 private:
  /// The count, then 32 two-bit statuses a word.
  template <typename Fn>
  static void pack_statuses(const std::vector<lp::VarStatus>& statuses,
                            Fn& fn) {
    fn(static_cast<std::uint64_t>(statuses.size()));
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      word |= static_cast<std::uint64_t>(statuses[i]) << (2 * (i % 32));
      if (i % 32 == 31) {
        fn(word);
        word = 0;
      }
    }
    if (statuses.size() % 32 != 0) fn(word);
  }

  const flow::Network& net_;
  const ImpactOptions& options_;
  const flow::AllocationOptions& alloc_;
  std::uint64_t fingerprint_ = 0;
  std::size_t words_ = 0;
};

/// One kept sweep in a flat buffer, reserved once at kCapacity doubles and
/// reused in place: the key's words, then one record per solved target in
/// target order (the target, its attacked welfare, its edge profits).
class KeptSweep {
 public:
  /// 31.75 KiB: a western-US sweep takes about 21 KiB, or 27.7 KiB with
  /// every target solved.
  static constexpr std::size_t kCapacity = 4064;

  /// Whether a sweep under `key` that solves `targets` targets fits.
  [[nodiscard]] static bool fits(const SweepKey& key, int num_edges,
                                 int targets) {
    return key.words() + static_cast<std::size_t>(targets) *
                             (2 + static_cast<std::size_t>(num_edges)) <=
           kCapacity;
  }

  /// True when this holds a clean sweep under `key`.
  [[nodiscard]] bool matches(const SweepKey& key) const {
    if (!complete_ || fingerprint_ != key.fingerprint() ||
        key_words_ != key.words()) {
      return false;
    }
    std::size_t i = 0;
    bool same = true;
    key.for_each_word([&](std::uint64_t w) {
      same = same && std::memcmp(&data_[i], &w, sizeof w) == 0;
      ++i;
    });
    return same;
  }

  /// Starts recording a sweep under `key` over `num_edges` edges.
  void begin(const SweepKey& key, int num_edges) {
    data_.reserve(kCapacity);
    data_.resize(key.words());
    std::size_t i = 0;
    key.for_each_word([&](std::uint64_t w) {
      std::memcpy(&data_[i], &w, sizeof w);
      ++i;
    });
    fingerprint_ = key.fingerprint();
    key_words_ = key.words();
    stride_ = 2 + static_cast<std::size_t>(num_edges);
    complete_ = false;
  }

  void hold(int target, double welfare, std::span<const double> edge_profit) {
    GRIDSEC_ASSERT(edge_profit.size() + 2 == stride_);
    GRIDSEC_ASSERT(data_.size() + stride_ <= kCapacity);
    data_.push_back(static_cast<double>(target));
    data_.push_back(welfare);
    data_.insert(data_.end(), edge_profit.begin(), edge_profit.end());
  }

  /// Ends the recording; only a clean sweep is served later.
  void finish(bool clean) { complete_ = clean; }

  /// The record of target t (its welfare, then its edge profits), or
  /// nullptr when this sweep did not solve t. Targets are asked for in
  /// increasing order; `cursor` carries the position between calls.
  [[nodiscard]] const double* record(int t, std::size_t* cursor) const {
    if (*cursor < key_words_) *cursor = key_words_;
    const auto target = static_cast<double>(t);
    while (*cursor < data_.size() && data_[*cursor] < target) {
      *cursor += stride_;
    }
    if (*cursor < data_.size() && data_[*cursor] == target) {
      return &data_[*cursor + 1];
    }
    return nullptr;
  }

 private:
  std::vector<double> data_;
  std::uint64_t fingerprint_ = 0;
  std::size_t key_words_ = 0;
  std::size_t stride_ = 0;
  bool complete_ = false;
};

/// A thread's memo: two kept sweeps and a ring of the fingerprints of
/// recently seen keys. A key is kept the second time it is seen, in place
/// of the older kept sweep.
class SweepMemo {
 public:
  [[nodiscard]] const KeptSweep* find(const SweepKey& key) const {
    for (const KeptSweep& sweep : kept_) {
      if (sweep.matches(key)) return &sweep;
    }
    return nullptr;
  }

  /// After a miss: the sweep to record into, or nullptr when this is the
  /// key's first sighting or a sweep solving `targets` targets would not
  /// fit.
  KeptSweep* admit(const SweepKey& key, int num_edges, int targets) {
    const std::uint64_t fp = key.fingerprint();
    const auto seen_end =
        seen_.begin() + static_cast<std::ptrdiff_t>(seen_count_);
    if (std::find(seen_.begin(), seen_end, fp) == seen_end) {
      seen_[seen_next_] = fp;
      seen_next_ = (seen_next_ + 1) % seen_.size();
      seen_count_ = std::min(seen_count_ + 1, seen_.size());
      return nullptr;
    }
    if (!KeptSweep::fits(key, num_edges, targets)) return nullptr;
    KeptSweep& sweep = kept_[oldest_];
    oldest_ = (oldest_ + 1) % kept_.size();
    sweep.begin(key, num_edges);
    return &sweep;
  }

 private:
  std::array<KeptSweep, 2> kept_;
  std::size_t oldest_ = 0;
  std::array<std::uint64_t, 16> seen_{};
  std::size_t seen_count_ = 0;
  std::size_t seen_next_ = 0;
};

// Two kept buffers, the ring and the bookkeeping stay within 64 KiB a
// thread.
static_assert(sizeof(SweepMemo) + 2 * KeptSweep::kCapacity * sizeof(double) <=
              64 * 1024);

/// The calling thread's memo, a thread_local like the solver workspace:
/// made on first use, destroyed when the thread exits.
SweepMemo& thread_sweep_memo() {
  thread_local SweepMemo memo;
  return memo;
}

/// The memo stands aside (every target solved, nothing kept) when an
/// installed solve hook must see every solve, when a deadline may cut a
/// solve short, and when warm starts are off.
bool memo_applies(const lp::SimplexOptions& simplex) {
  const bool deadline = simplex.time_limit_ms > 0.0;
  return lp::solve_hook() == nullptr && !deadline &&
         lp::warm_start_enabled();
}

}  // namespace

ImpactMatrix::ImpactMatrix(int num_actors, int num_targets)
    : num_actors_(num_actors),
      num_targets_(num_targets),
      values_(static_cast<std::size_t>(num_actors) *
                  static_cast<std::size_t>(num_targets),
              0.0),
      system_impact_(static_cast<std::size_t>(num_targets), 0.0) {
  GRIDSEC_ASSERT(num_actors > 0 && num_targets >= 0);
}

double ImpactMatrix::total_gain(int target) const {
  double gain = 0.0;
  for (int a = 0; a < num_actors_; ++a) {
    gain += std::max(at(a, target), 0.0);
  }
  return gain;
}

double ImpactMatrix::total_loss(int target) const {
  double loss = 0.0;
  for (int a = 0; a < num_actors_; ++a) {
    loss += std::min(at(a, target), 0.0);
  }
  return loss;
}

double ImpactMatrix::aggregate_gain() const {
  double gain = 0.0;
  for (int t = 0; t < num_targets_; ++t) gain += total_gain(t);
  return gain;
}

double ImpactMatrix::aggregate_loss() const {
  double loss = 0.0;
  for (int t = 0; t < num_targets_; ++t) loss += total_loss(t);
  return loss;
}

StatusOr<ImpactResult> compute_impact_matrix(const flow::Network& net,
                                             const Ownership& ownership,
                                             const ImpactOptions& options) {
  GRIDSEC_TRACE_SPAN("cps.impact.matrix");
  static obs::Counter& c_computes =
      obs::default_registry().counter("cps.impact.matrix_computes");
  // Targets whose attacked re-solve only succeeded because the
  // numerical-recovery ladder engaged: the matrix entry is certified, but
  // a sweep producing many of these is running close to the edge.
  static obs::Counter& c_recovered =
      obs::default_registry().counter("cps.impact.recovered_targets");
  // Targets served from the thread's target-sweep memo instead of solved.
  static obs::Counter& c_reused =
      obs::default_registry().counter("cps.impact.reused_targets");
  c_computes.add();
  if (ownership.num_assets() != net.num_edges()) {
    return Status::invalid_argument(
        "compute_impact_matrix: ownership size != edge count");
  }
  const int n_actors = ownership.num_actors();
  const int n_targets = net.num_edges();

  flow::AllocationOptions alloc = options.allocation;
  alloc.warm_start = options.warm_start;
  // Every solve in this sweep — the base model and each single-edge attack
  // scenario — shares one topology, so one welfare model serves them all:
  // built once at the base solve, refreshed in place per target.
  flow::SocialWelfareModel welfare_model;
  if (alloc.model == nullptr) alloc.model = &welfare_model;
  flow::AllocationResult base = [&] {
    GRIDSEC_TRACE_SPAN("cps.impact.base_solve");
    return flow::allocate_profits(net, ownership.owners(), n_actors, alloc);
  }();
  if (!base.optimal()) {
    // Preserve the failure class (time limit / numerical / infeasible) so
    // robust sweeps can apply the right retry policy.
    return lp::to_status(base.status,
                         "compute_impact_matrix: base model not solvable");
  }

  ImpactResult out{ImpactMatrix(n_actors, n_targets), base.actor_profit,
                   base.welfare, 0, base.basis};

  // Every attacked scenario differs from the base model only in one
  // edge's data, so its LP re-solve warm-starts from the base basis. It
  // goes in the welfare options once, which allocate_profits passes on
  // without a copy; the solver's workspace then keeps the crash of this
  // basis, its LU and the rows of the model's LP for every target (see
  // lp/workspace.hpp).
  alloc.warm_start = lp::Basis{};
  alloc.welfare.simplex.warm_start = std::move(base.basis);

  const bool capacity_attack = options.attack_type == AttackType::kOutage ||
                               options.attack_type ==
                                   AttackType::kCapacityScale;
  // Capacity removal on an edge idle at the base optimum is inert: its
  // column stays zero.
  const auto solved = [&](int t) {
    return !(options.skip_unused_targets && capacity_attack &&
             base.flow[static_cast<std::size_t>(t)] <= 1e-12);
  };

  // A sweep this thread has kept under the same key serves the targets it
  // holds; a sweep seen for the second time is recorded.
  const KeptSweep* kept = nullptr;
  KeptSweep* recording = nullptr;
  if (memo_applies(alloc.welfare.simplex)) {
    SweepMemo& memo = thread_sweep_memo();
    const SweepKey key(net, options, alloc);
    kept = memo.find(key);
    if (kept == nullptr) {
      int targets = 0;
      for (int t = 0; t < n_targets; ++t) targets += solved(t) ? 1 : 0;
      recording = memo.admit(key, n_targets, targets);
    }
  }

  const auto set_column = [&](int t, double welfare,
                              std::span<const double> actor_profit) {
    for (int a = 0; a < n_actors; ++a) {
      out.matrix.set(a, t,
                     actor_profit[static_cast<std::size_t>(a)] -
                         base.actor_profit[static_cast<std::size_t>(a)]);
    }
    out.matrix.set_system_impact(t, welfare - base.welfare);
  };

  // One scratch network reused across targets: apply the attack, solve,
  // then restore the edge — instead of deep-copying the whole network per
  // target. A fully served sweep never copies it. Each target divides into
  // the one `after` (and a served one sums its actor row into `served`),
  // whose vectors keep their capacity from target to target.
  std::optional<flow::Network> scratch;
  flow::AllocationResult after;
  std::vector<double> served;
  std::size_t cursor = 0;
  bool clean = true;
  GRIDSEC_TRACE_SPAN("cps.impact.target_solves");
  for (int t = 0; t < n_targets; ++t) {
    if (!solved(t)) continue;
    if (kept != nullptr) {
      if (const double* record = kept->record(t, &cursor)) {
        c_reused.add();
        flow::actor_profits({record + 1, static_cast<std::size_t>(n_targets)},
                            ownership.owners(), n_actors, served);
        set_column(t, record[0], served);
        continue;
      }
    }
    if (!scratch) scratch.emplace(net);
    const double capacity = scratch->edge(t).capacity;
    const double cost = scratch->edge(t).cost;
    const double loss = scratch->edge(t).loss;
    apply_attack(*scratch,
                 {t, options.attack_type, options.attack_magnitude});
    flow::allocate_profits(*scratch, ownership.owners(), n_actors, alloc,
                           after);
    scratch->set_capacity(t, capacity);
    scratch->set_cost(t, cost);
    scratch->set_loss(t, loss);
    if (!after.optimal()) {
      ++out.failed_targets;
      clean = false;
      continue;
    }
    if (after.recovered) {
      c_recovered.add();
      clean = false;
    }
    if (recording != nullptr) {
      recording->hold(t, after.welfare, after.edge_profit);
    }
    set_column(t, after.welfare, after.actor_profit);
  }
  if (recording != nullptr) recording->finish(clean);
  return out;
}

void write_impact_csv(std::ostream& os, const ImpactMatrix& im,
                      const flow::Network& net) {
  GRIDSEC_ASSERT(net.num_edges() == im.num_targets());
  os << "target,system";
  for (int a = 0; a < im.num_actors(); ++a) os << ",actor" << a;
  os << '\n';
  for (int t = 0; t < im.num_targets(); ++t) {
    os << net.edge(t).name << ',' << im.system_impact(t);
    for (int a = 0; a < im.num_actors(); ++a) os << ',' << im.at(a, t);
    os << '\n';
  }
}

}  // namespace gridsec::cps
