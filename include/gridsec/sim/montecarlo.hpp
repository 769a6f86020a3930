// Parallel Monte-Carlo trial harness.
//
// Every experiment in the paper averages over random ownership draws and
// noise realizations. run_trials executes `fn(trial_index, rng)` for each
// trial with a counter-derived RNG stream, so results are bit-identical
// regardless of thread count or scheduling order.
//
// A trial reports failure as a non-ok StatusOr instead of taking the whole
// sweep down: the sweep returns the successful trials' results plus the
// failures, and each failure is counted in the obs metrics. A failed trial
// is dropped, never redrawn: a redraw would replace it with a different
// draw and bias the point's mean. Numerical trouble inside an LP solve is
// handled one level down, by the recovery ladder (robust::install_recovery),
// which escalates in place and usually comes back certified-optimal.
#pragma once

#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"
#include "gridsec/util/error.hpp"
#include "gridsec/util/rng.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace gridsec::sim {

/// One failed trial: which trial and the Status it returned.
struct TrialFailure {
  std::size_t trial = 0;
  Status status;
};

template <typename T>
struct TrialResults {
  /// Per-trial outcome in trial order; nullopt = the trial failed.
  std::vector<std::optional<T>> results;
  std::vector<TrialFailure> failures;  // trial order
};

namespace detail {
/// Counts a failed trial in sim.montecarlo.failed_trials and the per-code
/// sim.montecarlo.failed.<CODE>, and logs it (trial index + sweep seed +
/// error) so the record lands in the audit-bundle log tail of whatever
/// solve failed the trial.
void note_trial_failure(const Status& status, std::size_t trial,
                        std::uint64_t seed);
}  // namespace detail

/// Runs `n` trials in parallel over `pool` (serially when pool is null).
/// `fn(trial, rng)` returns StatusOr<T>; each trial gets
/// Rng(seed).derive_stream(trial). An exception escaping `fn` becomes a
/// kInternal failure of that trial.
template <typename T, typename F>
TrialResults<T> run_trials(ThreadPool* pool, std::size_t n,
                           std::uint64_t seed, const F& fn) {
  static_assert(
      std::is_invocable_r_v<StatusOr<T>, const F&, std::size_t, Rng&>,
      "run_trials fn must be callable as StatusOr<T>(trial, rng)");
  GRIDSEC_TRACE_SPAN("sim.run_trials");
  static obs::Counter& c_trials =
      obs::default_registry().counter("sim.montecarlo.trials");
  c_trials.add(static_cast<std::int64_t>(n));

  TrialResults<T> out;
  out.results.assign(n, std::nullopt);
  std::vector<Status> error(n, Status::ok());
  const Rng parent(seed);
  parallel_for(pool, n, [&](std::size_t i) {
    GRIDSEC_TRACE_SPAN("sim.trial");
    Rng rng = parent.derive_stream(i);
    StatusOr<T> r = [&]() -> StatusOr<T> {
      try {
        return fn(i, rng);
      } catch (const std::exception& e) {
        return Status::internal(std::string("trial threw: ") + e.what());
      }
    }();
    if (r.is_ok()) {
      out.results[i] = std::move(r).value();
    } else {
      error[i] = r.status();
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    if (error[i].is_ok()) continue;
    out.failures.push_back({i, error[i]});
    detail::note_trial_failure(error[i], i, seed);
  }
  return out;
}

}  // namespace gridsec::sim
