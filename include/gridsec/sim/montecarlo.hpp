// Parallel Monte-Carlo trial harness.
//
// Every experiment in the paper averages over random ownership draws and
// noise realizations. run_trials executes `fn(trial_index, rng)` for each
// trial with a counter-derived RNG stream, so results are bit-identical
// regardless of thread count or scheduling order.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "gridsec/lp/basis.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/trace.hpp"
#include "gridsec/util/error.hpp"
#include "gridsec/util/rng.hpp"
#include "gridsec/util/stats.hpp"
#include "gridsec/util/thread_pool.hpp"

namespace gridsec::sim {

/// Runs `n` trials in parallel over `pool` (serially when pool is null).
/// Each trial gets Rng(seed).derive_stream(trial); results are returned in
/// trial order.
template <typename T>
std::vector<T> run_trials(ThreadPool* pool, std::size_t n,
                          std::uint64_t seed,
                          const std::function<T(std::size_t, Rng&)>& fn) {
  GRIDSEC_TRACE_SPAN("sim.run_trials");
  static obs::Counter& c_trials =
      obs::default_registry().counter("sim.montecarlo.trials");
  c_trials.add(static_cast<std::int64_t>(n));
  std::vector<T> results(n);
  const Rng parent(seed);
  parallel_for(pool, n, [&](std::size_t i) {
    GRIDSEC_TRACE_SPAN("sim.trial");
    Rng rng = parent.derive_stream(i);
    results[i] = fn(i, rng);
  });
  return results;
}

/// Scalar convenience: runs trials and folds them into RunningStats.
RunningStats run_scalar_trials(
    ThreadPool* pool, std::size_t n, std::uint64_t seed,
    const std::function<double(std::size_t, Rng&)>& fn);

// ---------------------------------------------------------------------------
// Degrade-don't-die variant.
//
// run_trials_robust lets individual trials fail as Status values instead of
// taking the whole sweep down: failed trials are recorded (with an obs
// breakdown by error code), numerical failures get a bounded number of
// fresh-stream retries, and the sweep returns partial results plus a
// failure summary. A trial that succeeds on attempt 0 sees exactly the same
// RNG stream as run_trials, so fully-successful sweeps are bit-identical to
// the non-robust harness.
//
// Retries are the SECOND line of defense: with the numerical-recovery
// ladder installed (robust::install_recovery), an LP solve that hits
// kNumericalError escalates through the ladder in place and usually comes
// back certified-optimal — the trial never fails at all. Only failures the
// ladder cannot resolve (or non-LP trial errors) reach the retry loop here.

struct RobustTrialOptions {
  /// Total attempts per trial (1 = no retry). Retries fire only for
  /// ErrorCode::kNumericalError — the one failure class where the same
  /// trial redrawn from another RNG stream plausibly succeeds. Each retry
  /// gets an independent RNG stream derived from the trial's stream; the
  /// harness perturbs nothing else.
  int max_attempts = 1;
  /// Abort the sweep on the first (post-retry) failure. Remaining trials
  /// are skipped, not failed; which trials got skipped depends on thread
  /// timing, so fail-fast trades determinism of coverage for latency.
  bool fail_fast = false;
};

/// One failed trial: which trial and the Status from its final attempt.
struct TrialFailure {
  std::size_t trial = 0;
  Status status;
};

template <typename T>
struct RobustTrialResults {
  /// Per-trial outcome in trial order; nullopt = failed or skipped.
  std::vector<std::optional<T>> results;
  std::vector<TrialFailure> failures;  // trial order
  std::size_t failed = 0;
  std::size_t skipped = 0;  // fail-fast only
  std::size_t retries = 0;  // extra attempts spent across all trials

  [[nodiscard]] bool all_ok() const { return failed == 0 && skipped == 0; }
  [[nodiscard]] std::size_t succeeded() const {
    return results.size() - failed - skipped;
  }
};

namespace detail {
/// Metrics hooks (montecarlo.cpp): sim.montecarlo.failed_trials plus a
/// per-code breakdown counter, and sim.montecarlo.retries. Each failure is
/// also logged (trial index + sweep seed + error) so the record lands in
/// the audit-bundle log tail of whatever solve failed the trial.
void note_trial_failure(const Status& status, std::size_t trial,
                        std::uint64_t seed);
void note_trial_retries(std::size_t retries);
/// "3/100 trials failed (NUMERICAL_ERROR x2, TIME_LIMIT x1), 4 retries".
std::string summarize_failures(std::size_t n,
                               const std::vector<TrialFailure>& failures,
                               std::size_t skipped, std::size_t retries);
}  // namespace detail

/// Runs `n` trials like run_trials, but a trial reports failure by
/// returning a non-ok StatusOr (exceptions escaping `fn` are converted to
/// kInternal). `fn` receives (trial, rng, attempt); attempt 0 carries the
/// canonical per-trial stream, attempt k > 0 an independent retry stream.
///
/// `fn` may instead take (trial, rng, attempt, lp::Basis*): the harness
/// then owns one basis slot per trial that lives across retry attempts.
/// A trial that stores its solve's final basis there on attempt 0 hands
/// every retry a warm start for the perturbed re-solve; the slot starts
/// empty, so attempt 0 itself is unaffected and fully-successful sweeps
/// stay bit-identical to the 3-argument form.
template <typename T, typename F>
RobustTrialResults<T> run_trials_robust(
    ThreadPool* pool, std::size_t n, std::uint64_t seed, const F& fn,
    const RobustTrialOptions& options = {}) {
  constexpr bool kWarmSlot =
      std::is_invocable_r_v<StatusOr<T>, const F&, std::size_t, Rng&, int,
                            lp::Basis*>;
  static_assert(kWarmSlot ||
                    std::is_invocable_r_v<StatusOr<T>, const F&, std::size_t,
                                          Rng&, int>,
                "run_trials_robust fn must be callable as "
                "StatusOr<T>(trial, rng, attempt[, lp::Basis*])");
  GRIDSEC_TRACE_SPAN("sim.run_trials_robust");
  static obs::Counter& c_trials =
      obs::default_registry().counter("sim.montecarlo.trials");
  c_trials.add(static_cast<std::int64_t>(n));

  RobustTrialResults<T> out;
  out.results.assign(n, std::nullopt);
  std::vector<Status> error(n, Status::ok());
  std::vector<unsigned char> skipped(n, 0);
  std::atomic<bool> abort{false};
  std::atomic<std::size_t> retries{0};
  const int max_attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  const Rng parent(seed);

  parallel_for(pool, n, [&](std::size_t i) {
    if (options.fail_fast && abort.load(std::memory_order_relaxed)) {
      skipped[i] = 1;
      return;
    }
    Status last = Status::ok();
    lp::Basis warm;  // per-trial slot shared across retry attempts
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      GRIDSEC_TRACE_SPAN("sim.trial");
      Rng rng = attempt == 0
                    ? parent.derive_stream(i)
                    : parent.derive_stream(i).derive_stream(
                          static_cast<std::uint64_t>(attempt));
      StatusOr<T> r = [&]() -> StatusOr<T> {
        try {
          if constexpr (kWarmSlot) {
            return fn(i, rng, attempt, &warm);
          } else {
            return fn(i, rng, attempt);
          }
        } catch (const std::exception& e) {
          return Status::internal(std::string("trial threw: ") + e.what());
        }
      }();
      if (r.is_ok()) {
        out.results[i] = std::move(r).value();
        return;
      }
      last = r.status();
      if (last.code() != ErrorCode::kNumericalError) break;
      if (attempt + 1 < max_attempts) {
        retries.fetch_add(1, std::memory_order_relaxed);
      }
    }
    error[i] = last;
    if (options.fail_fast) abort.store(true, std::memory_order_relaxed);
  });

  for (std::size_t i = 0; i < n; ++i) {
    if (skipped[i] != 0) {
      ++out.skipped;
    } else if (!error[i].is_ok()) {
      ++out.failed;
      out.failures.push_back({i, error[i]});
      detail::note_trial_failure(error[i], i, seed);
    }
  }
  out.retries = retries.load(std::memory_order_relaxed);
  detail::note_trial_retries(out.retries);
  return out;
}

/// Scalar robust sweep: partial statistics over the successful trials plus
/// the failure bookkeeping.
struct RobustScalarResults {
  RunningStats stats;  // over successful trials only
  std::vector<TrialFailure> failures;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::size_t retries = 0;
  std::size_t trials = 0;

  [[nodiscard]] bool all_ok() const { return failed == 0 && skipped == 0; }
  /// Human-readable failure summary ("all N trials succeeded" when clean).
  [[nodiscard]] std::string summary() const;
};

RobustScalarResults run_scalar_trials_robust(
    ThreadPool* pool, std::size_t n, std::uint64_t seed,
    const std::function<StatusOr<double>(std::size_t, Rng&, int)>& fn,
    const RobustTrialOptions& options = {});

}  // namespace gridsec::sim
